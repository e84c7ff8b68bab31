package tensor

import (
	"fmt"
	"math"
	"testing"

	"feddrl/internal/rng"
)

// inPlaceFence is how many NaN elements follow each operand's logical
// end in its backing array: more than any tile reaches past a row.
const inPlaceFence = 2 * edgeNR

// fencedView returns a length-n view into a backing array whose tail
// past n is NaN, with the view filled by Normal(0,1) deviates (exact
// zeros sprinkled in) when r is non-nil and NaN otherwise. The view's
// capacity covers the fence, so only the kernel's own index arithmetic
// keeps it out.
func fencedView[E Elem](n int, r *rng.RNG) []E {
	backing := make([]E, n+inPlaceFence)
	for i := range backing {
		backing[i] = E(math.NaN())
	}
	if r != nil {
		for i := range backing[:n] {
			if r.Intn(8) != 0 {
				backing[i] = E(r.Normal(0, 1))
			} else {
				backing[i] = 0
			}
		}
	}
	return backing[:n]
}

// checkInPlaceFenced runs the blocked GEMM at one width on every
// backend in the fallback chain, for all three variants, over shapes
// that straddle the register tiles, the k panel and both bounds of the
// in-place rule. Operands and output are NaN-fenced views and the
// packing scratch is NaN-poisoned, so a tile read from the wrong place
// (stride, panel offset, a fence element in a valid lane) or a packer
// that misses a slot leaks NaN into C; every element must match the
// naive loop bit for bit and the output fence must stay NaN. A read
// past a tile into the fence that lands only in an edge tile's
// discarded padding lanes leaves C intact, so each case runs a second
// time on the same operands with their capacity clipped to their
// length: the bounds-checked tile slices of gemmBlockedRangeG then
// fail on any in-place tile that reaches past an operand's end. The
// test also proves the shapes took both sides of the rule wherever the
// backend reads in place.
func checkInPlaceFenced[E Elem](t *testing.T, tile func() tileKernel[E]) {
	restoreBackend(t)
	for _, bk := range Backends() {
		if err := SetBackend(bk); err != nil {
			t.Fatalf("SetBackend(%q): %v", bk, err)
		}
		tk := tile()
		mr, nr := tk.mr, tk.nr
		ms := []int{1, mr, 2 * mr, 2*mr + 1, 10, 192, inPlaceRowTiles * mr, inPlaceRowTiles*mr + 1}
		ns := []int{nr, 100, inPlaceColTiles * nr, inPlaceColTiles*nr + 1}
		ks := []int{5, inPlaceMaxK + 1, kcBlock + 9}
		seen := map[string]bool{}
		for _, v := range []gemmVariant{gemmNN, gemmAT, gemmBT} {
			for _, m := range ms {
				for _, n := range ns {
					for _, k := range ks {
						aIn, bIn := tk.inPlacePlan(v, m, k, n)
						seen[fmt.Sprintf("v%d aIn=%v", v, aIn)] = true
						seen[fmt.Sprintf("v%d bIn=%v", v, bIn)] = true
						aR, aC, bR, bC := m, k, k, n
						if v == gemmAT {
							aR, aC = k, m
						}
						if v == gemmBT {
							bR, bC = n, k
						}
						r := rng.New(uint64(m*1000003 + k*1009 + n*7 + int(v)))
						ad, bd := fencedView[E](aR*aC, r), fencedView[E](bR*bC, r)
						want := make([]E, m*n)
						gemmNaiveG(want, ad, aR, aC, bd, bR, bC, v)
						name := fmt.Sprintf("%s v%d %dx%dx%d (aIn=%v bIn=%v)", bk, v, m, k, n, aIn, bIn)
						for _, clip := range []bool{false, true} {
							a, b := ad, bd
							if clip {
								a, b = ad[:len(ad):len(ad)], bd[:len(bd):len(bd)]
							}
							dd := fencedView[E](m*n, nil)
							if err := runFenced(dd, a, aR, aC, b, bR, bC, v, m, k, n, tk); err != nil {
								t.Fatalf("%s clip=%v: %v", name, clip, err)
							}
							for i, w := range want {
								g := float64(dd[i])
								if g != float64(w) || math.Signbit(g) != math.Signbit(float64(w)) {
									t.Fatalf("%s clip=%v: C[%d] = %v, naive %v", name, clip, i, dd[i], w)
								}
							}
							for i, x := range dd[:m*n+inPlaceFence][m*n:] {
								if x == x {
									t.Fatalf("%s: wrote %v past C's end (+%d)", name, x, i)
								}
							}
						}
					}
				}
			}
		}
		// Transposed operands never qualify; the qualifying ones must
		// have run both ways on a backend that reads in place, and never
		// in place on one that does not.
		for _, key := range []string{"v0 bIn=false", "v1 aIn=false", "v1 bIn=false", "v2 aIn=false", "v2 bIn=false"} {
			if !seen[key] {
				t.Fatalf("%s: no shape with %s", bk, key)
			}
		}
		for _, key := range []string{"v0 bIn=true", "v1 aIn=true", "v1 bIn=true"} {
			if seen[key] != tk.inPlace {
				t.Fatalf("%s (in-place kernel %v): shape with %s seen = %v", bk, tk.inPlace, key, seen[key])
			}
		}
		if seen["v0 aIn=true"] || seen["v2 aIn=true"] || seen["v2 bIn=true"] {
			t.Fatalf("%s: a transposed operand was planned in place: %v", bk, seen)
		}
	}
}

// runFenced runs the blocked GEMM over all m rows on NaN-poisoned
// packing scratch, turning a bounds panic into an error.
func runFenced[E Elem](dd, ad []E, aR, aC int, bd []E, bR, bC int, v gemmVariant, m, k, n int, tk tileKernel[E]) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("blocked GEMM panicked: %v", p)
		}
	}()
	kc := min(k, kcBlock)
	ap := poisoned(make([]E, apSize(m, kc, tk.mr)))
	bp := poisoned(make([]E, bpSize(n, kc, tk.nr)))
	gemmBlockedRangeG(dd, ad, aR, aC, bd, bR, bC, v, 0, m, ap, bp, tk)
	return nil
}

// TestInPlaceOperandsFenced is the float64 in-place gate (run by
// scripts/verify.sh, also under TENSOR_BACKEND=avx and =generic).
func TestInPlaceOperandsFenced(t *testing.T) { checkInPlaceFenced(t, tile64) }

// TestInPlaceOperandsFenced32 is the float32 twin.
func TestInPlaceOperandsFenced32(t *testing.T) { checkInPlaceFenced(t, tile32) }
