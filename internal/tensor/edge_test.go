package tensor

import (
	"fmt"
	"math"
	"testing"

	"feddrl/internal/rng"
)

// paperShapes are logical M×K×N products of the paper's Table 3 models
// that almost never fill a register tile: batch 10 against the 192- and
// 48-wide dense layers and the 100-class head, in the forward (NN),
// weight-gradient (AT) and input-gradient (BT) orientations.
var paperShapes = [][3]int{
	{10, 192, 48},  // forward, batch 10: 8+2 rows
	{192, 10, 48},  // weight gradient, K = batch 10
	{10, 48, 192},  // input gradient
	{10, 48, 100},  // 100-class head: 96+4 columns
	{48, 10, 100},  // head weight gradient
	{128, 192, 48}, // full row tiles, one mcBlock straddle
}

// poisoned fills the whole capacity of a packing buffer with NaN and
// returns it, so a kernel that read a slot it never wrote would leak
// NaN into a valid output element.
func poisoned[E Elem](buf []E) []E {
	full := buf[:cap(buf)]
	for i := range full {
		full[i] = E(math.NaN())
	}
	return buf
}

// poisonPools poisons every idle buffer of both packing-scratch pools,
// so the public GEMM entries run on NaN-filled scratch.
func poisonPools() {
	kernelBufs.Lock()
	for _, b := range kernelBufs.bufs {
		poisoned(b)
	}
	kernelBufs.Unlock()
	kernelBufs32.Lock()
	for _, b := range kernelBufs32.bufs {
		poisoned(b)
	}
	kernelBufs32.Unlock()
}

// opIndex returns the physical index of the logical element (r, c) of
// op(a) (isA: r ∈ [0,M), c ∈ [0,K)) or of op(b) (r ∈ [0,K), c ∈ [0,N))
// under the variant's operand layouts of an M×K×N product.
func opIndex(v gemmVariant, isA bool, m, k, n, r, c int) int {
	switch {
	case isA && v == gemmAT: // a is k×m
		return c*m + r
	case isA: // a is m×k
		return r*k + c
	case v == gemmBT: // b is n×k
		return c*k + r
	default: // b is k×n
		return r*n + c
	}
}

// checkPackPadding packs a partial edge tile of every variant into
// NaN-filled panels and checks each slot: op(a)/op(b) values inside the
// valid region, exact zeros in the padding.
func checkPackPadding[E Elem](t *testing.T, mr, nr int) {
	t.Helper()
	const m, k, n = 10, 7, 11
	for _, v := range []gemmVariant{gemmNN, gemmAT, gemmBT} {
		a, b := make([]E, m*k), make([]E, k*n)
		for i := range a {
			a[i] = E(i + 1)
		}
		for i := range b {
			b[i] = E(-i - 1)
		}
		aR, aC, bR, bC := m, k, k, n
		if v == gemmAT {
			aR, aC = k, m
		}
		if v == gemmBT {
			bR, bC = n, k
		}
		ap := poisoned(make([]E, apSize(m, k, mr)))
		packAG(ap, a, aR, aC, v, 0, m, 0, k, mr)
		for it := 0; it*mr < m; it++ {
			for p := 0; p < k; p++ {
				for r := 0; r < mr; r++ {
					got, want := ap[it*k*mr+p*mr+r], E(0)
					if i := it*mr + r; i < m {
						want = a[opIndex(v, true, m, k, n, i, p)]
					}
					if got != want {
						t.Fatalf("variant %d mr=%d: packed A tile %d p %d r %d = %v, want %v", v, mr, it, p, r, got, want)
					}
				}
			}
		}
		bp := poisoned(make([]E, bpSize(n, k, nr)))
		packBG(bp, b, bR, bC, v, 0, k, 0, n, nr)
		for jt := 0; jt*nr < n; jt++ {
			for p := 0; p < k; p++ {
				for c := 0; c < nr; c++ {
					got, want := bp[jt*k*nr+p*nr+c], E(0)
					if j := jt*nr + c; j < n {
						want = b[opIndex(v, false, m, k, n, p, j)]
					}
					if got != want {
						t.Fatalf("variant %d nr=%d: packed B tile %d p %d c %d = %v, want %v", v, nr, jt, p, c, got, want)
					}
				}
			}
		}
	}
}

// TestPackPadsEdgeTiles proves the packers write the padding of partial
// edge tiles (zeros) rather than leaving scratch contents behind, for
// every register-tile geometry any backend uses at either width.
func TestPackPadsEdgeTiles(t *testing.T) {
	for _, g := range [][2]int{{4, 4}, {8, 8}, {4, 8}, {8, 16}} {
		checkPackPadding[float64](t, g[0], g[1])
		checkPackPadding[float32](t, g[0], g[1])
	}
}

// TestBlockedEdgeNonFiniteConfined plants an Inf in one valid row of
// op(a) and a NaN in one valid column of op(b), inside the partial edge
// tiles of a batch-10 product, and checks on every backend and at both
// widths that the blocked kernel matches the naive loop bit for bit and
// that the non-finite values reach exactly that row and that column of
// C: the padding lanes never spread them. The NaN is the x86 default
// NaN so the NaN lattice is single-valued (see fillElems32).
func TestBlockedEdgeNonFiniteConfined(t *testing.T) {
	restoreBackend(t)
	const m, k, n = 10, 48, 10
	cases := [][2]int{{9, 9}, {0, 9}, {9, 0}, {4, 3}}
	check := func(t *testing.T, c [2]int, finite func(i int) bool) {
		t.Helper()
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				want := i != c[0] && j != c[1]
				if finite(i*n+j) != want {
					t.Fatalf("C[%d][%d] finite=%v, want %v (Inf row %d, NaN column %d)", i, j, !want, want, c[0], c[1])
				}
			}
		}
	}
	for _, bk := range Backends() {
		if err := SetBackend(bk); err != nil {
			t.Fatalf("SetBackend(%q): %v", bk, err)
		}
		for _, v := range []gemmVariant{gemmNN, gemmAT, gemmBT} {
			for _, c := range cases {
				t.Run(fmt.Sprintf("%s_%d_row%d_col%d", bk, v, c[0], c[1]), func(t *testing.T) {
					r := rng.New(uint64(17*c[0] + c[1]))
					a, b, got := gemmOperands(v, m, k, n)
					fillRandom(a, r)
					fillRandom(b, r)
					a.Data[opIndex(v, true, m, k, n, c[0], 5)] = math.Inf(1)
					b.Data[opIndex(v, false, m, k, n, 11, c[1])] = math.Float64frombits(0xfff8000000000000)
					want := New(m, n)
					gemmNaive(want, a, b, v)
					ap := poisoned(getBuf(apSize(m, k, kernelMR())))
					bp := poisoned(getBuf(bpSize(n, k, kernelNR())))
					gemmBlockedRange(got, a, b, v, 0, m, ap, bp)
					putBuf(bp)
					putBuf(ap)
					for i := range want.Data {
						if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
							t.Fatalf("blocked[%d] = %x, naive = %x", i, got.Data[i], want.Data[i])
						}
					}
					check(t, c, func(i int) bool { return !math.IsNaN(got.Data[i]) && !math.IsInf(got.Data[i], 0) })

					a32, b32, got32 := gemmOperands32(v, m, k, n)
					fillRandom32(a32, r)
					fillRandom32(b32, r)
					a32.Data[opIndex(v, true, m, k, n, c[0], 5)] = float32(math.Inf(1))
					b32.Data[opIndex(v, false, m, k, n, 11, c[1])] = math.Float32frombits(0xffc00000)
					want32 := New32(m, n)
					gemmNaive32(want32, a32, b32, v)
					ap32 := poisoned(getBuf32(apSize(m, k, kernelMR32())))
					bp32 := poisoned(getBuf32(bpSize(n, k, kernelNR32())))
					gemmBlockedRange32(got32, a32, b32, v, 0, m, ap32, bp32)
					putBuf32(bp32)
					putBuf32(ap32)
					sameBits32(t, "blocked32", got32.Data, want32.Data)
					check(t, c, func(i int) bool {
						x := float64(got32.Data[i])
						return !math.IsNaN(x) && !math.IsInf(x, 0)
					})
				})
			}
		}
	}
}

// TestEdgeGEMMAllocs gates the edge path's allocation-freedom: a warm
// batch-10 product (8+2 rows — every other tile partial) through all
// three public entries at both widths performs zero heap allocations,
// because the write-back tile rides the pooled packing scratch.
func TestEdgeGEMMAllocs(t *testing.T) {
	const m, k, n = 10, 192, 48
	if m*k*n < blockedMinVolume || m*k*n >= parallelMinVolume {
		t.Fatalf("shape %dx%dx%d no longer takes the sequential blocked path", m, k, n)
	}
	r := rng.New(9)
	var step []func()
	for _, v := range []gemmVariant{gemmNN, gemmAT, gemmBT} {
		v := v // captured by the step closures (go 1.21 loop semantics)
		a, b, dst := gemmOperands(v, m, k, n)
		fillRandom(a, r)
		fillRandom(b, r)
		a32, b32, dst32 := gemmOperands32(v, m, k, n)
		fillRandom32(a32, r)
		fillRandom32(b32, r)
		step = append(step,
			func() { gemmInto(dst, a, b, v) },
			func() { gemmInto32(dst32, a32, b32, v) })
	}
	run := func() {
		for _, f := range step {
			f()
		}
	}
	run() // populate the scratch pools
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("warm edge-heavy GEMMs allocate %.1f times per run, want 0", allocs)
	}
}
