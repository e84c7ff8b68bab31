package tensor

import (
	"fmt"
	"math"
	"testing"

	"feddrl/internal/rng"
)

// fillRandom32 populates t with float32 Normal(0,1) deviates plus exact
// zeros, mirroring fillRandom for the f64 arm.
func fillRandom32(t *Tensor32, r *rng.RNG) {
	for i := range t.Data {
		if r.Intn(8) == 0 {
			t.Data[i] = 0
		} else {
			t.Data[i] = float32(r.Normal(0, 1))
		}
	}
}

// fillElems32 populates x with adversarial float32 inputs: normal
// deviates plus exact +0/-0, NaN, ±Inf and the smallest denormals, so
// the f32 SIMD bodies are checked bit for bit against the generic core
// on every special-value class.
//
// The injected NaN is the x86 indefinite (0xffc00000, sign bit set) —
// the same bit pattern invalid operations (Inf·0, Inf−Inf) generate in
// hardware. That keeps the NaN lattice single-valued: when an addition
// sees NaN in BOTH operands, IEEE lets the implementation pick either
// payload, and compiled operand order differs between code paths; with
// every NaN sharing one bit pattern the pick cannot matter, so
// bit-identity is well-defined even for non-finite propagation.
func fillElems32(x []float32, r *rng.RNG) {
	specials := []float32{
		0, float32(math.Copysign(0, -1)), math.Float32frombits(0xffc00000),
		float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(1), math.Float32frombits(0x80000001), // ±min denormal
		1, -1,
	}
	for i := range x {
		if r.Intn(4) == 0 {
			x[i] = specials[r.Intn(len(specials))]
		} else {
			x[i] = float32(r.Normal(0, 1))
		}
	}
}

// sameBits32 compares float32 slices bit for bit (NaN == NaN, +0 != -0).
func sameBits32(t *testing.T, tag string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d] = %x, want %x", tag, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// gemmOperands32 builds the variant's physical operand shapes for a
// logical M×K×N float32 product.
func gemmOperands32(v gemmVariant, m, k, n int) (a, b, dst *Tensor32) {
	switch v {
	case gemmAT:
		return New32(k, m), New32(k, n), New32(m, n)
	case gemmBT:
		return New32(m, k), New32(n, k), New32(m, n)
	default:
		return New32(m, k), New32(k, n), New32(m, n)
	}
}

// TestBlocked32BitIdentity is the float32 kernel determinism gate (run
// explicitly by scripts/verify.sh, including a TENSOR_BACKEND=generic
// pass): for all three GEMM variants and every backend in the host's
// fallback chain, the blocked f32 kernel must reproduce the generic
// reference triple loop BIT for bit across shapes straddling the wider
// f32 tiles — exact 4×8 (avx) and 8×16 (avx512) multiples, one-off,
// primes, tall/skinny, wide/flat and the paper's edge-heavy shapes —
// with the packing scratch poisoned with NaN beforehand.
func TestBlocked32BitIdentity(t *testing.T) {
	shapes := [][3]int{
		{1, 1, 1},
		{1, 7, 1},
		{3, 5, 2},
		{4, kcBlock, 8},      // exact avx f32 tile, one full k panel
		{8, kcBlock, 16},     // exact avx512 f32 tile
		{5, kcBlock + 1, 9},  // one past the avx tile and panel
		{9, kcBlock + 1, 17}, // one past the avx512 tile and panel
		{7, kcBlock - 1, 15}, // one short of the avx512 tile and panel
		{13, 17, 11},
		{mcBlock, 31, 12},
		{mcBlock + 3, kcBlock*2 + 5, 9},
		{257, 19, 23},   // tall/skinny, prime rows
		{5, 23, 129},    // wide/flat
		{2, 300, 2},     // k spans two panels with tiny tiles
		{131, 131, 131}, // primes straddling every block
	}
	shapes = append(shapes, paperShapes...)
	variants := []struct {
		name string
		v    gemmVariant
	}{{"NN", gemmNN}, {"AT", gemmAT}, {"BT", gemmBT}}
	restoreBackend(t)
	chain := Backends()
	for _, bk := range chain {
		if err := SetBackend(bk); err != nil {
			t.Fatalf("SetBackend(%q): %v", bk, err)
		}
		for _, vt := range variants {
			for _, sh := range shapes {
				m, k, n := sh[0], sh[1], sh[2]
				t.Run(fmt.Sprintf("%s_%s_%dx%dx%d", bk, vt.name, m, k, n), func(t *testing.T) {
					r := rng.New(uint64(m*1000003 + k*1009 + n))
					a, b, got := gemmOperands32(vt.v, m, k, n)
					fillRandom32(a, r)
					fillRandom32(b, r)
					want := New32(m, n)
					gemmNaive32(want, a, b, vt.v)

					// Force the blocked kernel regardless of the dispatch
					// threshold, on NaN-poisoned packing scratch.
					kc := k
					if kc > kcBlock {
						kc = kcBlock
					}
					ap := poisoned(getBuf32(apSize(m, kc, kernelMR32())))
					bp := poisoned(getBuf32(bpSize(n, kc, kernelNR32())))
					gemmBlockedRange32(got, a, b, vt.v, 0, m, ap, bp)
					putBuf32(bp)
					putBuf32(ap)
					sameBits32(t, "blocked", got.Data, want.Data)

					// The public entry (whatever path it dispatches to) must
					// agree too, with every pooled buffer poisoned.
					poisonPools()
					pub := New32(m, n)
					switch vt.v {
					case gemmAT:
						MatMulAT32Into(pub, a, b)
					case gemmBT:
						MatMulBT32Into(pub, a, b)
					default:
						MatMul32Into(pub, a, b)
					}
					sameBits32(t, "dispatch", pub.Data, want.Data)
				})
			}
		}
	}
	if chain[len(chain)-1] != "generic" {
		t.Fatalf("fallback chain %v does not end at generic", chain)
	}
}

// TestBlocked32SpecialValues drives the blocked f32 GEMM with NaN, ±Inf,
// signed zeros and denormals on every backend: since every output
// element accumulates along one ascending-k chain, even non-finite
// propagation (Inf−Inf, Inf·0) must match the generic reference bit for
// bit.
func TestBlocked32SpecialValues(t *testing.T) {
	restoreBackend(t)
	shapes := [][3]int{{9, 33, 17}, {16, kcBlock + 3, 32}, {5, 70, 11}}
	for _, bk := range Backends() {
		if err := SetBackend(bk); err != nil {
			t.Fatalf("SetBackend(%q): %v", bk, err)
		}
		for _, sh := range shapes {
			m, k, n := sh[0], sh[1], sh[2]
			t.Run(fmt.Sprintf("%s_%dx%dx%d", bk, m, k, n), func(t *testing.T) {
				r := rng.New(uint64(m*2718 + k*31 + n))
				a, b, got := gemmOperands32(gemmNN, m, k, n)
				fillElems32(a.Data, r)
				fillElems32(b.Data, r)
				want := New32(m, n)
				gemmNaive32(want, a, b, gemmNN)
				kc := k
				if kc > kcBlock {
					kc = kcBlock
				}
				ap := getBuf32(apSize(m, kc, kernelMR32()))
				bp := getBuf32(bpSize(n, kc, kernelNR32()))
				gemmBlockedRange32(got, a, b, gemmNN, 0, m, ap, bp)
				putBuf32(bp)
				putBuf32(ap)
				sameBits32(t, "blocked", got.Data, want.Data)
			})
		}
	}
}

// Float32 scalar references with the same explicit-conversion rounding
// guards as the generic core.
func refAxpy32(alpha float32, x, y []float32) {
	for i, v := range x {
		y[i] += float32(alpha * v)
	}
}

func refScale32(alpha float32, x []float32) {
	for i := range x {
		x[i] *= alpha
	}
}

func refAdd32(x, y []float32) {
	for i, v := range x {
		y[i] += v
	}
}

func refReLUFwd32(x, out []float32) {
	for i, v := range x {
		if v <= 0 {
			out[i] = 0
		} else {
			out[i] = v
		}
	}
}

func refReLUBwd32(x, g, out []float32) {
	for i := range x {
		if x[i] <= 0 {
			out[i] = 0
		} else {
			out[i] = g[i]
		}
	}
}

func refLeakyFwd32(alpha float32, x, out []float32) {
	for i, v := range x {
		if v < 0 {
			out[i] = float32(alpha * v)
		} else {
			out[i] = v
		}
	}
}

func refLeakyBwd32(alpha float32, x, g, out []float32) {
	for i := range x {
		if x[i] < 0 {
			out[i] = float32(g[i] * alpha)
		} else {
			out[i] = g[i]
		}
	}
}

// TestElemwise32BitIdentity checks every float32 elementwise kernel
// against its scalar reference, bit for bit, for every backend and
// lengths straddling the 8- and 16-wide vector bodies and their tails,
// over inputs including NaN, ±Inf, ±0 and denormals.
func TestElemwise32BitIdentity(t *testing.T) {
	restoreBackend(t)
	lengths := []int{1, 2, 3, 7, 8, 9, 15, 16, 17, 23, 31, 32, 33, 64, 257, 1003}
	const alpha = float32(0.3) // not exactly representable: scaling really rounds
	for _, bk := range Backends() {
		if err := SetBackend(bk); err != nil {
			t.Fatalf("SetBackend(%q): %v", bk, err)
		}
		for _, n := range lengths {
			t.Run(fmt.Sprintf("%s_n%d", bk, n), func(t *testing.T) {
				r := rng.New(uint64(37*n + 11))
				x := make([]float32, n)
				g := make([]float32, n)
				y0 := make([]float32, n)
				fillElems32(x, r)
				fillElems32(g, r)
				fillElems32(y0, r)

				y := append([]float32(nil), y0...)
				want := append([]float32(nil), y0...)
				Axpy32(alpha, x, y)
				refAxpy32(alpha, x, want)
				sameBits32(t, "Axpy32", y, want)

				s := append([]float32(nil), x...)
				want = append(want[:0], x...)
				Scale32(alpha, s)
				refScale32(alpha, want)
				sameBits32(t, "Scale32", s, want)

				y = append(y[:0], y0...)
				want = append(want[:0], y0...)
				Add32(x, y)
				refAdd32(x, want)
				sameBits32(t, "Add32", y, want)

				out := make([]float32, n)
				want = make([]float32, n)
				ReLUForward32(x, out)
				refReLUFwd32(x, want)
				sameBits32(t, "ReLUForward32", out, want)

				ReLUBackward32(x, g, out)
				refReLUBwd32(x, g, want)
				sameBits32(t, "ReLUBackward32", out, want)

				LeakyReLUForward32(alpha, x, out)
				refLeakyFwd32(alpha, x, want)
				sameBits32(t, "LeakyReLUForward32", out, want)

				LeakyReLUBackward32(alpha, x, g, out)
				refLeakyBwd32(alpha, x, g, want)
				sameBits32(t, "LeakyReLUBackward32", out, want)
			})
		}
	}
}

// TestParallelStripes32BitIdentical drives the f32 pool-hook path at
// several widths, for every backend, and checks the stripe
// decomposition changes nothing.
func TestParallelStripes32BitIdentical(t *testing.T) {
	defer SetParallel(nil)
	restoreBackend(t)
	r := rng.New(7)
	m, k, n := stripeRows*3+17, 70, 40
	a, b := New32(m, k), New32(k, n)
	fillRandom32(a, r)
	fillRandom32(b, r)
	want := New32(m, n)
	SetParallel(nil)
	MatMul32Into(want, a, b)
	for _, bk := range Backends() {
		if err := SetBackend(bk); err != nil {
			t.Fatalf("SetBackend(%q): %v", bk, err)
		}
		for _, w := range []int{2, 3, 8} {
			SetParallel(&stubPool{workers: w})
			got := New32(m, n)
			MatMul32Into(got, a, b)
			for i := range got.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("%s workers=%d: [%d] = %x, want %x",
						bk, w, i, math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
				}
			}
		}
		SetParallel(nil)
	}
}

// TestIm2Col32MatchesFloat64 checks the f32 lowering agrees with the
// f64 lowering of the widened image: im2col/col2im only move and
// accumulate values, and the test geometry has at most one contribution
// per (column, image) pair beyond whole-lattice sums that stay exact.
func TestIm2Col32MatchesFloat64(t *testing.T) {
	g := ConvGeom{InC: 2, InH: 5, InW: 4, K: 3, Stride: 1, Pad: 1}
	r := rng.New(13)
	img32 := make([]float32, g.InC*g.InH*g.InW)
	fillElems32(img32, r)
	ohw := g.OutH() * g.OutW()
	patch := g.InC * g.K * g.K
	cols32 := New32(ohw, patch)
	Im2Col32(g, img32, cols32)

	img64 := Widen(nil, img32)
	cols64 := New(ohw, patch)
	Im2Col(g, img64, cols64)
	for i, v := range cols32.Data {
		if math.Float64bits(float64(v)) != math.Float64bits(cols64.Data[i]) {
			t.Fatalf("cols[%d] = %v, f64 lowering = %v", i, v, cols64.Data[i])
		}
	}
}

// TestWidenQuantizeRoundTrip pins the conversion contract: widening is
// exact (Quantize∘Widen is the identity bit for bit, including NaN,
// signed zeros and denormals) and QuantizeLattice makes a float64
// vector exactly f32-representable.
func TestWidenQuantizeRoundTrip(t *testing.T) {
	r := rng.New(23)
	src := make([]float32, 513)
	fillElems32(src, r)
	wide := Widen(nil, src)
	back := Quantize(nil, wide)
	sameBits32(t, "Quantize(Widen(v))", back, src)

	// QuantizeLattice: after rounding onto the lattice, quantize and
	// widen are exact inverses.
	v := make([]float64, 257)
	for i := range v {
		v[i] = r.Normal(0, 1)
	}
	QuantizeLattice(v)
	again := append([]float64(nil), v...)
	QuantizeLattice(again)
	for i := range v {
		if math.Float64bits(again[i]) != math.Float64bits(v[i]) {
			t.Fatalf("QuantizeLattice not idempotent at %d: %x vs %x", i, again[i], v[i])
		}
	}
	w := Widen(nil, Quantize(nil, v))
	for i := range v {
		if math.Float64bits(w[i]) != math.Float64bits(v[i]) {
			t.Fatalf("Widen(Quantize(lattice v))[%d] = %x, want %x", i, w[i], v[i])
		}
	}
}

// TestKernelScratchReuse32 pins the allocation-free property of the f32
// kernels: warm MatMul*32Into and elementwise calls must not allocate.
func TestKernelScratchReuse32(t *testing.T) {
	r := rng.New(3)
	m, k, n := 160, 96, 32
	a, b := New32(m, k), New32(k, n)
	at, bt := New32(k, m), New32(n, k)
	fillRandom32(a, r)
	fillRandom32(b, r)
	fillRandom32(at, r)
	fillRandom32(bt, r)
	dst := New32(m, n)
	x := make([]float32, 1003)
	y := make([]float32, 1003)
	step := func() {
		MatMul32Into(dst, a, b)
		MatMulAT32Into(dst, at, b)
		MatMulBT32Into(dst, a, bt)
		Axpy32(0.5, x, y)
		Add32(x, y)
		Scale32(0.999, y)
		ReLUForward32(x, y)
	}
	step() // populate the scratch pool
	if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
		t.Fatalf("warm f32 kernels allocate %.1f times per run, want 0", allocs)
	}
}
