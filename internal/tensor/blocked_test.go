package tensor

import (
	"fmt"
	"testing"

	"feddrl/internal/rng"
)

// fillRandom populates t with Normal(0,1) deviates, including exact
// zeros sprinkled in (the post-ReLU activation pattern the old kernels
// special-cased) so the bit-identity matrix also covers signed-zero
// arithmetic.
func fillRandom(t *Tensor, r *rng.RNG) {
	for i := range t.Data {
		if r.Intn(8) == 0 {
			t.Data[i] = 0
		} else {
			t.Data[i] = r.Normal(0, 1)
		}
	}
}

// gemmOperands builds the variant's physical operand shapes for a
// logical M×K×N product.
func gemmOperands(v gemmVariant, m, k, n int) (a, b, dst *Tensor) {
	switch v {
	case gemmAT:
		return New(k, m), New(k, n), New(m, n)
	case gemmBT:
		return New(m, k), New(n, k), New(m, n)
	default:
		return New(m, k), New(k, n), New(m, n)
	}
}

// restoreBackend snapshots the active kernel backend and re-installs it
// when the test finishes, so tests can walk the fallback chain freely.
func restoreBackend(t *testing.T) {
	t.Helper()
	orig := KernelBackend()
	t.Cleanup(func() {
		if err := SetBackend(orig); err != nil {
			t.Fatalf("restoring backend %q: %v", orig, err)
		}
	})
}

// TestBlockedBitIdentity is the kernel determinism gate (run explicitly
// by scripts/verify.sh, including a TENSOR_BACKEND=generic pass): for
// all three GEMM variants and every backend in the host's fallback
// chain (each wider tier force-disabled in turn down to generic), the
// blocked kernel must reproduce the naive triple loop BIT for bit
// across shapes chosen to straddle every tile and block boundary —
// 1×1, primes, exact 4- and 8-wide tile multiples, one-off-the-tile,
// tall/skinny, wide/flat and the paper's own edge-heavy shapes — with
// the packing scratch poisoned with NaN beforehand.
func TestBlockedBitIdentity(t *testing.T) {
	shapes := [][3]int{
		{1, 1, 1},
		{1, 7, 1},
		{3, 5, 2},
		{4, kcBlock, 4},     // exact 4-wide tile, one full k panel
		{8, kcBlock, 8},     // exact 8-wide (avx512) tile
		{5, kcBlock + 1, 5}, // one past the 4-wide tile and panel
		{9, kcBlock + 1, 9}, // one past the 8-wide tile and panel
		{7, kcBlock - 1, 7}, // one short of the 8-wide tile and panel
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
					a, b, got := gemmOperands(vt.v, m, k, n)
					fillRandom(a, r)
					fillRandom(b, r)
					want := New(m, n)
					gemmNaive(want, a, b, vt.v)

					// Force the blocked kernel regardless of the dispatch
					// threshold, on NaN-poisoned packing scratch: only
					// slots the kernel writes itself may reach C.
					kc := k
					if kc > kcBlock {
						kc = kcBlock
					}
					ap := poisoned(getBuf(apSize(m, kc, kernelMR())))
					bp := poisoned(getBuf(bpSize(n, kc, kernelNR())))
					gemmBlockedRange(got, a, b, vt.v, 0, m, ap, bp)
					putBuf(bp)
					putBuf(ap)
					for i := range got.Data {
						if got.Data[i] != want.Data[i] {
							t.Fatalf("blocked[%d] = %x, naive = %x", i, got.Data[i], want.Data[i])
						}
					}

					// The public entry (whatever path it dispatches to) must
					// agree too, with every pooled buffer poisoned.
					poisonPools()
					pub := New(m, n)
					switch vt.v {
					case gemmAT:
						MatMulATInto(pub, a, b)
					case gemmBT:
						MatMulBTInto(pub, a, b)
					default:
						MatMulInto(pub, a, b)
					}
					for i := range pub.Data {
						if pub.Data[i] != want.Data[i] {
							t.Fatalf("dispatch[%d] = %x, naive = %x", i, pub.Data[i], want.Data[i])
						}
					}
				})
			}
		}
	}
	// The chain always ends at generic, so every wider tier the host (or
	// the TENSOR_BACKEND override) exposes was also run force-disabled.
	if chain[len(chain)-1] != "generic" {
		t.Fatalf("fallback chain %v does not end at generic", chain)
	}
}

// stubPool is a deterministic Parallel implementation that runs tasks
// inline but reports several lanes, driving the stripe-partitioned path.
type stubPool struct{ workers int }

func (s *stubPool) Workers() int { return s.workers }
func (s *stubPool) ForWorker(n int, task func(worker, i int)) {
	for i := 0; i < n; i++ {
		task(i%s.workers, i)
	}
}

// TestParallelStripesBitIdentical drives the pool-hook path at several
// widths, for every backend in the fallback chain, and checks the
// stripe decomposition changes nothing.
func TestParallelStripesBitIdentical(t *testing.T) {
	defer SetParallel(nil)
	restoreBackend(t)
	r := rng.New(7)
	m, k, n := stripeRows*3+17, 70, 40
	a, b := New(m, k), New(k, n)
	fillRandom(a, r)
	fillRandom(b, r)
	want := New(m, n)
	SetParallel(nil)
	MatMulInto(want, a, b)
	for _, bk := range Backends() {
		if err := SetBackend(bk); err != nil {
			t.Fatalf("SetBackend(%q): %v", bk, err)
		}
		for _, w := range []int{2, 3, 8} {
			SetParallel(&stubPool{workers: w})
			got := New(m, n)
			MatMulInto(got, a, b)
			for i := range got.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("%s workers=%d: [%d] = %x, want %x", bk, w, i, got.Data[i], want.Data[i])
				}
			}
		}
		SetParallel(nil)
	}
}

// TestIm2ColBatchMatchesPerSample checks the whole-batch lowering is
// exactly the per-sample lowering stacked, and that Col2ImBatch is its
// adjoint applied per row block.
func TestIm2ColBatchMatchesPerSample(t *testing.T) {
	g := ConvGeom{InC: 2, InH: 5, InW: 4, K: 3, Stride: 1, Pad: 1}
	batch := 3
	r := rng.New(11)
	x := New(batch, g.InC*g.InH*g.InW)
	fillRandom(x, r)
	ohw := g.OutH() * g.OutW()
	patch := g.InC * g.K * g.K
	cols := New(batch*ohw, patch)
	Im2ColBatch(g, x, cols)
	single := New(ohw, patch)
	for i := 0; i < batch; i++ {
		Im2Col(g, x.Row(i), single)
		for j, v := range single.Data {
			if cols.Data[i*ohw*patch+j] != v {
				t.Fatalf("sample %d element %d: batch %v, single %v", i, j, cols.Data[i*ohw*patch+j], v)
			}
		}
	}

	grad := New(batch*ohw, patch)
	fillRandom(grad, r)
	imgs := New(batch, g.InC*g.InH*g.InW)
	Col2ImBatch(g, grad, imgs)
	for i := 0; i < batch; i++ {
		ref := make([]float64, g.InC*g.InH*g.InW)
		gi := FromSlice(grad.Data[i*ohw*patch:(i+1)*ohw*patch], ohw, patch)
		Col2Im(g, gi, ref)
		for j, v := range ref {
			if imgs.At(i, j) != v {
				t.Fatalf("sample %d grad element %d: batch %v, single %v", i, j, imgs.At(i, j), v)
			}
		}
	}
}

// TestKernelScratchReuse pins the allocation-free property of the
// kernels themselves: warm MatMul*Into calls must not allocate.
func TestKernelScratchReuse(t *testing.T) {
	r := rng.New(3)
	m, k, n := 160, 96, 32
	a, b := New(m, k), New(k, n)
	at, bt := New(k, m), New(n, k)
	fillRandom(a, r)
	fillRandom(b, r)
	fillRandom(at, r)
	fillRandom(bt, r)
	dst := New(m, n)
	step := func() {
		MatMulInto(dst, a, b)
		MatMulATInto(dst, at, b)
		MatMulBTInto(dst, a, bt)
	}
	step() // populate the scratch pool
	if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
		t.Fatalf("warm blocked kernels allocate %.1f times per run, want 0", allocs)
	}
}

func benchGEMMPair(b *testing.B, m, k, n int) {
	r := rng.New(1)
	a, bb := New(m, k), New(k, n)
	fillRandom(a, r)
	fillRandom(bb, r)
	dst := New(m, n)
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gemmNaive(dst, a, bb, gemmNN)
		}
	})
	b.Run("blocked", func(b *testing.B) {
		kc := k
		if kc > kcBlock {
			kc = kcBlock
		}
		ap := getBuf(apSize(m, kc, kernelMR()))
		bp := getBuf(bpSize(n, kc, kernelNR()))
		defer putBuf(ap)
		defer putBuf(bp)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			gemmBlockedRange(dst, a, bb, gemmNN, 0, m, ap, bp)
		}
	})
}

func BenchmarkGEMM256(b *testing.B)     { benchGEMMPair(b, 256, 256, 256) }
func BenchmarkGEMM512(b *testing.B)     { benchGEMMPair(b, 512, 512, 512) }
func BenchmarkGEMMConvVGG(b *testing.B) { benchGEMMPair(b, 2560, 288, 32) }
