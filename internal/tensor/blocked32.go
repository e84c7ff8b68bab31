package tensor

// Blocked GEMM entry for the float32 storage arm. It runs the float64
// arm's width-generic loop (gemmBlockedRangeG in blocked.go) — same
// kcBlock/mcBlock cache blocking, the same fixed stripeRows parallel
// fan-out on the installed Parallel hook, the same in-place-or-pack
// rule: op(b) read in place for NN and AT and op(a) for AT at small
// shapes on the amd64 vector kernels, transposed operands, edge tiles
// and large products packed by the shared generic packers — with the
// register-tile geometry of the f32 vector kernels (kernelMR32/
// kernelNR32 in backend.go): 8×16 ZMM tiles on avx512, 4×8 YMM tiles on
// avx, 4×4 portable tiles otherwise (the f32 arm has no NEON kernel;
// arm64 uses the generic tiles, which pack everything).
//
// Determinism contract: identical to the float64 arm, at float32
// precision — every output element accumulates along a single
// ascending-k chain with one rounding per multiply (VMULPS) and one per
// add (VADDPS), never fused, so f32 results are bit-identical across
// backends, tile geometries and worker counts. The f32 arm never mixes
// widths: no intermediate is computed in float64.

// gemmNaive32 computes the variant with the generic reference loops —
// the kernel the blocked f32 path must match bit for bit.
func gemmNaive32(dst, a, b *Tensor32, v gemmVariant) {
	gemmNaiveG(dst.Data, a.Data, a.Rows(), a.Cols(), b.Data, b.Rows(), b.Cols(), v)
}

// gemmInto32 is the shared entry point behind MatMul32Into /
// MatMulAT32Into / MatMulBT32Into: dispatch small products to the naive
// loops, large ones to the blocked kernel, and fan row stripes out on
// the pool hook when one is installed. All paths are bit-identical by
// construction. The volume thresholds are shared with the float64 arm:
// they gate on arithmetic count, which is width-independent.
func gemmInto32(dst, a, b *Tensor32, v gemmVariant) {
	m, k, n := gemmDims(a.Rows(), a.Cols(), b.Rows(), b.Cols(), v)
	if m*k*n < blockedMinVolume {
		gemmNaive32(dst, a, b, v)
		return
	}
	stripes := (m + stripeRows - 1) / stripeRows
	mr, nr := kernelMR32(), kernelNR32()
	pl := currentParallel()
	if pl == nil || pl.Workers() <= 1 || stripes < 2 || m*k*n < parallelMinVolume {
		kc := k
		if kc > kcBlock {
			kc = kcBlock
		}
		ap := getBuf32(apSize(m, kc, mr))
		bp := getBuf32(bpSize(n, kc, nr))
		gemmBlockedRange32(dst, a, b, v, 0, m, ap, bp)
		putBuf32(bp)
		putBuf32(ap)
		return
	}
	lanes := pl.Workers()
	if lanes > stripes {
		lanes = stripes
	}
	kc := k
	if kc > kcBlock {
		kc = kcBlock
	}
	aps := make([][]float32, lanes)
	bps := make([][]float32, lanes)
	for w := range aps {
		aps[w] = getBuf32(apSize(stripeRows, kc, mr))
		bps[w] = getBuf32(bpSize(n, kc, nr))
	}
	forWorkerFine(pl, stripes, func(w, s int) {
		rs := s * stripeRows
		re := rs + stripeRows
		if re > m {
			re = m
		}
		gemmBlockedRange32(dst, a, b, v, rs, re, aps[w], bps[w])
	})
	for w := range aps {
		putBuf32(bps[w])
		putBuf32(aps[w])
	}
}

// gemmBlockedRange32 runs the blocked f32 kernel over output rows
// [rs, re). ap and bp are packing scratch sized by apSize/bpSize for
// the active backend's f32 register tile; the tail of ap holds the
// write-back tile of partial edge tiles.
func gemmBlockedRange32(dst, a, b *Tensor32, v gemmVariant, rs, re int, ap, bp []float32) {
	gemmBlockedRangeG(dst.Data, a.Data, a.Rows(), a.Cols(), b.Data, b.Rows(), b.Cols(), v, rs, re, ap, bp, tile32())
}

// tile32 returns the active backend's float32 register tile; arm64 has
// no f32 vector kernel and runs the packed generic tile.
func tile32() tileKernel[float32] {
	t := tileKernel[float32]{mr: kernelMR32(), nr: kernelNR32(), inPlace: kernelInPlace()}
	switch {
	case useAVX512:
		t.run = func(kc int, ap []float32, lda int, bp []float32, ldb int, c []float32, ldc int, first bool) {
			micro8x16avx512F32(kc, &ap[0], lda, &bp[0], ldb, &c[0], ldc, first)
		}
	case useAVX:
		t.run = func(kc int, ap []float32, lda int, bp []float32, ldb int, c []float32, ldc int, first bool) {
			micro4x8avxF32(kc, &ap[0], lda, &bp[0], ldb, &c[0], ldc, first)
		}
	default:
		t.run = func(kc int, ap []float32, _ int, bp []float32, _ int, c []float32, ldc int, first bool) {
			micro4x4G(kc, ap, bp, c, ldc, first)
		}
	}
	return t
}
