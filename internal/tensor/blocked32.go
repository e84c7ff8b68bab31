package tensor

// Blocked GEMM driver for the float32 storage arm. Identical structure
// to the float64 driver (blocked.go) — same kcBlock/mcBlock cache
// blocking, the same fixed stripeRows parallel fan-out on the installed
// Parallel hook, the same packed-panel layout via the shared generic
// packing routines — with the register-tile geometry of the f32 vector
// kernels (kernelMR32/kernelNR32 in backend.go): 8×16 ZMM tiles on
// avx512, 4×8 YMM tiles on avx, 4×4 portable tiles otherwise (the f32
// arm has no NEON kernel; arm64 uses the generic tiles).
//
// Determinism contract: identical to the float64 arm, at float32
// precision — every output element accumulates along a single
// ascending-k chain with one rounding per multiply (VMULPS) and one per
// add (VADDPS), never fused, so f32 results are bit-identical across
// backends, tile geometries and worker counts. The f32 arm never mixes
// widths: no intermediate is computed in float64.

// gemmDims32 returns the logical (M, K, N) of dst = op(a)·op(b).
func gemmDims32(a, b *Tensor32, v gemmVariant) (m, k, n int) {
	switch v {
	case gemmAT:
		return a.Cols(), a.Rows(), b.Cols()
	case gemmBT:
		return a.Rows(), a.Cols(), b.Rows()
	default:
		return a.Rows(), a.Cols(), b.Cols()
	}
}

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
	m, k, n := gemmDims32(a, b, v)
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
	_, k, n := gemmDims32(a, b, v)
	mr, nr := kernelMR32(), kernelNR32()
	dd := dst.Data
	wb := ap[len(ap)-edgeMR*edgeNR:]
	nTiles := (n + nr - 1) / nr
	for p0 := 0; p0 < k; p0 += kcBlock {
		kc := k - p0
		if kc > kcBlock {
			kc = kcBlock
		}
		packBG(bp, b.Data, b.Rows(), b.Cols(), v, p0, kc, n, nr)
		first := p0 == 0
		for i0 := rs; i0 < re; i0 += mcBlock {
			ib := re - i0
			if ib > mcBlock {
				ib = mcBlock
			}
			packAG(ap, a.Data, a.Rows(), a.Cols(), v, i0, ib, p0, kc, mr)
			mTiles := (ib + mr - 1) / mr
			for it := 0; it < mTiles; it++ {
				mv := ib - it*mr
				if mv > mr {
					mv = mr
				}
				apTile := ap[it*kc*mr:]
				row0 := i0 + it*mr
				for jt := 0; jt < nTiles; jt++ {
					nv := n - jt*nr
					if nv > nr {
						nv = nr
					}
					bpTile := bp[jt*kc*nr:]
					out := dd[row0*n+jt*nr:]
					c, ldc := out, n
					edge := mv < mr || nv < nr
					if edge {
						c, ldc = wb, nr
						if !first {
							tileLoadG(wb, out, n, mv, nv, nr)
						}
					}
					switch {
					case useAVX512:
						micro8x16avx512F32(kc, &apTile[0], &bpTile[0], &c[0], ldc, first)
					case useAVX:
						micro4x8avxF32(kc, &apTile[0], &bpTile[0], &c[0], ldc, first)
					default:
						micro4x4G(kc, apTile, bpTile, c, ldc, first)
					}
					if edge {
						tileStoreG(out, wb, n, mv, nv, nr)
					}
				}
			}
		}
	}
}
