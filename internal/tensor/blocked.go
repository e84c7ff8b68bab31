package tensor

// Blocked GEMM kernels. All three matrix-product variants (A·B, Aᵀ·B,
// A·Bᵀ) funnel into one cache-blocked, register-tiled kernel:
//
//   - The reduction dimension is split into kcBlock panels. For each
//     panel, B's rows are packed into nr-wide column tiles and A's
//     rows into mr-tall row tiles, so the innermost loops stream
//     contiguous memory regardless of the variant's transpose.
//   - Each mr×nr output tile is computed by a micro-kernel that
//     keeps the whole tile in local accumulators across the panel:
//     mr·nr multiply-adds per mr+nr loads, versus the naive kernel's
//     one load+store of the output element per term.
//   - Partial tiles at the M and N edges run the same micro-kernel:
//     the packers zero-fill their padding rows/columns, the kernel
//     writes an mr×nr write-back tile (loaded from C on later panels),
//     and only the valid region is copied to C. K is never padded, and
//     C[i][j] reads only row i of op(a) and column j of op(b), so the
//     padding lanes cannot touch a valid element's value.
//
// The register-tile geometry (mr, nr) is the active backend's
// (kernelMR/kernelNR in backend.go): 8×8 for the avx512 kernel, 4×4
// otherwise. Geometry only regroups which elements are computed
// together; it cannot affect any element's value (see below).
//
// Determinism contract: every output element accumulates its reduction
// terms in ascending k order into a single accumulator chain — k panels
// are visited in ascending order and the micro-kernel walks a panel in
// ascending k — which is exactly the naive triple loop's order. The
// store/reload of the output tile between panels is exact, so blocked
// results are bit-identical to the naive kernels on every backend
// (test-enforced across tile-straddling shapes, and gated in
// scripts/verify.sh). The scalar kernels spell multiply-adds as
// acc += float64(a*b): the explicit conversion forces the product to
// round before the add, which forbids compiler FMA contraction (the
// arm64 compiler otherwise fuses into FMADD) — a no-op on amd64,
// keeping generic results bit-identical across GOARCHes.
//
// Parallelism: output rows are cut into fixed stripeRows stripes and
// fanned out on the installed Parallel hook (SetParallel). Stripe
// geometry never depends on the worker count and every element is
// produced by exactly one stripe, so results are bit-identical at any
// pool width, including no pool at all.

const (
	// kcBlock is the reduction-panel length; one packed B tile column
	// (kcBlock·nr floats) stays L1-resident while A tiles stream by.
	kcBlock = 256
	// mcBlock rows of A are packed per inner block (mcBlock·kcBlock
	// floats ≈ 128 KiB, sized for L2). Must be a multiple of every
	// backend's mr (4 and 8).
	mcBlock = 64

	// blockedMinVolume is the m·k·n product below which the naive loops
	// run instead. It is a compromise across backends: with edge tiles
	// on the SIMD kernels, the avx512 blocked path already wins from
	// m ≥ 6 at a few hundred multiply-adds, while the pure-Go tiles lose
	// to naive at every volume up to here, and 1-row products lose 2–3×
	// on avx512 at any volume (all of op(b) is packed for one row). The
	// DRL nets straddle it: at fedsim defaults (hidden 64, batch 32)
	// their batched products run blocked, 1-row Act/QValue calls naive.
	blockedMinVolume = 1 << 14
	// parallelMinVolume is the volume below which stripe fan-out is not
	// worth the scheduling round trip.
	parallelMinVolume = 1 << 17
	// stripeRows is the fixed per-task row stripe of the parallel path.
	stripeRows = 128
)

// gemmVariant selects which operand is logically transposed.
type gemmVariant int

const (
	gemmNN gemmVariant = iota // dst = a·b
	gemmAT                    // dst = aᵀ·b
	gemmBT                    // dst = a·bᵀ
)

// gemmDims returns the logical (M, K, N) of dst = op(a)·op(b).
func gemmDims(a, b *Tensor, v gemmVariant) (m, k, n int) {
	switch v {
	case gemmAT:
		return a.Cols(), a.Rows(), b.Cols()
	case gemmBT:
		return a.Rows(), a.Cols(), b.Rows()
	default:
		return a.Rows(), a.Cols(), b.Cols()
	}
}

// gemmInto is the shared entry point behind MatMulInto / MatMulATInto /
// MatMulBTInto: dispatch small products to the naive loops, large ones
// to the blocked kernel, and fan row stripes out on the pool hook when
// one is installed. All paths are bit-identical by construction.
func gemmInto(dst, a, b *Tensor, v gemmVariant) {
	m, k, n := gemmDims(a, b, v)
	if m*k*n < blockedMinVolume {
		gemmNaive(dst, a, b, v)
		return
	}
	stripes := (m + stripeRows - 1) / stripeRows
	mr, nr := kernelMR(), kernelNR()
	pl := currentParallel()
	if pl == nil || pl.Workers() <= 1 || stripes < 2 || m*k*n < parallelMinVolume {
		kc := k
		if kc > kcBlock {
			kc = kcBlock
		}
		ap := getBuf(apSize(m, kc, mr))
		bp := getBuf(bpSize(n, kc, nr))
		gemmBlockedRange(dst, a, b, v, 0, m, ap, bp)
		putBuf(bp)
		putBuf(ap)
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
	aps := make([][]float64, lanes)
	bps := make([][]float64, lanes)
	for w := range aps {
		aps[w] = getBuf(apSize(stripeRows, kc, mr))
		bps[w] = getBuf(bpSize(n, kc, nr))
	}
	forWorkerFine(pl, stripes, func(w, s int) {
		rs := s * stripeRows
		re := rs + stripeRows
		if re > m {
			re = m
		}
		gemmBlockedRange(dst, a, b, v, rs, re, aps[w], bps[w])
	})
	for w := range aps {
		putBuf(bps[w])
		putBuf(aps[w])
	}
}

// apSize returns the packed-A buffer length for a row range of rows,
// panel length kc and register-tile height mr, plus the edgeMR×edgeNR
// write-back tile at its tail. The write-back tile rides the pooled
// scratch rather than the stack: the asm kernels' pointer arguments
// escape, so a local array would heap-allocate on every edge tile.
func apSize(rows, kc, mr int) int {
	if rows > mcBlock {
		rows = mcBlock
	}
	tiles := (rows + mr - 1) / mr
	return tiles*mr*kc + edgeMR*edgeNR
}

// bpSize returns the packed-B buffer length for n columns, panel length
// kc and register-tile width nr.
func bpSize(n, kc, nr int) int {
	tiles := (n + nr - 1) / nr
	return tiles * nr * kc
}

// gemmNaive computes the variant with plain triple loops — the reference
// the blocked kernel must match bit for bit, and the fast path for the
// small matrices of the DRL nets. The loops themselves live in the
// generic element core (gemmNaiveG, generic.go), instantiated here at
// float64.
func gemmNaive(dst, a, b *Tensor, v gemmVariant) {
	gemmNaiveG(dst.Data, a.Data, a.Rows(), a.Cols(), b.Data, b.Rows(), b.Cols(), v)
}

// gemmBlockedRange runs the blocked kernel over output rows [rs, re).
// ap and bp are packing scratch sized by apSize/bpSize for the active
// backend's register tile (kernelMR/kernelNR, read once per call); the
// tail of ap holds the write-back tile of partial edge tiles.
func gemmBlockedRange(dst, a, b *Tensor, v gemmVariant, rs, re int, ap, bp []float64) {
	_, k, n := gemmDims(a, b, v)
	mr, nr := kernelMR(), kernelNR()
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
						micro8x8avx512(kc, &apTile[0], &bpTile[0], &c[0], ldc, first)
					case useAVX:
						micro4x4avx(kc, &apTile[0], &bpTile[0], &c[0], ldc, first)
					case useNEON:
						microNeon4x4(kc, &apTile[0], &bpTile[0], &c[0], ldc, first)
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

// The packing routines (packAG/packBG), the portable micro-kernel
// (micro4x4G) and the write-back tile copies (tileLoadG/tileStoreG)
// live in the generic element core (generic.go), shared verbatim with
// the float32 arm (blocked32.go).
