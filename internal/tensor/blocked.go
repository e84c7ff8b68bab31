package tensor

// Blocked GEMM kernels. All three matrix-product variants (A·B, Aᵀ·B,
// A·Bᵀ) funnel into one cache-blocked, register-tiled kernel:
//
//   - The reduction dimension is split into kcBlock panels. Per k step
//     the micro-kernel reads mr values of op(a)'s tile column and nr
//     values of op(b)'s tile row, each contiguous, one per-k stride
//     apart (lda, ldb).
//   - Operands already contiguous along the tile are read in place:
//     op(b) for NN and AT (a row of b is a row of op(b)) and op(a) for
//     AT (a row of a is a column of op(a)). Their full tiles go to the
//     kernel straight from the operand, stride = its row length, on
//     the amd64 vector backends, for products small enough that packing
//     would not pay back (inPlacePlan below: batch-size M for B, a few
//     column tiles for A, and batch-size K for both).
//   - Everything else is packed into tile-major scratch, stride = mr or
//     nr: transposed operands (A for NN and BT, B for BT), which no
//     stride can make contiguous; the zero-padded edge tiles; products
//     large enough that reuse across many tiles pays for the packing
//     pass and buys contiguous, L1-resident panels; and every operand on
//     the generic and NEON tiles, whose kernels walk packed panels only.
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
// ascending k, whether it reads the panel packed or in place — which is
// exactly the naive triple loop's order. The store/reload of the
// output tile between panels is exact, so blocked results are
// bit-identical to the naive kernels on every backend (test-enforced
// across tile-straddling shapes, and gated in scripts/verify.sh). The scalar kernels spell multiply-adds as
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

	// inPlaceRowTiles and inPlaceColTiles bound the products whose
	// operands are read in place rather than packed (inPlacePlan).
	// Measured on avx512 and avx (time in place ÷ packed): B read in
	// place cost 0.3–0.8× up to four row tiles (M ≤ 32 / 16), but 1.08×
	// at 64×512×512. A read in place (AT) cost 0.3–0.8× at batch-size K
	// up to four column tiles, and 0.7–0.9× for the conv weight
	// gradients colsᵀ·dRes, whose K = batch·ohw runs to thousands of
	// rows: M = 144–1152, K = 2560–10240, N = 32. At sixteen column
	// tiles one tuning run measured up to 1.16× and a re-run at N = 128
	// (M = 192–288, K = 10–2560) 0.76–0.95×; the bound stays at four
	// until that is settled.
	inPlaceRowTiles = 4
	inPlaceColTiles = 4
	// inPlaceMaxK bounds the reduction length at which both operands
	// qualify whatever M and N: a tile then walks at most this many
	// operand rows, and at batch-size K the pack pass is as long as the
	// kernel it feeds. Measured on avx512 and avx (time in place ÷
	// packed): the weight gradients xᵀ·g at K = 10–32 (M = 48–192,
	// N = 48–128) cost 0.7–0.8×, 1152×32×128 AT 0.88× and 2560×32×144
	// NN 0.98×; at K = 64 the avx 512×64×512 NN product lost 5%.
	inPlaceMaxK = 32
)

// gemmVariant selects which operand is logically transposed.
type gemmVariant int

const (
	gemmNN gemmVariant = iota // dst = a·b
	gemmAT                    // dst = aᵀ·b
	gemmBT                    // dst = a·bᵀ
)

// gemmDims returns the logical (M, K, N) of dst = op(a)·op(b) for a
// aR×aC and b bR×bC physically, at either width.
func gemmDims(aR, aC, bR, bC int, v gemmVariant) (m, k, n int) {
	switch v {
	case gemmAT:
		return aC, aR, bC
	case gemmBT:
		return aR, aC, bR
	default:
		return aR, aC, bC
	}
}

// gemmInto is the shared entry point behind MatMulInto / MatMulATInto /
// MatMulBTInto: dispatch small products to the naive loops, large ones
// to the blocked kernel, and fan row stripes out on the pool hook when
// one is installed. All paths are bit-identical by construction.
func gemmInto(dst, a, b *Tensor, v gemmVariant) {
	m, k, n := gemmDims(a.Rows(), a.Cols(), b.Rows(), b.Cols(), v)
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
	gemmBlockedRangeG(dst.Data, a.Data, a.Rows(), a.Cols(), b.Data, b.Rows(), b.Cols(), v, rs, re, ap, bp, tile64())
}

// microKernel computes one full mr×nr output tile over a kc-long panel:
// step p reads the tile's mr A values at ap[p*lda:] and its nr B values
// at bp[p*ldb:]; c is the tile's top-left element in a row-major output
// with leading dimension ldc. first selects overwrite (panel 0) versus
// accumulate-on-top (later panels).
type microKernel[E Elem] func(kc int, ap []E, lda int, bp []E, ldb int, c []E, ldc int, first bool)

// tileKernel is the active backend's register tile at one width: its
// geometry, whether its kernel honours lda/ldb (so full tiles may be
// read in place, see inPlacePlan), and the kernel itself.
type tileKernel[E Elem] struct {
	mr, nr  int
	inPlace bool
	run     microKernel[E]
}

// tile64 returns the active backend's float64 register tile. The
// generic and NEON kernels walk packed panels only (lda = mr, ldb = nr).
func tile64() tileKernel[float64] {
	t := tileKernel[float64]{mr: kernelMR(), nr: kernelNR(), inPlace: kernelInPlace()}
	switch {
	case useAVX512:
		t.run = func(kc int, ap []float64, lda int, bp []float64, ldb int, c []float64, ldc int, first bool) {
			micro8x8avx512(kc, &ap[0], lda, &bp[0], ldb, &c[0], ldc, first)
		}
	case useAVX:
		t.run = func(kc int, ap []float64, lda int, bp []float64, ldb int, c []float64, ldc int, first bool) {
			micro4x4avx(kc, &ap[0], lda, &bp[0], ldb, &c[0], ldc, first)
		}
	case useNEON:
		t.run = func(kc int, ap []float64, _ int, bp []float64, _ int, c []float64, ldc int, first bool) {
			microNeon4x4(kc, &ap[0], &bp[0], &c[0], ldc, first)
		}
	default:
		t.run = func(kc int, ap []float64, _ int, bp []float64, _ int, c []float64, ldc int, first bool) {
			micro4x4G(kc, ap, bp, c, ldc, first)
		}
	}
	return t
}

// inPlacePlan is the in-place-or-pack rule for this tile. It depends
// only on the variant, the product's shape and the backend, never on the
// row range a stripe covers, so every stripe of a product takes the
// same path (and the path cannot change a bit either way).
//
//   - Only operands that are already contiguous along the tile qualify:
//     op(b) for NN and AT (row p of b holds op(b)[p][:]), and op(a) for
//     AT (row p of a holds op(a)[:][p]). Transposed operands — A for NN
//     and BT, B for BT — are always packed.
//   - B is read in place when op(a) spans at most inPlaceRowTiles row
//     tiles. Packing B costs one pass over k·n elements and pays back
//     only through reuse by every row tile; at batch-size M (the
//     paper's b = 10 is two 8-row tiles, three 4-row ones) the pass
//     costs as much as the kernel, while at large M the packed panel's
//     contiguous, L1-resident tiles win over strided rows.
//   - A is read in place when op(b) spans at most inPlaceColTiles column
//     tiles, by the same argument with the roles swapped: a packed A
//     tile is reused by every column tile. Neither M nor K enters: per
//     kc panel each A tile is read by at most inPlaceColTiles kernels
//     either way, so packing only adds a pass, however long the strided
//     rows (the conv weight gradients, K in the thousands, measured
//     faster in place; see inPlaceColTiles).
//   - Both qualifying operands are read in place, whatever M and N,
//     when K is at most inPlaceMaxK: the batch-size reductions of the
//     weight gradients xᵀ·g (K = 10 in client training), where each
//     packed tile would be as short as the pass that packs it.
//   - The kernel must honour the per-k strides (kernelInPlace): the
//     generic and NEON tiles pack everything.
//
// Partial edge tiles are always packed, zero-padded (see the file
// comment).
func (t tileKernel[E]) inPlacePlan(v gemmVariant, m, k, n int) (aIn, bIn bool) {
	if !t.inPlace {
		return false, false
	}
	aIn = v == gemmAT && (n <= inPlaceColTiles*t.nr || k <= inPlaceMaxK)
	bIn = v != gemmBT && (m <= inPlaceRowTiles*t.mr || k <= inPlaceMaxK)
	return aIn, bIn
}

// gemmBlockedRangeG is the blocked GEMM at either width: output rows
// [rs, re) of dd = op(a)·op(b), with a aR×aC and b bR×bC physically.
// Full tiles of an operand the plan reads in place go to the kernel
// straight from ad/bd with the operand's row length as their per-k
// stride; every other tile comes from the packed panels ap/bp, stride
// mr/nr. The packers then fill only the tiles that are not read in
// place, starting at the front of the scratch.
func gemmBlockedRangeG[E Elem](dd, ad []E, aR, aC int, bd []E, bR, bC int, v gemmVariant, rs, re int, ap, bp []E, t tileKernel[E]) {
	m, k, n := gemmDims(aR, aC, bR, bC, v)
	mr, nr := t.mr, t.nr
	aIn, bIn := t.inPlacePlan(v, m, k, n)
	bFull := 0 // leading column tiles of op(b) read in place
	if bIn {
		bFull = n / nr
	}
	wb := ap[len(ap)-edgeMR*edgeNR:]
	nTiles := (n + nr - 1) / nr
	for p0 := 0; p0 < k; p0 += kcBlock {
		kc := min(k-p0, kcBlock)
		packBG(bp, bd, bR, bC, v, p0, kc, bFull*nr, n, nr)
		first := p0 == 0
		for i0 := rs; i0 < re; i0 += mcBlock {
			ib := min(re-i0, mcBlock)
			aFull := 0 // leading row tiles of this block read in place
			if aIn {
				aFull = ib / mr
			}
			packAG(ap, ad, aR, aC, v, i0+aFull*mr, ib-aFull*mr, p0, kc, mr)
			mTiles := (ib + mr - 1) / mr
			for it := 0; it < mTiles; it++ {
				mv := min(ib-it*mr, mr)
				row0 := i0 + it*mr
				var apTile []E
				lda := mr
				if it < aFull {
					off := p0*aC + row0
					apTile, lda = ad[off:off+(kc-1)*aC+mr], aC
				} else {
					apTile = ap[(it-aFull)*kc*mr:]
				}
				for jt := 0; jt < nTiles; jt++ {
					nv := min(n-jt*nr, nr)
					var bpTile []E
					ldb := nr
					if jt < bFull {
						off := p0*bC + jt*nr
						bpTile, ldb = bd[off:off+(kc-1)*bC+nr], bC
					} else {
						bpTile = bp[(jt-bFull)*kc*nr:]
					}
					out := dd[row0*n+jt*nr:]
					c, ldc := out, n
					edge := mv < mr || nv < nr
					if edge {
						c, ldc = wb, nr
						if !first {
							tileLoadG(wb, out, n, mv, nv, nr)
						}
					}
					t.run(kc, apTile, lda, bpTile, ldb, c, ldc, first)
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
