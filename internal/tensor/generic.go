package tensor

// Generic element core shared by the float64 and float32 storage arms.
// Every scalar kernel — the naive GEMM reference loops, the packing
// routines, the portable register-tile micro-kernels, the elementwise
// bodies and the im2col/col2im lowering — is written once over the Elem
// constraint and instantiated at both widths, so the two precisions
// cannot drift: a fix or a determinism-contract change lands in one
// place.
//
// Determinism: the multiply-adds are spelled acc += E(a*b). The explicit
// conversion — even to the operand's own type — forces the product to
// round to E before the add, which by the Go spec forbids the compiler
// from contracting the pair into a fused multiply-add. This is exactly
// the float64(a*b) idiom the pre-generic kernels used (see blocked.go);
// it survives instantiation because each width compiles to its own
// concrete body containing the same explicit conversion.

// Elem is the element-type constraint of the generic kernel core: the
// two precisions the numeric substrate supports.
type Elem interface {
	~float32 | ~float64
}

const (
	// edgeMR × edgeNR bounds the register tile across every backend and
	// element width (the f32 avx512 kernel's 8×16 is the largest); the
	// write-back tile of partial edge tiles is sized with it.
	edgeMR = 8
	edgeNR = 16
)

// gemmNaiveG computes dst = op(a)·op(b) with plain triple loops over raw
// row-major storage — the reference every blocked path must match bit
// for bit. a is aR×aC, b is bR×bC physically; the variant defines the
// logical operands. Every output element accumulates its terms in
// ascending reduction order with no zero-skip branches.
func gemmNaiveG[E Elem](dd, ad []E, aR, aC int, bd []E, bR, bC int, v gemmVariant) {
	switch v {
	case gemmNN:
		m, k, n := aR, aC, bC
		for i := 0; i < m; i++ {
			di := dd[i*n : (i+1)*n]
			for x := range di {
				di[x] = 0
			}
			ai := ad[i*k : (i+1)*k]
			for p, av := range ai {
				bp := bd[p*n : (p+1)*n]
				for j, bv := range bp {
					di[j] += E(av * bv)
				}
			}
		}
	case gemmAT:
		m, k := aR, aC
		n := bC
		for x := range dd[:k*n] {
			dd[x] = 0
		}
		for i := 0; i < m; i++ {
			ai := ad[i*k : (i+1)*k]
			bi := bd[i*n : (i+1)*n]
			for p, av := range ai {
				dp := dd[p*n : (p+1)*n]
				for j, bv := range bi {
					dp[j] += E(av * bv)
				}
			}
		}
	case gemmBT:
		m, k, n := aR, aC, bR
		for i := 0; i < m; i++ {
			ai := ad[i*k : (i+1)*k]
			di := dd[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				bj := bd[j*k : (j+1)*k]
				var sum E
				for p, av := range ai {
					sum += E(av * bj[p])
				}
				di[j] = sum
			}
		}
	}
}

// packBG packs columns [j0, n) of the reduction panel [p0, p0+kc) of
// op(b) into nr-wide column tiles, the first at bp[0]:
// bp[t*kc*nr + p*nr + c] = op(b)[p0+p][j0+t*nr+c]. b is bR×bC
// physically. The padding columns of a partial edge tile are
// zero-filled, so the full-tile micro-kernel can run over it
// (blocked.go). j0 is a multiple of nr: the column tiles before it are
// read in place.
func packBG[E Elem](bp, bd []E, bR, bC int, v gemmVariant, p0, kc, j0, n, nr int) {
	if j0 >= n {
		return
	}
	if v == gemmBT {
		// op(b)[p][j] = b[j][p]; b is n×k, rows contiguous in p.
		for jt, j := 0, j0; j < n; jt, j = jt+1, j+nr {
			packTransposedG(bp[jt*kc*nr:(jt+1)*kc*nr], bd[j*bC+p0:], bC, min(n-j, nr), kc, nr)
		}
		return
	}
	// op(b)[p][j] = b[p][j] for both NN and AT: stream each row of the
	// panel once, scattering it across the column tiles.
	for p := 0; p < kc; p++ {
		row := bd[(p0+p)*n : (p0+p+1)*n]
		for jt, j := 0, j0; j < n; jt, j = jt+1, j+nr {
			off := jt*kc*nr + p*nr
			copyTileRowG(bp[off:off+nr], row[j:min(j+nr, n)])
		}
	}
}

// packAG packs rows [i0, i0+ib) of op(a) over the reduction panel
// [p0, p0+kc) into mr-tall row tiles:
// ap[tile*kc*mr + p*mr + r] = op(a)[tile*mr+r][p0+p].
// a is aR×aC physically. The padding rows [mv, mr) of a partial edge
// tile are zero-filled, like packBG's padding columns.
func packAG[E Elem](ap, ad []E, aR, aC int, v gemmVariant, i0, ib, p0, kc, mr int) {
	for it := 0; it*mr < ib; it++ {
		r0 := i0 + it*mr
		mv := min(ib-it*mr, mr)
		tile := ap[it*kc*mr : (it+1)*kc*mr]
		if v != gemmAT {
			// op(a)[i][p] = a[i][p] for both NN and BT.
			packTransposedG(tile, ad[r0*aC+p0:], aC, mv, kc, mr)
			continue
		}
		// op(a)[i][p] = a[p][i]; a is k×m, rows contiguous in i.
		for p := 0; p < kc; p++ {
			src := ad[(p0+p)*aC+r0:]
			copyTileRowG(tile[p*mr:(p+1)*mr], src[:mv])
		}
	}
}

// copyTileRowG copies src into the packed tile row dst (len(src) ≤
// len(dst)) and zero-fills the padding lanes past len(src). Full rows
// of the backends' tile widths move as one fixed-size block.
func copyTileRowG[E Elem](dst, src []E) {
	switch {
	case len(src) == 8 && len(dst) == 8:
		*(*[8]E)(dst) = *(*[8]E)(src)
	case len(src) == 16 && len(dst) == 16:
		*(*[16]E)(dst) = *(*[16]E)(src)
	case len(src) == 4 && len(dst) == 4:
		*(*[4]E)(dst) = *(*[4]E)(src)
	default:
		clear(dst[copy(dst, src):])
	}
}

// packTransposedG fills the w-wide packed tile rows dst[p*w:(p+1)*w],
// p in [0, kc), with element p of each of the rows source rows
// src[r*ld:] and zeros in the padding lanes [rows, w). Groups of eight
// source rows go through transpose8G, which writes each packed row
// sequentially.
func packTransposedG[E Elem](dst, src []E, ld, rows, kc, w int) {
	r := 0
	for ; r+8 <= rows; r += 8 {
		transpose8G(dst[r:], src[r*ld:], ld, kc, w)
	}
	for ; r < rows; r++ {
		s := src[r*ld : r*ld+kc]
		d := dst[r:]
		for p, x := range s {
			d[p*w] = x
		}
	}
	for ; r < w; r++ {
		d := dst[r:]
		for p := 0; p < kc; p++ {
			d[p*w] = 0
		}
	}
}

// transpose8G writes element p of the eight source rows src[r*ld:]
// (r < 8) to dst[p*w : p*w+8] for p in [0, kc).
func transpose8G[E Elem](dst, src []E, ld, kc, w int) {
	s0 := src[:kc]
	s1 := src[ld : ld+kc][:len(s0)]
	s2 := src[2*ld : 2*ld+kc][:len(s0)]
	s3 := src[3*ld : 3*ld+kc][:len(s0)]
	s4 := src[4*ld : 4*ld+kc][:len(s0)]
	s5 := src[5*ld : 5*ld+kc][:len(s0)]
	s6 := src[6*ld : 6*ld+kc][:len(s0)]
	s7 := src[7*ld : 7*ld+kc][:len(s0)]
	for p := range s0 {
		d := (*[8]E)(dst[p*w : p*w+8])
		d[0], d[1], d[2], d[3] = s0[p], s1[p], s2[p], s3[p]
		d[4], d[5], d[6], d[7] = s4[p], s5[p], s6[p], s7[p]
	}
}

// micro4x4G computes one full 4×4 output tile over a kc-long packed
// panel — the portable register-tile micro-kernel both widths fall back
// to when no vector kernel applies. c points at the tile's top-left
// element of the row-major output with leading dimension ldc. first
// selects overwrite (panel 0) versus accumulate-on-top (later panels).
func micro4x4G[E Elem](kc int, ap, bp, c []E, ldc int, first bool) {
	var c00, c01, c02, c03 E
	var c10, c11, c12, c13 E
	var c20, c21, c22, c23 E
	var c30, c31, c32, c33 E
	r1, r2, r3 := c[ldc:], c[2*ldc:], c[3*ldc:]
	if !first {
		c00, c01, c02, c03 = c[0], c[1], c[2], c[3]
		c10, c11, c12, c13 = r1[0], r1[1], r1[2], r1[3]
		c20, c21, c22, c23 = r2[0], r2[1], r2[2], r2[3]
		c30, c31, c32, c33 = r3[0], r3[1], r3[2], r3[3]
	}
	ap = ap[: kc*4 : kc*4]
	bp = bp[: kc*4 : kc*4]
	for p := 0; p < kc; p++ {
		a0, a1, a2, a3 := ap[p*4], ap[p*4+1], ap[p*4+2], ap[p*4+3]
		b0, b1, b2, b3 := bp[p*4], bp[p*4+1], bp[p*4+2], bp[p*4+3]
		c00 += E(a0 * b0)
		c01 += E(a0 * b1)
		c02 += E(a0 * b2)
		c03 += E(a0 * b3)
		c10 += E(a1 * b0)
		c11 += E(a1 * b1)
		c12 += E(a1 * b2)
		c13 += E(a1 * b3)
		c20 += E(a2 * b0)
		c21 += E(a2 * b1)
		c22 += E(a2 * b2)
		c23 += E(a2 * b3)
		c30 += E(a3 * b0)
		c31 += E(a3 * b1)
		c32 += E(a3 * b2)
		c33 += E(a3 * b3)
	}
	c[0], c[1], c[2], c[3] = c00, c01, c02, c03
	r1[0], r1[1], r1[2], r1[3] = c10, c11, c12, c13
	r2[0], r2[1], r2[2], r2[3] = c20, c21, c22, c23
	r3[0], r3[1], r3[2], r3[3] = c30, c31, c32, c33
}

// tileLoadG copies the valid mv×nv region of the output tile at c
// (leading dimension ldc) into the nr-wide write-back tile wb, so an
// edge tile can accumulate on top of earlier panels.
func tileLoadG[E Elem](wb, c []E, ldc, mv, nv, nr int) {
	for r := 0; r < mv; r++ {
		copy(wb[r*nr:r*nr+nv], c[r*ldc:r*ldc+nv])
	}
}

// tileStoreG copies the valid mv×nv region of the write-back tile wb
// back to the output tile at c; the padding lanes are discarded.
func tileStoreG[E Elem](c, wb []E, ldc, mv, nv, nr int) {
	for r := 0; r < mv; r++ {
		copy(c[r*ldc:r*ldc+nv], wb[r*nr:r*nr+nv])
	}
}

// Elementwise scalar cores. The SIMD dispatch wrappers (elemwise.go,
// elemwise32.go) run these over the tail [i, len(x)) the vector body
// did not cover — or the whole slice on the generic backend. Per
// element they are multiply-round-then-add-round, never fused (the
// explicit E(·) conversion, see the package comment above).

// axpyTailG computes y[j] += alpha·x[j] for j in [i, len(x)).
func axpyTailG[E Elem](alpha E, x, y []E, i int) {
	for ; i < len(x); i++ {
		y[i] += E(alpha * x[i])
	}
}

// scaleTailG computes x[j] *= alpha for j in [i, len(x)).
func scaleTailG[E Elem](alpha E, x []E, i int) {
	for ; i < len(x); i++ {
		x[i] *= alpha
	}
}

// addTailG computes y[j] += x[j] for j in [i, len(x)).
func addTailG[E Elem](x, y []E, i int) {
	for ; i < len(x); i++ {
		y[i] += x[i]
	}
}

// reluFwdTailG computes out[j] = x[j] if x[j] > 0 else 0 for j in
// [i, len(x)), keeping NaN inputs (zero only when v <= 0).
func reluFwdTailG[E Elem](x, out []E, i int) {
	for ; i < len(x); i++ {
		if v := x[i]; v <= 0 {
			out[i] = 0
		} else {
			out[i] = v
		}
	}
}

// reluBwdTailG computes out[j] = g[j] if x[j] > 0 else 0 for j in
// [i, len(x)), passing the gradient through for NaN x.
func reluBwdTailG[E Elem](x, g, out []E, i int) {
	for ; i < len(x); i++ {
		if x[i] <= 0 {
			out[i] = 0
		} else {
			out[i] = g[i]
		}
	}
}

// leakyFwdTailG computes out[j] = alpha·x[j] if x[j] < 0 else x[j] for
// j in [i, len(x)) (NaN inputs pass through unscaled).
func leakyFwdTailG[E Elem](alpha E, x, out []E, i int) {
	for ; i < len(x); i++ {
		if v := x[i]; v < 0 {
			out[i] = E(alpha * v)
		} else {
			out[i] = v
		}
	}
}

// leakyBwdTailG computes out[j] = alpha·g[j] if x[j] < 0 else g[j] for
// j in [i, len(x)).
func leakyBwdTailG[E Elem](alpha E, x, g, out []E, i int) {
	for ; i < len(x); i++ {
		if x[i] < 0 {
			out[i] = E(g[i] * alpha)
		} else {
			out[i] = g[i]
		}
	}
}

// im2colCoreG fills cd (length OutH·OutW·InC·K·K) from one image.
func im2colCoreG[E Elem](g ConvGeom, img []E, cd []E) {
	oh, ow := g.OutH(), g.OutW()
	idx := 0
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			baseY := oy*g.Stride - g.Pad
			baseX := ox*g.Stride - g.Pad
			for c := 0; c < g.InC; c++ {
				chanOff := c * g.InH * g.InW
				for ky := 0; ky < g.K; ky++ {
					y := baseY + ky
					for kx := 0; kx < g.K; kx++ {
						x := baseX + kx
						if y >= 0 && y < g.InH && x >= 0 && x < g.InW {
							cd[idx] = img[chanOff+y*g.InW+x]
						} else {
							cd[idx] = 0
						}
						idx++
					}
				}
			}
		}
	}
}

// col2imCoreG accumulates cd (one sample's column block) into img.
func col2imCoreG[E Elem](g ConvGeom, cd []E, img []E) {
	oh, ow := g.OutH(), g.OutW()
	idx := 0
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			baseY := oy*g.Stride - g.Pad
			baseX := ox*g.Stride - g.Pad
			for c := 0; c < g.InC; c++ {
				chanOff := c * g.InH * g.InW
				for ky := 0; ky < g.K; ky++ {
					y := baseY + ky
					for kx := 0; kx < g.K; kx++ {
						x := baseX + kx
						if y >= 0 && y < g.InH && x >= 0 && x < g.InW {
							img[chanOff+y*g.InW+x] += cd[idx]
						}
						idx++
					}
				}
			}
		}
	}
}
