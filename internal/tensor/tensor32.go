package tensor

import "fmt"

// Tensor32 is the float32 storage arm of the numeric substrate: a
// dense, row-major float32 tensor mirroring Tensor's surface (shape
// queries, element access, zero-alloc Bind2D rebinding) with its own
// blocked GEMM (blocked32.go) and SIMD elementwise layer
// (elemwise32.go). The two arms share one generic scalar core
// (generic.go), so every float32 kernel obeys the same determinism
// contract as its float64 twin: one rounding per multiply, one per add,
// never fused, each output element on a single ascending-k chain —
// bit-identical across backends and worker counts within f32 mode.
type Tensor32 struct {
	Shape []int
	Data  []float32
}

// New32 returns a zero float32 tensor with the given shape. Every
// dimension must be positive.
func New32(shape ...int) *Tensor32 {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return &Tensor32{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// FromSlice32 wraps data in a float32 tensor of the given shape. The
// slice is used directly (not copied); its length must equal the
// shape's volume.
func FromSlice32(data []float32, shape ...int) *Tensor32 {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (need %d)", len(data), shape, n))
	}
	return &Tensor32{Shape: append([]int(nil), shape...), Data: data}
}

// Bind2D repoints the tensor at data with shape (rows, cols) without
// allocating — the float32 twin of (*Tensor).Bind2D.
func (t *Tensor32) Bind2D(data []float32, rows, cols int) *Tensor32 {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("tensor: non-positive dimension in shape [%d %d]", rows, cols))
	}
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d does not match shape [%d %d] (need %d)", len(data), rows, cols, rows*cols))
	}
	if len(t.Shape) != 2 {
		t.Shape = make([]int, 2)
	}
	t.Shape[0], t.Shape[1] = rows, cols
	t.Data = data
	return t
}

// Len returns the total number of elements.
func (t *Tensor32) Len() int { return len(t.Data) }

// Dims returns the number of axes.
func (t *Tensor32) Dims() int { return len(t.Shape) }

// Rows returns the number of rows of a 2-D tensor.
func (t *Tensor32) Rows() int { t.want2D(); return t.Shape[0] }

// Cols returns the number of columns of a 2-D tensor.
func (t *Tensor32) Cols() int { t.want2D(); return t.Shape[1] }

func (t *Tensor32) want2D() {
	if len(t.Shape) != 2 {
		panic(fmt.Sprintf("tensor: expected 2-D tensor, have shape %v", t.Shape))
	}
}

// At returns element (i, j) of a 2-D tensor.
func (t *Tensor32) At(i, j int) float32 {
	t.want2D()
	return t.Data[i*t.Shape[1]+j]
}

// Set assigns element (i, j) of a 2-D tensor.
func (t *Tensor32) Set(i, j int, v float32) {
	t.want2D()
	t.Data[i*t.Shape[1]+j] = v
}

// Row returns a view (not a copy) of row i of a 2-D tensor.
func (t *Tensor32) Row(i int) []float32 {
	t.want2D()
	c := t.Shape[1]
	return t.Data[i*c : (i+1)*c]
}

// Clone returns a deep copy.
func (t *Tensor32) Clone() *Tensor32 {
	c := &Tensor32{Shape: append([]int(nil), t.Shape...), Data: make([]float32, len(t.Data))}
	copy(c.Data, t.Data)
	return c
}

// Zero sets all elements to 0.
func (t *Tensor32) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor32) SameShape(o *Tensor32) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i, d := range t.Shape {
		if o.Shape[i] != d {
			return false
		}
	}
	return true
}

// MatMul32 returns a·b for 2-D float32 tensors a (m×k) and b (k×n).
func MatMul32(a, b *Tensor32) *Tensor32 {
	out := New32(a.Rows(), b.Cols())
	MatMul32Into(out, a, b)
	return out
}

// MatMul32Into computes dst ← a·b. dst must be m×n and distinct from a
// and b.
func MatMul32Into(dst, a, b *Tensor32) {
	m, ka := a.Rows(), a.Cols()
	kb, n := b.Rows(), b.Cols()
	if ka != kb {
		panic(fmt.Sprintf("tensor: MatMul32 inner dimension mismatch %d vs %d", ka, kb))
	}
	if dst.Rows() != m || dst.Cols() != n {
		panic(fmt.Sprintf("tensor: MatMul32Into dst shape %v, want (%d,%d)", dst.Shape, m, n))
	}
	if dst == a || dst == b {
		panic("tensor: MatMul32Into dst aliases an input")
	}
	gemmInto32(dst, a, b, gemmNN)
}

// MatMulNaive32Into computes dst ← a·b with the unblocked reference
// triple loop — the kernel the blocked f32 path is bit-identical to.
func MatMulNaive32Into(dst, a, b *Tensor32) {
	m, ka := a.Rows(), a.Cols()
	kb, n := b.Rows(), b.Cols()
	if ka != kb {
		panic(fmt.Sprintf("tensor: MatMul32 inner dimension mismatch %d vs %d", ka, kb))
	}
	if dst.Rows() != m || dst.Cols() != n {
		panic(fmt.Sprintf("tensor: MatMulNaive32Into dst shape %v, want (%d,%d)", dst.Shape, m, n))
	}
	if dst == a || dst == b {
		panic("tensor: MatMulNaive32Into dst aliases an input")
	}
	gemmNaive32(dst, a, b, gemmNN)
}

// MatMulAT32Into computes dst ← aᵀ·b for a (m×k), b (m×n), dst (k×n).
func MatMulAT32Into(dst, a, b *Tensor32) {
	m, k := a.Rows(), a.Cols()
	mb, n := b.Rows(), b.Cols()
	if m != mb {
		panic(fmt.Sprintf("tensor: MatMulAT32 outer dimension mismatch %d vs %d", m, mb))
	}
	if dst.Rows() != k || dst.Cols() != n {
		panic(fmt.Sprintf("tensor: MatMulAT32Into dst shape %v, want (%d,%d)", dst.Shape, k, n))
	}
	if dst == a || dst == b {
		panic("tensor: MatMulAT32Into dst aliases an input")
	}
	gemmInto32(dst, a, b, gemmAT)
}

// MatMulBT32Into computes dst ← a·bᵀ for a (m×k), b (n×k), dst (m×n).
func MatMulBT32Into(dst, a, b *Tensor32) {
	m, k := a.Rows(), a.Cols()
	n, kb := b.Rows(), b.Cols()
	if k != kb {
		panic(fmt.Sprintf("tensor: MatMulBT32 inner dimension mismatch %d vs %d", k, kb))
	}
	if dst.Rows() != m || dst.Cols() != n {
		panic(fmt.Sprintf("tensor: MatMulBT32Into dst shape %v, want (%d,%d)", dst.Shape, m, n))
	}
	if dst == a || dst == b {
		panic("tensor: MatMulBT32Into dst aliases an input")
	}
	gemmInto32(dst, a, b, gemmBT)
}

// Im2Col32 lowers one float32 image (flattened CHW layout) into a
// column matrix — the float32 twin of Im2Col, sharing im2colCoreG.
func Im2Col32(g ConvGeom, img []float32, cols *Tensor32) {
	g.Validate()
	if len(img) != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Im2Col32 image length %d, want %d", len(img), g.InC*g.InH*g.InW))
	}
	oh, ow := g.OutH(), g.OutW()
	patch := g.InC * g.K * g.K
	if cols.Rows() != oh*ow || cols.Cols() != patch {
		panic(fmt.Sprintf("tensor: Im2Col32 cols shape %v, want (%d,%d)", cols.Shape, oh*ow, patch))
	}
	im2colCoreG(g, img, cols.Data)
}

// Col2Im32 accumulates the float32 column-matrix gradient back into an
// image gradient (the adjoint of Im2Col32). img is accumulated into,
// not zeroed.
func Col2Im32(g ConvGeom, cols *Tensor32, img []float32) {
	g.Validate()
	if len(img) != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Col2Im32 image length %d, want %d", len(img), g.InC*g.InH*g.InW))
	}
	oh, ow := g.OutH(), g.OutW()
	patch := g.InC * g.K * g.K
	if cols.Rows() != oh*ow || cols.Cols() != patch {
		panic(fmt.Sprintf("tensor: Col2Im32 cols shape %v, want (%d,%d)", cols.Shape, oh*ow, patch))
	}
	col2imCoreG(g, cols.Data, img)
}

// Widen converts src exactly into float64, reusing dst when it has the
// capacity. Every float32 is exactly representable in float64, so the
// conversion is deterministic and lossless: Quantize(Widen(v)) == v bit
// for bit, including NaN payloads, signed zeros and denormals.
func Widen(dst []float64, src []float32) []float64 {
	if cap(dst) < len(src) {
		dst = make([]float64, len(src))
	}
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = float64(v)
	}
	return dst
}

// Quantize converts src to float32 with one round-to-nearest-even per
// element (the hardware conversion), reusing dst when it has the
// capacity. This is the only lossy step of f32 mode, and it is
// deterministic: the result depends only on src values, never on
// backend or worker count.
func Quantize(dst []float32, src []float64) []float32 {
	if cap(dst) < len(src) {
		dst = make([]float32, len(src))
	}
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = float32(v)
	}
	return dst
}

// QuantizeLattice rounds v in place onto the float32 lattice:
// v[i] = float64(float32(v[i])). After it, Widen(Quantize(v)) == v, so
// a float64-carried vector is exactly representable at half width —
// the invariant the fl package's f32 mode maintains for the global
// model between rounds.
func QuantizeLattice(v []float64) {
	for i, x := range v {
		v[i] = float64(float32(x))
	}
}
