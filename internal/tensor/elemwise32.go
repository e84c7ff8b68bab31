package tensor

// Vectorized float32 elementwise kernels behind the same backend
// dispatch as the float64 layer (elemwise.go). The f32 lanes are twice
// as wide per vector — 16 on avx512 ZMM, 8 on avx YMM — which is the
// whole point of f32 mode on bandwidth-bound slices: the same cache
// traffic moves twice the elements. Scalar tails come from the shared
// generic core (generic.go), so both widths have one source of truth
// for the per-element semantics.
//
// Determinism: per-element independent, one rounding per multiply
// (VMULPS) and one per add (VADDPS), never fused — bit-identical to the
// generic scalar loops on every backend. NaN-exact activation masks use
// the same predicates as the float64 kernels (VCMPPS NLE_US).
//
// Aliasing: out may be exactly x (or g) or fully disjoint; partial
// overlap is not supported.

// Axpy32 computes y[i] += alpha·x[i] over len(x) float32 elements
// (len(y) must be at least len(x)).
func Axpy32(alpha float32, x, y []float32) {
	n := len(x)
	y = y[:n]
	i := 0
	switch {
	case useAVX512:
		if v := n &^ 15; v > 0 {
			axpyAVX512F32(alpha, &x[0], &y[0], v)
			i = v
		}
	case useAVX:
		if v := n &^ 7; v > 0 {
			axpyAVXF32(alpha, &x[0], &y[0], v)
			i = v
		}
	}
	axpyTailG(alpha, x, y, i)
}

// Scale32 computes x[i] *= alpha in place.
func Scale32(alpha float32, x []float32) {
	n := len(x)
	i := 0
	switch {
	case useAVX512:
		if v := n &^ 15; v > 0 {
			scaleAVX512F32(alpha, &x[0], v)
			i = v
		}
	case useAVX:
		if v := n &^ 7; v > 0 {
			scaleAVXF32(alpha, &x[0], v)
			i = v
		}
	}
	scaleTailG(alpha, x, i)
}

// Add32 computes y[i] += x[i] over len(x) elements.
func Add32(x, y []float32) {
	n := len(x)
	y = y[:n]
	i := 0
	switch {
	case useAVX512:
		if v := n &^ 15; v > 0 {
			addAVX512F32(&x[0], &y[0], v)
			i = v
		}
	case useAVX:
		if v := n &^ 7; v > 0 {
			addAVXF32(&x[0], &y[0], v)
			i = v
		}
	}
	addTailG(x, y, i)
}

// ReLUForward32 computes out[i] = x[i] if x[i] > 0 else 0, keeping NaN
// inputs (scalar branch semantics: zero only when v <= 0). Like the
// float64 activations, both amd64 tiers run the 8-wide YMM body —
// activations are bandwidth-bound and the NaN-exact compare masks are
// simplest in one encoding.
func ReLUForward32(x, out []float32) {
	n := len(x)
	out = out[:n]
	i := 0
	if useAVX || useAVX512 {
		if v := n &^ 7; v > 0 {
			reluFwdAVXF32(&x[0], &out[0], v)
			i = v
		}
	}
	reluFwdTailG(x, out, i)
}

// ReLUBackward32 computes out[i] = g[i] if x[i] > 0 else 0, passing the
// gradient through for NaN x (scalar branch semantics).
func ReLUBackward32(x, g, out []float32) {
	n := len(x)
	g, out = g[:n], out[:n]
	i := 0
	if useAVX || useAVX512 {
		if v := n &^ 7; v > 0 {
			reluBwdAVXF32(&x[0], &g[0], &out[0], v)
			i = v
		}
	}
	reluBwdTailG(x, g, out, i)
}

// LeakyReLUForward32 computes out[i] = alpha·x[i] if x[i] < 0 else x[i]
// (NaN inputs pass through unscaled, matching the scalar branch). The
// generic core serves every backend: the f32 leaky path has no hot
// caller, so it rides the shared scalar body.
func LeakyReLUForward32(alpha float32, x, out []float32) {
	out = out[:len(x)]
	leakyFwdTailG(alpha, x, out, 0)
}

// LeakyReLUBackward32 computes out[i] = alpha·g[i] if x[i] < 0 else
// g[i].
func LeakyReLUBackward32(alpha float32, x, g, out []float32) {
	g, out = g[:len(x)], out[:len(x)]
	leakyBwdTailG(alpha, x, g, out, 0)
}
