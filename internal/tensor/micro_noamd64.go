//go:build !amd64

package tensor

// amd64 vector kernels are never called when useAVX512/useAVX are false.

func micro4x4avx(kc int, ap *float64, lda int, bp *float64, ldb int, c *float64, ldc int, first bool) {
	panic("tensor: AVX micro-kernel called on non-amd64")
}

func micro8x8avx512(kc int, ap *float64, lda int, bp *float64, ldb int, c *float64, ldc int, first bool) {
	panic("tensor: AVX-512 micro-kernel called on non-amd64")
}

func axpyAVX(alpha float64, x, y *float64, n int) {
	panic("tensor: AVX kernel called on non-amd64")
}

func axpyAVX512(alpha float64, x, y *float64, n int) {
	panic("tensor: AVX-512 kernel called on non-amd64")
}

func scaleAVX(alpha float64, x *float64, n int) {
	panic("tensor: AVX kernel called on non-amd64")
}

func scaleAVX512(alpha float64, x *float64, n int) {
	panic("tensor: AVX-512 kernel called on non-amd64")
}

func addAVX(x, y *float64, n int) {
	panic("tensor: AVX kernel called on non-amd64")
}

func addAVX512(x, y *float64, n int) {
	panic("tensor: AVX-512 kernel called on non-amd64")
}

func reluFwdAVX(x, out *float64, n int) {
	panic("tensor: AVX kernel called on non-amd64")
}

func reluBwdAVX(x, grad, out *float64, n int) {
	panic("tensor: AVX kernel called on non-amd64")
}

func leakyFwdAVX(alpha float64, x, out *float64, n int) {
	panic("tensor: AVX kernel called on non-amd64")
}

func leakyBwdAVX(alpha float64, x, grad, out *float64, n int) {
	panic("tensor: AVX kernel called on non-amd64")
}

func micro4x8avxF32(kc int, ap *float32, lda int, bp *float32, ldb int, c *float32, ldc int, first bool) {
	panic("tensor: AVX f32 micro-kernel called on non-amd64")
}

func micro8x16avx512F32(kc int, ap *float32, lda int, bp *float32, ldb int, c *float32, ldc int, first bool) {
	panic("tensor: AVX-512 f32 micro-kernel called on non-amd64")
}

func axpyAVXF32(alpha float32, x, y *float32, n int) {
	panic("tensor: AVX f32 kernel called on non-amd64")
}

func axpyAVX512F32(alpha float32, x, y *float32, n int) {
	panic("tensor: AVX-512 f32 kernel called on non-amd64")
}

func scaleAVXF32(alpha float32, x *float32, n int) {
	panic("tensor: AVX f32 kernel called on non-amd64")
}

func scaleAVX512F32(alpha float32, x *float32, n int) {
	panic("tensor: AVX-512 f32 kernel called on non-amd64")
}

func addAVXF32(x, y *float32, n int) {
	panic("tensor: AVX f32 kernel called on non-amd64")
}

func addAVX512F32(x, y *float32, n int) {
	panic("tensor: AVX-512 f32 kernel called on non-amd64")
}

func reluFwdAVXF32(x, out *float32, n int) {
	panic("tensor: AVX f32 kernel called on non-amd64")
}

func reluBwdAVXF32(x, grad, out *float32, n int) {
	panic("tensor: AVX f32 kernel called on non-amd64")
}
