//go:build amd64

package tensor

// cpuHasAVX reports whether the CPU and OS support AVX (CPUID feature
// bit plus XGETBV state check). Implemented in micro_amd64.s.
func cpuHasAVX() bool

// cpuHasAVX512 reports whether the CPU and OS support AVX-512F: OSXSAVE,
// XCR0 opmask/ZMM state enabled by the OS (mask 0xe6), and the AVX512F
// CPUID leaf-7 feature bit. Implemented in micro_amd64.s.
func cpuHasAVX512() bool

// detectBackends probes the host once at init (backend.go): amd64 offers
// avx512 and avx tiers, never neon.
func detectBackends() (avx512, avx, neon bool) {
	avx = cpuHasAVX()
	avx512 = avx && cpuHasAVX512()
	return avx512, avx, false
}

// The GEMM micro-kernels take one per-k stride per operand panel: step p
// reads the tile's A values at ap[p*lda:] and its B vector at
// bp[p*ldb:]. A packed panel is the case lda = mr, ldb = nr; a tile read
// in place from a row-major operand passes that operand's row length
// (blocked.go decides which).

// micro4x4avx is the AVX implementation of the full-tile micro-kernel.
// It is bit-identical to micro4x4G: each lane multiplies then adds with
// one rounding per operation, never fusing. Implemented in
// micro_amd64.s.
func micro4x4avx(kc int, ap *float64, lda int, bp *float64, ldb int, c *float64, ldc int, first bool)

// micro8x8avx512 is the AVX-512 full-tile micro-kernel: one 8×8 output
// tile held in eight ZMM accumulators across the panel, VMULPD + VADDPD
// per row (never fused), bit-identical to an 8×8 walk of the scalar
// kernel. Implemented in micro_amd64.s.
func micro8x8avx512(kc int, ap *float64, lda int, bp *float64, ldb int, c *float64, ldc int, first bool)

// Elementwise vector bodies (micro_amd64.s). Each processes exactly n
// elements where the Go wrapper in elemwise.go guarantees n is a
// positive multiple of the lane width (4 for AVX, 8 for AVX-512) and
// handles the scalar tail. All are multiply-round/add-round per element,
// bit-identical to the scalar loops.
func axpyAVX(alpha float64, x, y *float64, n int)
func axpyAVX512(alpha float64, x, y *float64, n int)
func scaleAVX(alpha float64, x *float64, n int)
func scaleAVX512(alpha float64, x *float64, n int)
func addAVX(x, y *float64, n int)
func addAVX512(x, y *float64, n int)

// Activation kernels run 4-wide YMM on both amd64 tiers (the avx512 tier
// reuses them: activations are bandwidth-bound, so wider vectors buy
// little, and the NaN-exact compare masks are simplest in one encoding).
func reluFwdAVX(x, out *float64, n int)
func reluBwdAVX(x, grad, out *float64, n int)
func leakyFwdAVX(alpha float64, x, out *float64, n int)
func leakyBwdAVX(alpha float64, x, grad, out *float64, n int)

// Float32 micro-kernels (micro_amd64.s). Same determinism contract at
// half width: VMULPS then VADDPS, one rounding each, never fused, so
// every tier is bit-identical to the generic float32 core.

// micro4x8avxF32 computes one full 4×8 float32 output tile over a
// kc-long panel: four rows in four YMM accumulators (8 floats each), one
// broadcast per A value against the step's B vector.
func micro4x8avxF32(kc int, ap *float32, lda int, bp *float32, ldb int, c *float32, ldc int, first bool)

// micro8x16avx512F32 computes one full 8×16 float32 output tile: eight
// rows in eight ZMM accumulators (16 floats each).
func micro8x16avx512F32(kc int, ap *float32, lda int, bp *float32, ldb int, c *float32, ldc int, first bool)

// Float32 elementwise vector bodies. n is a positive multiple of the
// lane width (8 for AVX YMM, 16 for AVX-512 ZMM); wrappers in
// elemwise32.go enforce it and run the generic tail.
func axpyAVXF32(alpha float32, x, y *float32, n int)
func axpyAVX512F32(alpha float32, x, y *float32, n int)
func scaleAVXF32(alpha float32, x *float32, n int)
func scaleAVX512F32(alpha float32, x *float32, n int)
func addAVXF32(x, y *float32, n int)
func addAVX512F32(x, y *float32, n int)

// Float32 activation kernels run 8-wide YMM on both amd64 tiers,
// mirroring the float64 policy (bandwidth-bound; one NaN-exact
// encoding).
func reluFwdAVXF32(x, out *float32, n int)
func reluBwdAVXF32(x, grad, out *float32, n int)
