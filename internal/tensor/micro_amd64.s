// AVX micro-kernel for the blocked GEMM (see blocked.go). The kernel
// computes one full 4x4 output tile over a kc-long panel using
// VMULPD + VADDPD per lane — multiply-round-then-add-round, exactly the
// scalar semantics of the pure-Go kernels, so the vector path is
// bit-identical to them (no FMA: a fused multiply-add rounds once and
// would break the bit-identity contract).

#include "textflag.h"

// func cpuHasAVX() bool
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL	$1, AX
	XORL	CX, CX
	CPUID
	// Need OSXSAVE (ECX bit 27) and AVX (ECX bit 28).
	MOVL	CX, BX
	ANDL	$(1<<27 | 1<<28), BX
	CMPL	BX, $(1<<27 | 1<<28)
	JNE	noavx
	// XCR0 bits 1 and 2: OS preserves XMM and YMM state.
	XORL	CX, CX
	XGETBV
	ANDL	$6, AX
	CMPL	AX, $6
	JNE	noavx
	MOVB	$1, ret+0(FP)
	RET
noavx:
	MOVB	$0, ret+0(FP)
	RET

// func micro4x4avx(kc int, ap *float64, lda int, bp *float64, ldb int, c *float64, ldc int, first bool)
//
// Y0..Y3 hold the four output rows (4 doubles each) for the whole
// panel; each k step broadcasts the four A values of the step and
// issues one mul+add pair per row against the step's B vector. lda and
// ldb are the per-k strides of the A and B panels in elements (mr and nr
// for packed panels, the operand's row length when read in place).
// first selects zero-init (panel 0) versus accumulate-on-top of C.
TEXT ·micro4x4avx(SB), NOSPLIT, $0-57
	MOVQ	kc+0(FP), CX
	MOVQ	ap+8(FP), SI
	MOVQ	lda+16(FP), R10
	SHLQ	$3, R10             // lda in bytes
	MOVQ	bp+24(FP), DI
	MOVQ	ldb+32(FP), R11
	SHLQ	$3, R11             // ldb in bytes
	MOVQ	c+40(FP), DX
	MOVQ	ldc+48(FP), R8
	SHLQ	$3, R8              // ldc in bytes
	LEAQ	(DX)(R8*2), R9      // &c[2*ldc]
	MOVBLZX	first+56(FP), AX
	TESTB	AL, AL
	JZ	load
	VXORPD	Y0, Y0, Y0
	VXORPD	Y1, Y1, Y1
	VXORPD	Y2, Y2, Y2
	VXORPD	Y3, Y3, Y3
	JMP	kloop
load:
	VMOVUPD	(DX), Y0
	VMOVUPD	(DX)(R8*1), Y1
	VMOVUPD	(R9), Y2
	VMOVUPD	(R9)(R8*1), Y3
kloop:
	TESTQ	CX, CX
	JZ	done
	VMOVUPD	(DI), Y4
	VBROADCASTSD	(SI), Y5
	VBROADCASTSD	8(SI), Y6
	VBROADCASTSD	16(SI), Y7
	VBROADCASTSD	24(SI), Y8
	VMULPD	Y4, Y5, Y5
	VADDPD	Y5, Y0, Y0
	VMULPD	Y4, Y6, Y6
	VADDPD	Y6, Y1, Y1
	VMULPD	Y4, Y7, Y7
	VADDPD	Y7, Y2, Y2
	VMULPD	Y4, Y8, Y8
	VADDPD	Y8, Y3, Y3
	ADDQ	R10, SI
	ADDQ	R11, DI
	DECQ	CX
	JMP	kloop
done:
	VMOVUPD	Y0, (DX)
	VMOVUPD	Y1, (DX)(R8*1)
	VMOVUPD	Y2, (R9)
	VMOVUPD	Y3, (R9)(R8*1)
	VZEROUPPER
	RET

// func cpuHasAVX512() bool
TEXT ·cpuHasAVX512(SB), NOSPLIT, $0-1
	MOVL	$1, AX
	XORL	CX, CX
	CPUID
	// Need OSXSAVE (ECX bit 27) before XGETBV is meaningful.
	MOVL	CX, BX
	ANDL	$(1<<27), BX
	JZ	no512
	// XCR0 bits 1,2 (XMM/YMM) and 5,6,7 (opmask, ZMM_Hi256, Hi16_ZMM):
	// the OS preserves full AVX-512 state.
	XORL	CX, CX
	XGETBV
	ANDL	$0xe6, AX
	CMPL	AX, $0xe6
	JNE	no512
	// CPUID leaf 7 subleaf 0, EBX bit 16: AVX512F.
	MOVL	$7, AX
	XORL	CX, CX
	CPUID
	ANDL	$(1<<16), BX
	JZ	no512
	MOVB	$1, ret+0(FP)
	RET
no512:
	MOVB	$0, ret+0(FP)
	RET

// func micro8x8avx512(kc int, ap *float64, lda int, bp *float64, ldb int, c *float64, ldc int, first bool)
//
// Z0..Z7 hold the eight output rows (8 doubles each) for the whole
// panel; each k step broadcasts the eight A values of the step and
// issues one VMULPD+VADDPD pair per row against the step's B vector —
// multiply-round-then-add-round, never fused, so the tile is
// bit-identical to an 8×8 walk of the scalar kernel. lda and ldb are the
// per-k strides of the A and B panels in elements (8 for packed panels,
// the operand's row length when read in place). Zeroing uses VEX VXORPD
// (clears the full ZMM) so only AVX512F encodings are required.
TEXT ·micro8x8avx512(SB), NOSPLIT, $0-57
	MOVQ	kc+0(FP), CX
	MOVQ	ap+8(FP), SI
	MOVQ	lda+16(FP), R11
	SHLQ	$3, R11             // lda in bytes
	MOVQ	bp+24(FP), DI
	MOVQ	ldb+32(FP), R12
	SHLQ	$3, R12             // ldb in bytes
	MOVQ	c+40(FP), DX
	MOVQ	ldc+48(FP), R8
	SHLQ	$3, R8              // ldc in bytes
	LEAQ	(R8)(R8*2), R10     // 3*ldc bytes
	LEAQ	(DX)(R8*4), R9      // &c[4*ldc]
	MOVBLZX	first+56(FP), AX
	TESTB	AL, AL
	JZ	load8
	VXORPD	Y0, Y0, Y0
	VXORPD	Y1, Y1, Y1
	VXORPD	Y2, Y2, Y2
	VXORPD	Y3, Y3, Y3
	VXORPD	Y4, Y4, Y4
	VXORPD	Y5, Y5, Y5
	VXORPD	Y6, Y6, Y6
	VXORPD	Y7, Y7, Y7
	JMP	kloop8
load8:
	VMOVUPD	(DX), Z0
	VMOVUPD	(DX)(R8*1), Z1
	VMOVUPD	(DX)(R8*2), Z2
	VMOVUPD	(DX)(R10*1), Z3
	VMOVUPD	(R9), Z4
	VMOVUPD	(R9)(R8*1), Z5
	VMOVUPD	(R9)(R8*2), Z6
	VMOVUPD	(R9)(R10*1), Z7
	// k loop unrolled ×2 (same ascending-k operation order, so results
	// are unchanged); odd kc finishes with a single step. The second
	// step reads one stride further on and uses its own temporaries
	// (Z17..Z25) so the two halves can issue independently.
kloop8:
	CMPQ	CX, $2
	JLT	ktail8
	VMOVUPD	(DI), Z8
	VBROADCASTSD	(SI), Z9
	VBROADCASTSD	8(SI), Z10
	VBROADCASTSD	16(SI), Z11
	VBROADCASTSD	24(SI), Z12
	VBROADCASTSD	32(SI), Z13
	VBROADCASTSD	40(SI), Z14
	VBROADCASTSD	48(SI), Z15
	VBROADCASTSD	56(SI), Z16
	VMULPD	Z8, Z9, Z9
	VADDPD	Z9, Z0, Z0
	VMULPD	Z8, Z10, Z10
	VADDPD	Z10, Z1, Z1
	VMULPD	Z8, Z11, Z11
	VADDPD	Z11, Z2, Z2
	VMULPD	Z8, Z12, Z12
	VADDPD	Z12, Z3, Z3
	VMULPD	Z8, Z13, Z13
	VADDPD	Z13, Z4, Z4
	VMULPD	Z8, Z14, Z14
	VADDPD	Z14, Z5, Z5
	VMULPD	Z8, Z15, Z15
	VADDPD	Z15, Z6, Z6
	VMULPD	Z8, Z16, Z16
	VADDPD	Z16, Z7, Z7
	VMOVUPD	(DI)(R12*1), Z17
	VBROADCASTSD	(SI)(R11*1), Z18
	VBROADCASTSD	8(SI)(R11*1), Z19
	VBROADCASTSD	16(SI)(R11*1), Z20
	VBROADCASTSD	24(SI)(R11*1), Z21
	VBROADCASTSD	32(SI)(R11*1), Z22
	VBROADCASTSD	40(SI)(R11*1), Z23
	VBROADCASTSD	48(SI)(R11*1), Z24
	VBROADCASTSD	56(SI)(R11*1), Z25
	VMULPD	Z17, Z18, Z18
	VADDPD	Z18, Z0, Z0
	VMULPD	Z17, Z19, Z19
	VADDPD	Z19, Z1, Z1
	VMULPD	Z17, Z20, Z20
	VADDPD	Z20, Z2, Z2
	VMULPD	Z17, Z21, Z21
	VADDPD	Z21, Z3, Z3
	VMULPD	Z17, Z22, Z22
	VADDPD	Z22, Z4, Z4
	VMULPD	Z17, Z23, Z23
	VADDPD	Z23, Z5, Z5
	VMULPD	Z17, Z24, Z24
	VADDPD	Z24, Z6, Z6
	VMULPD	Z17, Z25, Z25
	VADDPD	Z25, Z7, Z7
	LEAQ	(SI)(R11*2), SI
	LEAQ	(DI)(R12*2), DI
	SUBQ	$2, CX
	JMP	kloop8
ktail8:
	TESTQ	CX, CX
	JZ	done8
	VMOVUPD	(DI), Z8
	VBROADCASTSD	(SI), Z9
	VBROADCASTSD	8(SI), Z10
	VBROADCASTSD	16(SI), Z11
	VBROADCASTSD	24(SI), Z12
	VBROADCASTSD	32(SI), Z13
	VBROADCASTSD	40(SI), Z14
	VBROADCASTSD	48(SI), Z15
	VBROADCASTSD	56(SI), Z16
	VMULPD	Z8, Z9, Z9
	VADDPD	Z9, Z0, Z0
	VMULPD	Z8, Z10, Z10
	VADDPD	Z10, Z1, Z1
	VMULPD	Z8, Z11, Z11
	VADDPD	Z11, Z2, Z2
	VMULPD	Z8, Z12, Z12
	VADDPD	Z12, Z3, Z3
	VMULPD	Z8, Z13, Z13
	VADDPD	Z13, Z4, Z4
	VMULPD	Z8, Z14, Z14
	VADDPD	Z14, Z5, Z5
	VMULPD	Z8, Z15, Z15
	VADDPD	Z15, Z6, Z6
	VMULPD	Z8, Z16, Z16
	VADDPD	Z16, Z7, Z7
done8:
	VMOVUPD	Z0, (DX)
	VMOVUPD	Z1, (DX)(R8*1)
	VMOVUPD	Z2, (DX)(R8*2)
	VMOVUPD	Z3, (DX)(R10*1)
	VMOVUPD	Z4, (R9)
	VMOVUPD	Z5, (R9)(R8*1)
	VMOVUPD	Z6, (R9)(R8*2)
	VMOVUPD	Z7, (R9)(R10*1)
	VZEROUPPER
	RET

// Elementwise vector bodies. n is a positive multiple of the lane width
// (wrappers in elemwise.go enforce it and run the scalar tail). Every
// kernel is multiply-round-then-add-round per element — bit-identical
// to the scalar loops.

// func axpyAVX(alpha float64, x, y *float64, n int)
TEXT ·axpyAVX(SB), NOSPLIT, $0-32
	VBROADCASTSD	alpha+0(FP), Y0
	MOVQ	x+8(FP), SI
	MOVQ	y+16(FP), DI
	MOVQ	n+24(FP), CX
axloop:
	VMOVUPD	(SI), Y1
	VMOVUPD	(DI), Y2
	VMULPD	Y0, Y1, Y1
	VADDPD	Y1, Y2, Y2
	VMOVUPD	Y2, (DI)
	ADDQ	$32, SI
	ADDQ	$32, DI
	SUBQ	$4, CX
	JNZ	axloop
	VZEROUPPER
	RET

// func axpyAVX512(alpha float64, x, y *float64, n int)
TEXT ·axpyAVX512(SB), NOSPLIT, $0-32
	VBROADCASTSD	alpha+0(FP), Z0
	MOVQ	x+8(FP), SI
	MOVQ	y+16(FP), DI
	MOVQ	n+24(FP), CX
ax5loop:
	VMOVUPD	(SI), Z1
	VMOVUPD	(DI), Z2
	VMULPD	Z0, Z1, Z1
	VADDPD	Z1, Z2, Z2
	VMOVUPD	Z2, (DI)
	ADDQ	$64, SI
	ADDQ	$64, DI
	SUBQ	$8, CX
	JNZ	ax5loop
	VZEROUPPER
	RET

// func scaleAVX(alpha float64, x *float64, n int)
TEXT ·scaleAVX(SB), NOSPLIT, $0-24
	VBROADCASTSD	alpha+0(FP), Y0
	MOVQ	x+8(FP), SI
	MOVQ	n+16(FP), CX
scloop:
	VMOVUPD	(SI), Y1
	VMULPD	Y0, Y1, Y1
	VMOVUPD	Y1, (SI)
	ADDQ	$32, SI
	SUBQ	$4, CX
	JNZ	scloop
	VZEROUPPER
	RET

// func scaleAVX512(alpha float64, x *float64, n int)
TEXT ·scaleAVX512(SB), NOSPLIT, $0-24
	VBROADCASTSD	alpha+0(FP), Z0
	MOVQ	x+8(FP), SI
	MOVQ	n+16(FP), CX
sc5loop:
	VMOVUPD	(SI), Z1
	VMULPD	Z0, Z1, Z1
	VMOVUPD	Z1, (SI)
	ADDQ	$64, SI
	SUBQ	$8, CX
	JNZ	sc5loop
	VZEROUPPER
	RET

// func addAVX(x, y *float64, n int)
TEXT ·addAVX(SB), NOSPLIT, $0-24
	MOVQ	x+0(FP), SI
	MOVQ	y+8(FP), DI
	MOVQ	n+16(FP), CX
adloop:
	VMOVUPD	(SI), Y1
	VMOVUPD	(DI), Y2
	VADDPD	Y1, Y2, Y2
	VMOVUPD	Y2, (DI)
	ADDQ	$32, SI
	ADDQ	$32, DI
	SUBQ	$4, CX
	JNZ	adloop
	VZEROUPPER
	RET

// func addAVX512(x, y *float64, n int)
TEXT ·addAVX512(SB), NOSPLIT, $0-24
	MOVQ	x+0(FP), SI
	MOVQ	y+8(FP), DI
	MOVQ	n+16(FP), CX
ad5loop:
	VMOVUPD	(SI), Z1
	VMOVUPD	(DI), Z2
	VADDPD	Z1, Z2, Z2
	VMOVUPD	Z2, (DI)
	ADDQ	$64, SI
	ADDQ	$64, DI
	SUBQ	$8, CX
	JNZ	ad5loop
	VZEROUPPER
	RET

// Activation kernels. The compare masks mirror the scalar branch
// semantics exactly, including NaN: ReLU keeps v when !(v <= 0) —
// predicate NLE_US (6), unordered→true — and LeakyReLU scales when
// v < 0 — predicate LT_OS (1), unordered→false — so NaN inputs flow
// through bit-identically to the scalar code.

// func reluFwdAVX(x, out *float64, n int)
TEXT ·reluFwdAVX(SB), NOSPLIT, $0-24
	MOVQ	x+0(FP), SI
	MOVQ	out+8(FP), DI
	MOVQ	n+16(FP), CX
	VXORPD	Y0, Y0, Y0
rfloop:
	VMOVUPD	(SI), Y1
	VCMPPD	$6, Y0, Y1, Y2      // !(v <= 0), NaN→keep
	VANDPD	Y2, Y1, Y1
	VMOVUPD	Y1, (DI)
	ADDQ	$32, SI
	ADDQ	$32, DI
	SUBQ	$4, CX
	JNZ	rfloop
	VZEROUPPER
	RET

// func reluBwdAVX(x, grad, out *float64, n int)
TEXT ·reluBwdAVX(SB), NOSPLIT, $0-32
	MOVQ	x+0(FP), SI
	MOVQ	grad+8(FP), DX
	MOVQ	out+16(FP), DI
	MOVQ	n+24(FP), CX
	VXORPD	Y0, Y0, Y0
rbloop:
	VMOVUPD	(SI), Y1
	VMOVUPD	(DX), Y3
	VCMPPD	$6, Y0, Y1, Y2      // !(x <= 0), NaN→pass gradient
	VANDPD	Y2, Y3, Y3
	VMOVUPD	Y3, (DI)
	ADDQ	$32, SI
	ADDQ	$32, DX
	ADDQ	$32, DI
	SUBQ	$4, CX
	JNZ	rbloop
	VZEROUPPER
	RET

// func leakyFwdAVX(alpha float64, x, out *float64, n int)
TEXT ·leakyFwdAVX(SB), NOSPLIT, $0-32
	VBROADCASTSD	alpha+0(FP), Y0
	MOVQ	x+8(FP), SI
	MOVQ	out+16(FP), DI
	MOVQ	n+24(FP), CX
	VXORPD	Y1, Y1, Y1
lfloop:
	VMOVUPD	(SI), Y2
	VMULPD	Y0, Y2, Y3          // alpha·v (one rounding)
	VCMPPD	$1, Y1, Y2, Y4      // v < 0 (LT_OS, NaN→false)
	VCMPPD	$5, Y1, Y2, Y5      // !(v < 0) (NLT_US, NaN→true)
	VANDPD	Y4, Y3, Y3
	VANDPD	Y5, Y2, Y2
	VORPD	Y3, Y2, Y2
	VMOVUPD	Y2, (DI)
	ADDQ	$32, SI
	ADDQ	$32, DI
	SUBQ	$4, CX
	JNZ	lfloop
	VZEROUPPER
	RET

// func leakyBwdAVX(alpha float64, x, grad, out *float64, n int)
TEXT ·leakyBwdAVX(SB), NOSPLIT, $0-40
	VBROADCASTSD	alpha+0(FP), Y0
	MOVQ	x+8(FP), SI
	MOVQ	grad+16(FP), DX
	MOVQ	out+24(FP), DI
	MOVQ	n+32(FP), CX
	VXORPD	Y1, Y1, Y1
lbloop:
	VMOVUPD	(SI), Y2            // x
	VMOVUPD	(DX), Y3            // g
	VMULPD	Y0, Y3, Y4          // g·alpha (one rounding)
	VCMPPD	$1, Y1, Y2, Y5      // x < 0
	VCMPPD	$5, Y1, Y2, Y6      // !(x < 0)
	VANDPD	Y5, Y4, Y4
	VANDPD	Y6, Y3, Y3
	VORPD	Y4, Y3, Y3
	VMOVUPD	Y3, (DI)
	ADDQ	$32, SI
	ADDQ	$32, DX
	ADDQ	$32, DI
	SUBQ	$4, CX
	JNZ	lbloop
	VZEROUPPER
	RET

// ---------------------------------------------------------------------
// Float32 kernels. Identical structure to the float64 kernels above at
// half element width: VMULPS + VADDPS (multiply-round-then-add-round,
// never fused), twice the lanes per vector. Strides shrink from 8 to 4
// bytes per element; the YMM kernels step 8 floats (32 bytes) and the
// ZMM kernels 16 floats (64 bytes) per vector op.

// func micro4x8avxF32(kc int, ap *float32, lda int, bp *float32, ldb int, c *float32, ldc int, first bool)
//
// Y0..Y3 hold the four output rows (8 floats each) for the whole panel;
// each k step broadcasts the four A values of the step and issues one
// mul+add pair per row against the step's B vector. lda and ldb are the
// per-k panel strides in elements (4 and 8 when packed). first selects
// zero-init (panel 0) versus accumulate-on-top of C.
TEXT ·micro4x8avxF32(SB), NOSPLIT, $0-57
	MOVQ	kc+0(FP), CX
	MOVQ	ap+8(FP), SI
	MOVQ	lda+16(FP), R10
	SHLQ	$2, R10             // lda in bytes
	MOVQ	bp+24(FP), DI
	MOVQ	ldb+32(FP), R11
	SHLQ	$2, R11             // ldb in bytes
	MOVQ	c+40(FP), DX
	MOVQ	ldc+48(FP), R8
	SHLQ	$2, R8              // ldc in bytes (4 per float32)
	LEAQ	(DX)(R8*2), R9      // &c[2*ldc]
	MOVBLZX	first+56(FP), AX
	TESTB	AL, AL
	JZ	load32
	VXORPS	Y0, Y0, Y0
	VXORPS	Y1, Y1, Y1
	VXORPS	Y2, Y2, Y2
	VXORPS	Y3, Y3, Y3
	JMP	kloop32
load32:
	VMOVUPS	(DX), Y0
	VMOVUPS	(DX)(R8*1), Y1
	VMOVUPS	(R9), Y2
	VMOVUPS	(R9)(R8*1), Y3
kloop32:
	TESTQ	CX, CX
	JZ	done32
	VMOVUPS	(DI), Y4
	VBROADCASTSS	(SI), Y5
	VBROADCASTSS	4(SI), Y6
	VBROADCASTSS	8(SI), Y7
	VBROADCASTSS	12(SI), Y8
	VMULPS	Y4, Y5, Y5
	VADDPS	Y5, Y0, Y0
	VMULPS	Y4, Y6, Y6
	VADDPS	Y6, Y1, Y1
	VMULPS	Y4, Y7, Y7
	VADDPS	Y7, Y2, Y2
	VMULPS	Y4, Y8, Y8
	VADDPS	Y8, Y3, Y3
	ADDQ	R10, SI
	ADDQ	R11, DI
	DECQ	CX
	JMP	kloop32
done32:
	VMOVUPS	Y0, (DX)
	VMOVUPS	Y1, (DX)(R8*1)
	VMOVUPS	Y2, (R9)
	VMOVUPS	Y3, (R9)(R8*1)
	VZEROUPPER
	RET

// func micro8x16avx512F32(kc int, ap *float32, lda int, bp *float32, ldb int, c *float32, ldc int, first bool)
//
// Z0..Z7 hold the eight output rows (16 floats each) for the whole
// panel; each k step broadcasts the eight A values of the step and
// issues one VMULPS+VADDPS pair per row against the step's B vector.
// lda and ldb are the per-k panel strides in elements (8 and 16 when
// packed). Zeroing uses VEX VXORPS (clears the full ZMM) so only
// AVX512F encodings are required.
TEXT ·micro8x16avx512F32(SB), NOSPLIT, $0-57
	MOVQ	kc+0(FP), CX
	MOVQ	ap+8(FP), SI
	MOVQ	lda+16(FP), R11
	SHLQ	$2, R11             // lda in bytes
	MOVQ	bp+24(FP), DI
	MOVQ	ldb+32(FP), R12
	SHLQ	$2, R12             // ldb in bytes
	MOVQ	c+40(FP), DX
	MOVQ	ldc+48(FP), R8
	SHLQ	$2, R8              // ldc in bytes
	LEAQ	(R8)(R8*2), R10     // 3*ldc bytes
	LEAQ	(DX)(R8*4), R9      // &c[4*ldc]
	MOVBLZX	first+56(FP), AX
	TESTB	AL, AL
	JZ	load16
	VXORPS	Y0, Y0, Y0
	VXORPS	Y1, Y1, Y1
	VXORPS	Y2, Y2, Y2
	VXORPS	Y3, Y3, Y3
	VXORPS	Y4, Y4, Y4
	VXORPS	Y5, Y5, Y5
	VXORPS	Y6, Y6, Y6
	VXORPS	Y7, Y7, Y7
	JMP	kloop16
load16:
	VMOVUPS	(DX), Z0
	VMOVUPS	(DX)(R8*1), Z1
	VMOVUPS	(DX)(R8*2), Z2
	VMOVUPS	(DX)(R10*1), Z3
	VMOVUPS	(R9), Z4
	VMOVUPS	(R9)(R8*1), Z5
	VMOVUPS	(R9)(R8*2), Z6
	VMOVUPS	(R9)(R10*1), Z7
kloop16:
	TESTQ	CX, CX
	JZ	done16
	VMOVUPS	(DI), Z8
	VBROADCASTSS	(SI), Z9
	VBROADCASTSS	4(SI), Z10
	VBROADCASTSS	8(SI), Z11
	VBROADCASTSS	12(SI), Z12
	VBROADCASTSS	16(SI), Z13
	VBROADCASTSS	20(SI), Z14
	VBROADCASTSS	24(SI), Z15
	VBROADCASTSS	28(SI), Z16
	VMULPS	Z8, Z9, Z9
	VADDPS	Z9, Z0, Z0
	VMULPS	Z8, Z10, Z10
	VADDPS	Z10, Z1, Z1
	VMULPS	Z8, Z11, Z11
	VADDPS	Z11, Z2, Z2
	VMULPS	Z8, Z12, Z12
	VADDPS	Z12, Z3, Z3
	VMULPS	Z8, Z13, Z13
	VADDPS	Z13, Z4, Z4
	VMULPS	Z8, Z14, Z14
	VADDPS	Z14, Z5, Z5
	VMULPS	Z8, Z15, Z15
	VADDPS	Z15, Z6, Z6
	VMULPS	Z8, Z16, Z16
	VADDPS	Z16, Z7, Z7
	ADDQ	R11, SI
	ADDQ	R12, DI
	DECQ	CX
	JMP	kloop16
done16:
	VMOVUPS	Z0, (DX)
	VMOVUPS	Z1, (DX)(R8*1)
	VMOVUPS	Z2, (DX)(R8*2)
	VMOVUPS	Z3, (DX)(R10*1)
	VMOVUPS	Z4, (R9)
	VMOVUPS	Z5, (R9)(R8*1)
	VMOVUPS	Z6, (R9)(R8*2)
	VMOVUPS	Z7, (R9)(R10*1)
	VZEROUPPER
	RET

// Float32 elementwise vector bodies. n is a positive multiple of the
// lane width (8 for YMM, 16 for ZMM); wrappers in elemwise32.go enforce
// it and run the generic tail.

// func axpyAVXF32(alpha float32, x, y *float32, n int)
TEXT ·axpyAVXF32(SB), NOSPLIT, $0-32
	VBROADCASTSS	alpha+0(FP), Y0
	MOVQ	x+8(FP), SI
	MOVQ	y+16(FP), DI
	MOVQ	n+24(FP), CX
axf32loop:
	VMOVUPS	(SI), Y1
	VMOVUPS	(DI), Y2
	VMULPS	Y0, Y1, Y1
	VADDPS	Y1, Y2, Y2
	VMOVUPS	Y2, (DI)
	ADDQ	$32, SI
	ADDQ	$32, DI
	SUBQ	$8, CX
	JNZ	axf32loop
	VZEROUPPER
	RET

// func axpyAVX512F32(alpha float32, x, y *float32, n int)
TEXT ·axpyAVX512F32(SB), NOSPLIT, $0-32
	VBROADCASTSS	alpha+0(FP), Z0
	MOVQ	x+8(FP), SI
	MOVQ	y+16(FP), DI
	MOVQ	n+24(FP), CX
axf325loop:
	VMOVUPS	(SI), Z1
	VMOVUPS	(DI), Z2
	VMULPS	Z0, Z1, Z1
	VADDPS	Z1, Z2, Z2
	VMOVUPS	Z2, (DI)
	ADDQ	$64, SI
	ADDQ	$64, DI
	SUBQ	$16, CX
	JNZ	axf325loop
	VZEROUPPER
	RET

// func scaleAVXF32(alpha float32, x *float32, n int)
TEXT ·scaleAVXF32(SB), NOSPLIT, $0-24
	VBROADCASTSS	alpha+0(FP), Y0
	MOVQ	x+8(FP), SI
	MOVQ	n+16(FP), CX
scf32loop:
	VMOVUPS	(SI), Y1
	VMULPS	Y0, Y1, Y1
	VMOVUPS	Y1, (SI)
	ADDQ	$32, SI
	SUBQ	$8, CX
	JNZ	scf32loop
	VZEROUPPER
	RET

// func scaleAVX512F32(alpha float32, x *float32, n int)
TEXT ·scaleAVX512F32(SB), NOSPLIT, $0-24
	VBROADCASTSS	alpha+0(FP), Z0
	MOVQ	x+8(FP), SI
	MOVQ	n+16(FP), CX
scf325loop:
	VMOVUPS	(SI), Z1
	VMULPS	Z0, Z1, Z1
	VMOVUPS	Z1, (SI)
	ADDQ	$64, SI
	SUBQ	$16, CX
	JNZ	scf325loop
	VZEROUPPER
	RET

// func addAVXF32(x, y *float32, n int)
TEXT ·addAVXF32(SB), NOSPLIT, $0-24
	MOVQ	x+0(FP), SI
	MOVQ	y+8(FP), DI
	MOVQ	n+16(FP), CX
adf32loop:
	VMOVUPS	(SI), Y1
	VMOVUPS	(DI), Y2
	VADDPS	Y1, Y2, Y2
	VMOVUPS	Y2, (DI)
	ADDQ	$32, SI
	ADDQ	$32, DI
	SUBQ	$8, CX
	JNZ	adf32loop
	VZEROUPPER
	RET

// func addAVX512F32(x, y *float32, n int)
TEXT ·addAVX512F32(SB), NOSPLIT, $0-24
	MOVQ	x+0(FP), SI
	MOVQ	y+8(FP), DI
	MOVQ	n+16(FP), CX
adf325loop:
	VMOVUPS	(SI), Z1
	VMOVUPS	(DI), Z2
	VADDPS	Z1, Z2, Z2
	VMOVUPS	Z2, (DI)
	ADDQ	$64, SI
	ADDQ	$64, DI
	SUBQ	$16, CX
	JNZ	adf325loop
	VZEROUPPER
	RET

// Float32 activation kernels: same NaN-exact predicates as the float64
// versions (NLE_US, unordered→true, so NaN inputs keep their value /
// pass their gradient exactly like the scalar branches).

// func reluFwdAVXF32(x, out *float32, n int)
TEXT ·reluFwdAVXF32(SB), NOSPLIT, $0-24
	MOVQ	x+0(FP), SI
	MOVQ	out+8(FP), DI
	MOVQ	n+16(FP), CX
	VXORPS	Y0, Y0, Y0
rff32loop:
	VMOVUPS	(SI), Y1
	VCMPPS	$6, Y0, Y1, Y2      // !(v <= 0), NaN→keep
	VANDPS	Y2, Y1, Y1
	VMOVUPS	Y1, (DI)
	ADDQ	$32, SI
	ADDQ	$32, DI
	SUBQ	$8, CX
	JNZ	rff32loop
	VZEROUPPER
	RET

// func reluBwdAVXF32(x, grad, out *float32, n int)
TEXT ·reluBwdAVXF32(SB), NOSPLIT, $0-32
	MOVQ	x+0(FP), SI
	MOVQ	grad+8(FP), DX
	MOVQ	out+16(FP), DI
	MOVQ	n+24(FP), CX
	VXORPS	Y0, Y0, Y0
rbf32loop:
	VMOVUPS	(SI), Y1
	VMOVUPS	(DX), Y3
	VCMPPS	$6, Y0, Y1, Y2      // !(x <= 0), NaN→pass gradient
	VANDPS	Y2, Y3, Y3
	VMOVUPS	Y3, (DI)
	ADDQ	$32, SI
	ADDQ	$32, DX
	ADDQ	$32, DI
	SUBQ	$8, CX
	JNZ	rbf32loop
	VZEROUPPER
	RET
