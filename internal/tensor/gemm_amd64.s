//go:build amd64

#include "textflag.h"

// func axpy4AVX2(c, b0, b1, b2, b3 *float64, n int, coef *[4]float64)
//
// c[j] += coef[0]*b0[j] + coef[1]*b1[j] + coef[2]*b2[j] + coef[3]*b3[j]
// for j in [0, n). n must be a non-negative multiple of 8 (the Go
// wrapper floors it and handles the tail). Per element the four FMAs
// chain in coefficient order, matching lane-for-lane across any
// partitioning of the surrounding loops.
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), DI
	MOVQ b0+8(FP), SI
	MOVQ b1+16(FP), R8
	MOVQ b2+24(FP), R9
	MOVQ b3+32(FP), R10
	MOVQ n+40(FP), CX
	MOVQ coef+48(FP), AX

	VBROADCASTSD 0(AX), Y0
	VBROADCASTSD 8(AX), Y1
	VBROADCASTSD 16(AX), Y2
	VBROADCASTSD 24(AX), Y3

	XORQ BX, BX

loop8:
	CMPQ BX, CX
	JGE  done
	VMOVUPD (DI)(BX*8), Y4
	VMOVUPD 32(DI)(BX*8), Y5
	VFMADD231PD (SI)(BX*8), Y0, Y4
	VFMADD231PD 32(SI)(BX*8), Y0, Y5
	VFMADD231PD (R8)(BX*8), Y1, Y4
	VFMADD231PD 32(R8)(BX*8), Y1, Y5
	VFMADD231PD (R9)(BX*8), Y2, Y4
	VFMADD231PD 32(R9)(BX*8), Y2, Y5
	VFMADD231PD (R10)(BX*8), Y3, Y4
	VFMADD231PD 32(R10)(BX*8), Y3, Y5
	VMOVUPD Y4, (DI)(BX*8)
	VMOVUPD Y5, 32(DI)(BX*8)
	ADDQ $8, BX
	JMP  loop8

done:
	VZEROUPPER
	RET

// func dot2AVX2(a0, a1, b *float64, n int) (d0, d1 float64)
//
// Returns (a0·b, a1·b) over the first n elements; n must be a
// non-negative multiple of 8 (the Go wrapper floors it and adds the
// scalar tail). Each dot keeps two vector accumulators that are
// combined and horizontally summed in a fixed order, so the rounding
// depends only on n.
TEXT ·dot2AVX2(SB), NOSPLIT, $0-48
	MOVQ a0+0(FP), SI
	MOVQ a1+8(FP), R8
	MOVQ b+16(FP), DI
	MOVQ n+24(FP), CX

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

	XORQ BX, BX

dloop8:
	CMPQ BX, CX
	JGE  dsum
	VMOVUPD (DI)(BX*8), Y4
	VMOVUPD 32(DI)(BX*8), Y5
	VFMADD231PD (SI)(BX*8), Y4, Y0
	VFMADD231PD 32(SI)(BX*8), Y5, Y1
	VFMADD231PD (R8)(BX*8), Y4, Y2
	VFMADD231PD 32(R8)(BX*8), Y5, Y3
	ADDQ $8, BX
	JMP  dloop8

dsum:
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0
	VHADDPD X0, X0, X0
	VEXTRACTF128 $1, Y2, X3
	VADDPD X3, X2, X2
	VHADDPD X2, X2, X2
	VZEROUPPER
	MOVSD X0, d0+32(FP)
	MOVSD X2, d1+40(FP)
	RET

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
