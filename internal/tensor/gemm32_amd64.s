//go:build amd64

#include "textflag.h"

// Float32 twin of the axpy4AVX2 kernel in gemm_amd64.s: same register plan,
// same per-element FMA chaining, packed-single instructions at twice
// the lane count, 4-byte element addressing.

// func axpy4AVX2F32(c, b0, b1, b2, b3 *float32, n int, coef *[4]float32)
//
// c[j] += coef[0]*b0[j] + coef[1]*b1[j] + coef[2]*b2[j] + coef[3]*b3[j]
// for j in [0, n). n must be a non-negative multiple of 16 (the Go
// wrapper floors it and handles the tail). Per element the four FMAs
// chain in coefficient order, matching lane-for-lane across any
// partitioning of the surrounding loops.
TEXT ·axpy4AVX2F32(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), DI
	MOVQ b0+8(FP), SI
	MOVQ b1+16(FP), R8
	MOVQ b2+24(FP), R9
	MOVQ b3+32(FP), R10
	MOVQ n+40(FP), CX
	MOVQ coef+48(FP), AX

	VBROADCASTSS 0(AX), Y0
	VBROADCASTSS 4(AX), Y1
	VBROADCASTSS 8(AX), Y2
	VBROADCASTSS 12(AX), Y3

	XORQ BX, BX

loop16:
	CMPQ BX, CX
	JGE  done
	VMOVUPS (DI)(BX*4), Y4
	VMOVUPS 32(DI)(BX*4), Y5
	VFMADD231PS (SI)(BX*4), Y0, Y4
	VFMADD231PS 32(SI)(BX*4), Y0, Y5
	VFMADD231PS (R8)(BX*4), Y1, Y4
	VFMADD231PS 32(R8)(BX*4), Y1, Y5
	VFMADD231PS (R9)(BX*4), Y2, Y4
	VFMADD231PS 32(R9)(BX*4), Y2, Y5
	VFMADD231PS (R10)(BX*4), Y3, Y4
	VFMADD231PS 32(R10)(BX*4), Y3, Y5
	VMOVUPS Y4, (DI)(BX*4)
	VMOVUPS Y5, 32(DI)(BX*4)
	ADDQ $16, BX
	JMP  loop16

done:
	VZEROUPPER
	RET
