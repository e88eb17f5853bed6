//go:build amd64

#include "textflag.h"

// AVX-512 register-tile micro-kernels of the shifted sweeps (gemm.go,
// DESIGN.md §3), after the BLIS micro-kernel (Van Zee & van de Geijn,
// ACM TOMS 41(3), 2015): a tile of C lives in zmm registers across the
// whole reduction and touches memory once at each end.

// ---------------------------------------------------------------------
// NN: C (+)= A·shifted(B), one tile of up to 4 rows × 4 vectors.
//
// func nnTileF64(c *float64, ldc int, a *float64, lda int, b *float64, offs *int, k int, mask uint64, rows int, acc bool)
// func nnTileF32(c *float32, ldc int, a *float32, lda int, b *float32, offs *int, k int, mask uint64, rows int, acc bool)
//
// Row r < rows (1, 2 or 4) of the tile is c[r·ldc + j] for the lanes
// j set in mask (bit j of the 32 f64 / 64 f32 lanes), and accumulates
// Σ_q a[r·lda + q]·b[offs[q] + j] over q < k (k ≥ 1), in q order, one
// FMA per tap, onto C (acc) or onto zero. So every element is the same
// FMA chain wherever it sits in a tile, and masked lanes are neither
// read nor written.
//
// Registers: Z0–Z15 accumulate row r, vector v in Z(4r+v); Z16–Z19 are
// the tap's four B vectors, Z20–Z23 its broadcast A coefficients, K1–K4
// the per-vector lane masks. AX, R10, R11, BX walk the A rows and DX
// the offset table, all indexed by CX counting up from −k to 0; DI,
// R12, R13, R8 address the C rows.
// ---------------------------------------------------------------------

// NNLOADC loads one C row (masked-off lanes read as zero).
#define NNLOADC(MOV, p, z0, z1, z2, z3) \
	MOV.Z (p), K1, z0; \
	MOV.Z 64(p), K2, z1; \
	MOV.Z 128(p), K3, z2; \
	MOV.Z 192(p), K4, z3

// NNSTOREC stores one C row under the lane masks.
#define NNSTOREC(MOV, p, z0, z1, z2, z3) \
	MOV z0, K1, (p); \
	MOV z1, K2, 64(p); \
	MOV z2, K3, 128(p); \
	MOV z3, K4, 192(p)

#define ZERO4(z0, z1, z2, z3) \
	VPXORQ z0, z0, z0; \
	VPXORQ z1, z1, z1; \
	VPXORQ z2, z2, z2; \
	VPXORQ z3, z3, z3

// NNLOADB loads the four B vectors of tap CX into Z16–Z19.
#define NNLOADB(MOV, SC) \
	MOVQ (DX)(CX*8), R9; \
	LEAQ (SI)(R9*SC), R9; \
	MOV.Z (R9), K1, Z16; \
	MOV.Z 64(R9), K2, Z17; \
	MOV.Z 128(R9), K3, Z18; \
	MOV.Z 192(R9), K4, Z19

// NNFMAROW multiplies the B vectors by one broadcast coefficient a into
// one row of accumulators.
#define NNFMAROW(FMA, a, z0, z1, z2, z3) \
	FMA Z16, a, z0; \
	FMA Z17, a, z1; \
	FMA Z18, a, z2; \
	FMA Z19, a, z3

// NNTILE is the whole kernel for one element width: MOV/BC/FMA are its
// packed move, broadcast and FMA, SC its size in bytes, LSC log2 SC and
// SH the lanes per vector (the mask bits each opmask takes).
#define NNTILE(MOV, BC, FMA, SC, LSC, SH) \
	MOVQ mask+56(FP), R9; \
	KMOVW R9, K1; \
	SHRQ $SH, R9; \
	KMOVW R9, K2; \
	SHRQ $SH, R9; \
	KMOVW R9, K3; \
	SHRQ $SH, R9; \
	KMOVW R9, K4; \
	MOVQ c+0(FP), DI; \
	MOVQ ldc+8(FP), R8; \
	SHLQ $LSC, R8; \
	LEAQ (DI)(R8*1), R12; \
	LEAQ (DI)(R8*2), R13; \
	LEAQ (R12)(R8*2), R8; \
	MOVQ k+48(FP), CX; \
	MOVQ offs+40(FP), DX; \
	LEAQ (DX)(CX*8), DX; \
	MOVQ lda+24(FP), BX; \
	SHLQ $LSC, BX; \
	MOVQ a+16(FP), AX; \
	LEAQ (AX)(CX*SC), AX; \
	LEAQ (AX)(BX*1), R10; \
	LEAQ (AX)(BX*2), R11; \
	LEAQ (R10)(BX*2), BX; \
	NEGQ CX; \
	MOVQ b+32(FP), SI; \
	MOVBLZX acc+72(FP), R9; \
	CMPQ rows+64(FP), $4; \
	JEQ four; \
	CMPQ rows+64(FP), $2; \
	JEQ two; \
	TESTL R9, R9; \
	JZ zero1; \
	NNLOADC(MOV, DI, Z0, Z1, Z2, Z3); \
	JMP loop1; \
zero1: \
	ZERO4(Z0, Z1, Z2, Z3); \
loop1: \
	NNLOADB(MOV, SC); \
	BC (AX)(CX*SC), Z20; \
	NNFMAROW(FMA, Z20, Z0, Z1, Z2, Z3); \
	INCQ CX; \
	JNZ loop1; \
	NNSTOREC(MOV, DI, Z0, Z1, Z2, Z3); \
	VZEROUPPER; \
	RET; \
two: \
	TESTL R9, R9; \
	JZ zero2; \
	NNLOADC(MOV, DI, Z0, Z1, Z2, Z3); \
	NNLOADC(MOV, R12, Z4, Z5, Z6, Z7); \
	JMP loop2; \
zero2: \
	ZERO4(Z0, Z1, Z2, Z3); \
	ZERO4(Z4, Z5, Z6, Z7); \
loop2: \
	NNLOADB(MOV, SC); \
	BC (AX)(CX*SC), Z20; \
	BC (R10)(CX*SC), Z21; \
	NNFMAROW(FMA, Z20, Z0, Z1, Z2, Z3); \
	NNFMAROW(FMA, Z21, Z4, Z5, Z6, Z7); \
	INCQ CX; \
	JNZ loop2; \
	NNSTOREC(MOV, DI, Z0, Z1, Z2, Z3); \
	NNSTOREC(MOV, R12, Z4, Z5, Z6, Z7); \
	VZEROUPPER; \
	RET; \
four: \
	TESTL R9, R9; \
	JZ zero4; \
	NNLOADC(MOV, DI, Z0, Z1, Z2, Z3); \
	NNLOADC(MOV, R12, Z4, Z5, Z6, Z7); \
	NNLOADC(MOV, R13, Z8, Z9, Z10, Z11); \
	NNLOADC(MOV, R8, Z12, Z13, Z14, Z15); \
	JMP loop4; \
zero4: \
	ZERO4(Z0, Z1, Z2, Z3); \
	ZERO4(Z4, Z5, Z6, Z7); \
	ZERO4(Z8, Z9, Z10, Z11); \
	ZERO4(Z12, Z13, Z14, Z15); \
loop4: \
	NNLOADB(MOV, SC); \
	BC (AX)(CX*SC), Z20; \
	BC (R10)(CX*SC), Z21; \
	BC (R11)(CX*SC), Z22; \
	BC (BX)(CX*SC), Z23; \
	NNFMAROW(FMA, Z20, Z0, Z1, Z2, Z3); \
	NNFMAROW(FMA, Z21, Z4, Z5, Z6, Z7); \
	NNFMAROW(FMA, Z22, Z8, Z9, Z10, Z11); \
	NNFMAROW(FMA, Z23, Z12, Z13, Z14, Z15); \
	INCQ CX; \
	JNZ loop4; \
	NNSTOREC(MOV, DI, Z0, Z1, Z2, Z3); \
	NNSTOREC(MOV, R12, Z4, Z5, Z6, Z7); \
	NNSTOREC(MOV, R13, Z8, Z9, Z10, Z11); \
	NNSTOREC(MOV, R8, Z12, Z13, Z14, Z15); \
	VZEROUPPER; \
	RET

TEXT ·nnTileF64(SB), NOSPLIT, $0-73
	NNTILE(VMOVUPD, VBROADCASTSD, VFMADD231PD, 8, 3, 8)

TEXT ·nnTileF32(SB), NOSPLIT, $0-73
	NNTILE(VMOVUPS, VBROADCASTSS, VFMADD231PS, 4, 2, 16)

// ---------------------------------------------------------------------
// NT: a 4 × 4 tile of dot products, float64.
//
// func ntTileF64(a *float64, rows *[4]int, b *float64, taps *[4]int, k int, out *[32]float64)
//
// Element (r, t) is the dot product of a[rows[r]:][:k] with
// b[taps[t]:][:k]: eight lanes, lane l an FMA chain over q ≡ l mod 8 in
// q order (the tail under an opmask, its masked lanes adding zero),
// then one fixed reduction tree, ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)).
// The result lands in out[8r + 2t]. Duplicate rows or taps cost time
// but never change an element, so callers pad short tiles with them.
//
// Registers: Z(4r+t) accumulates element (r, t); Z16–Z19 hold the four
// A vectors and Z20–Z23 the four B vectors of the current eight lanes;
// R8–R11 address the A rows and R12, R13, BX, DI the B taps, indexed by
// SI.
// ---------------------------------------------------------------------

#define NTFMAROW(a, z0, z1, z2, z3) \
	VFMADD231PD Z20, a, z0; \
	VFMADD231PD Z21, a, z1; \
	VFMADD231PD Z22, a, z2; \
	VFMADD231PD Z23, a, z3

#define NTFMA16 \
	NTFMAROW(Z16, Z0, Z1, Z2, Z3); \
	NTFMAROW(Z17, Z4, Z5, Z6, Z7); \
	NTFMAROW(Z18, Z8, Z9, Z10, Z11); \
	NTFMAROW(Z19, Z12, Z13, Z14, Z15)

// NTFOLD4 folds accumulators z0 and z1 into z0: each 256-bit half of
// the result is one accumulator's l_i + l_{i+4}.
#define NTFOLD4(z0, z1) \
	VSHUFF64X2 $0x44, z1, z0, Z16; \
	VSHUFF64X2 $0xEE, z1, z0, Z17; \
	VADDPD Z17, Z16, z0

// NTFOLD2 folds two NTFOLD4 results into z0: 128-bit lane i holds
// accumulator i's (l0+l4)+(l2+l6) and (l1+l5)+(l3+l7).
#define NTFOLD2(z0, z1) \
	VSHUFF64X2 $0x88, z1, z0, Z16; \
	VSHUFF64X2 $0xDD, z1, z0, Z17; \
	VADDPD Z17, Z16, z0

// NTFOLD1 adds the two halves of each 128-bit lane of z0 into its even
// element.
#define NTFOLD1(z0) \
	VPERMILPD $0x55, z0, Z16; \
	VADDPD Z16, z0, z0

TEXT ·ntTileF64(SB), NOSPLIT, $0-48
	MOVQ a+0(FP), AX
	MOVQ rows+8(FP), DX
	MOVQ 0(DX), R8
	LEAQ (AX)(R8*8), R8
	MOVQ 8(DX), R9
	LEAQ (AX)(R9*8), R9
	MOVQ 16(DX), R10
	LEAQ (AX)(R10*8), R10
	MOVQ 24(DX), R11
	LEAQ (AX)(R11*8), R11
	MOVQ b+16(FP), AX
	MOVQ taps+24(FP), DX
	MOVQ 0(DX), R12
	LEAQ (AX)(R12*8), R12
	MOVQ 8(DX), R13
	LEAQ (AX)(R13*8), R13
	MOVQ 16(DX), BX
	LEAQ (AX)(BX*8), BX
	MOVQ 24(DX), DI
	LEAQ (AX)(DI*8), DI

	ZERO4(Z0, Z1, Z2, Z3)
	ZERO4(Z4, Z5, Z6, Z7)
	ZERO4(Z8, Z9, Z10, Z11)
	ZERO4(Z12, Z13, Z14, Z15)

	MOVQ k+32(FP), DX
	MOVQ DX, CX
	ANDQ $-8, CX
	XORQ SI, SI
	CMPQ SI, CX
	JGE  nttail

ntloop:
	VMOVUPD (R8)(SI*8), Z16
	VMOVUPD (R9)(SI*8), Z17
	VMOVUPD (R10)(SI*8), Z18
	VMOVUPD (R11)(SI*8), Z19
	VMOVUPD (R12)(SI*8), Z20
	VMOVUPD (R13)(SI*8), Z21
	VMOVUPD (BX)(SI*8), Z22
	VMOVUPD (DI)(SI*8), Z23
	NTFMA16
	ADDQ $8, SI
	CMPQ SI, CX
	JLT  ntloop

nttail:
	MOVQ DX, CX
	ANDQ $7, CX
	JZ   ntsum
	MOVL $1, AX
	SHLL CX, AX
	DECL AX
	KMOVW AX, K1
	VMOVUPD.Z (R8)(SI*8), K1, Z16
	VMOVUPD.Z (R9)(SI*8), K1, Z17
	VMOVUPD.Z (R10)(SI*8), K1, Z18
	VMOVUPD.Z (R11)(SI*8), K1, Z19
	VMOVUPD.Z (R12)(SI*8), K1, Z20
	VMOVUPD.Z (R13)(SI*8), K1, Z21
	VMOVUPD.Z (BX)(SI*8), K1, Z22
	VMOVUPD.Z (DI)(SI*8), K1, Z23
	NTFMA16

ntsum:
	NTFOLD4(Z0, Z1)
	NTFOLD4(Z2, Z3)
	NTFOLD4(Z4, Z5)
	NTFOLD4(Z6, Z7)
	NTFOLD4(Z8, Z9)
	NTFOLD4(Z10, Z11)
	NTFOLD4(Z12, Z13)
	NTFOLD4(Z14, Z15)
	NTFOLD2(Z0, Z2)
	NTFOLD2(Z4, Z6)
	NTFOLD2(Z8, Z10)
	NTFOLD2(Z12, Z14)
	NTFOLD1(Z0)
	NTFOLD1(Z4)
	NTFOLD1(Z8)
	NTFOLD1(Z12)
	MOVQ out+40(FP), DX
	VMOVUPD Z0, (DX)
	VMOVUPD Z4, 64(DX)
	VMOVUPD Z8, 128(DX)
	VMOVUPD Z12, 192(DX)
	VZEROUPPER
	RET
