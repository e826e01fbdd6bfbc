// The AVX implementation of gemm's contract (see nn.go): 256-bit tiles whose
// lanes are adjacent output columns, so every lane is one IEEE chain in the
// portable loop's order. Nothing here checks a bound: gemm proves the block in
// range before it takes an address.

#include "textflag.h"

// Eight lanes on, then eight off (the zeros GLOBL leaves): the ragged tile's
// masks are windows of this.
DATA gemmMask<>+0(SB)/8, $-1
DATA gemmMask<>+8(SB)/8, $-1
DATA gemmMask<>+16(SB)/8, $-1
DATA gemmMask<>+24(SB)/8, $-1
DATA gemmMask<>+32(SB)/8, $-1
DATA gemmMask<>+40(SB)/8, $-1
DATA gemmMask<>+48(SB)/8, $-1
DATA gemmMask<>+56(SB)/8, $-1
GLOBL gemmMask<>(SB), RODATA, $128

// MADDS is one step of a tile: row p of b, in Y8 and Y9, into all four rows.
#define MADDS \
	VBROADCASTSD (R13), Y10; \
	VMULPD Y8, Y10, Y11; \
	VADDPD Y11, Y0, Y0; \
	VMULPD Y9, Y10, Y11; \
	VADDPD Y11, Y1, Y1; \
	VBROADCASTSD (R13)(R9*1), Y12; \
	VMULPD Y8, Y12, Y13; \
	VADDPD Y13, Y2, Y2; \
	VMULPD Y9, Y12, Y13; \
	VADDPD Y13, Y3, Y3; \
	VBROADCASTSD (R13)(R9*2), Y10; \
	VMULPD Y8, Y10, Y11; \
	VADDPD Y11, Y4, Y4; \
	VMULPD Y9, Y10, Y11; \
	VADDPD Y11, Y5, Y5; \
	VBROADCASTSD (R13)(AX*1), Y12; \
	VMULPD Y8, Y12, Y13; \
	VADDPD Y13, Y6, Y6; \
	VMULPD Y9, Y12, Y13; \
	VADDPD Y13, Y7, Y7; \
	ADDQ R10, R13; \
	ADDQ R11, R14

// func gemmAVX(c *float64, ldc int, a *float64, ars, acs int, b *float64, ldb, m, n, k int)
// c[i*ldc+j] += sum over p of a[i*ars+p*acs] * b[p*ldb+j] for i < m, j < n,
// p < k: m, n, k >= 1, ldc and ldb >= n. Rows go four at a time, one 4x8 tile
// after another: Y0-Y7 hold the tile, one lane per column j; each step
// broadcasts a[i][p], multiplies it into the two b vectors of row p and adds
// the rounded products to the tile (VMULPD then VADDPD, never a fused VFMADD),
// p ascending. The last n&7 columns are the same tile under VMASKMOVPD: the
// masks Y14 and Y15 keep the missing columns out of every load and store of c
// and b, and what their lanes compute goes nowhere. The argument slots c, a and
// m are the row loop's variables.
TEXT ·gemmAVX(SB), NOSPLIT, $0-80
	MOVQ ldc+8(FP), R8
	MOVQ ars+24(FP), R9
	MOVQ acs+32(FP), R10
	MOVQ ldb+48(FP), R11
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	SHLQ $3, R11
	// Lane j of the masks is on for j < n&7: the window n&7 back from the
	// table's first off entry.
	MOVQ n+64(FP), CX
	ANDQ $7, CX
	SHLQ $3, CX
	LEAQ gemmMask<>+64(SB), DX
	SUBQ CX, DX
	VMOVDQU (DX), Y14
	VMOVDQU 32(DX), Y15
group:
	MOVQ  m+56(FP), CX
	CMPQ  CX, $4
	JGE   rows
	TESTQ CX, CX
	JZ    done
	// A short last group goes row by row, each row as a group of four copies
	// of itself (row strides 0): the copies compute, and store, the same tile.
	XORQ R8, R8
	XORQ R9, R9
rows:
	LEAQ (R8)(R8*2), BX
	LEAQ (R9)(R9*2), AX
	MOVQ c+0(FP), DI
	MOVQ b+40(FP), DX
	MOVQ n+64(FP), R12
	CMPQ R12, $8
	JLT  ragged
tile:
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (DI)(R8*1), Y2
	VMOVUPD 32(DI)(R8*1), Y3
	VMOVUPD (DI)(R8*2), Y4
	VMOVUPD 32(DI)(R8*2), Y5
	VMOVUPD (DI)(BX*1), Y6
	VMOVUPD 32(DI)(BX*1), Y7
	MOVQ a+16(FP), R13
	MOVQ DX, R14
	MOVQ k+72(FP), CX
step:
	VMOVUPD (R14), Y8
	VMOVUPD 32(R14), Y9
	MADDS
	DECQ CX
	JNZ  step
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (DI)(R8*1)
	VMOVUPD Y3, 32(DI)(R8*1)
	VMOVUPD Y4, (DI)(R8*2)
	VMOVUPD Y5, 32(DI)(R8*2)
	VMOVUPD Y6, (DI)(BX*1)
	VMOVUPD Y7, 32(DI)(BX*1)
	ADDQ $64, DI
	ADDQ $64, DX
	SUBQ $8, R12
	CMPQ R12, $8
	JGE  tile
ragged:
	TESTQ R12, R12
	JZ    stride
	VMASKMOVPD (DI), Y14, Y0
	VMASKMOVPD 32(DI), Y15, Y1
	VMASKMOVPD (DI)(R8*1), Y14, Y2
	VMASKMOVPD 32(DI)(R8*1), Y15, Y3
	VMASKMOVPD (DI)(R8*2), Y14, Y4
	VMASKMOVPD 32(DI)(R8*2), Y15, Y5
	VMASKMOVPD (DI)(BX*1), Y14, Y6
	VMASKMOVPD 32(DI)(BX*1), Y15, Y7
	MOVQ a+16(FP), R13
	MOVQ DX, R14
	MOVQ k+72(FP), CX
mstep:
	VMASKMOVPD (R14), Y14, Y8
	VMASKMOVPD 32(R14), Y15, Y9
	MADDS
	DECQ CX
	JNZ  mstep
	VMASKMOVPD Y0, Y14, (DI)
	VMASKMOVPD Y1, Y15, 32(DI)
	VMASKMOVPD Y2, Y14, (DI)(R8*1)
	VMASKMOVPD Y3, Y15, 32(DI)(R8*1)
	VMASKMOVPD Y4, Y14, (DI)(R8*2)
	VMASKMOVPD Y5, Y15, 32(DI)(R8*2)
	VMASKMOVPD Y6, Y14, (DI)(BX*1)
	VMASKMOVPD Y7, Y15, 32(DI)(BX*1)
stride:
	// On by the rows done: four, or (row strides 0) one.
	MOVQ  $4, R12
	TESTQ R8, R8
	JNZ   next
	MOVQ  $1, R12
next:
	SUBQ  R12, m+56(FP)
	MOVQ  ldc+8(FP), CX
	IMULQ R12, CX
	SHLQ  $3, CX
	ADDQ  CX, c+0(FP)
	MOVQ  ars+24(FP), CX
	IMULQ R12, CX
	SHLQ  $3, CX
	ADDQ  CX, a+16(FP)
	JMP   group
done:
	VZEROUPPER
	RET
