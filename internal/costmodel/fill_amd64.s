// scanFeatures' histogram fill (see gbdt.go) with one 256-bit add per
// (sample, feature) cell: a binAcc {n, s, q, _} is four float64 lanes, and
// each sample adds [1, r, r·r, 0] to its cell in every feature column. The
// cell is the add's first operand, as in the Go loop's a.s += r, so even a NaN
// payload comes out the same. The bin byte is masked to the row, the one bound
// checked here: the rest are in range because idx holds row indices of the
// binned matrix and of resid, and hist has w rows. The columns go two at a
// time (different rows, so the two cells never alias), then the odd one.

#include "textflag.h"

// func fillAVX(hist *[numBins]binAcc, bins *uint8, d int, idx *int, n int, resid *float64, w int)
// hist is column lo's row, bins sample 0's byte for column lo, d the binned
// matrix's row stride; w ≥ 1 columns, the n samples of idx in order.
TEXT ·fillAVX(SB), NOSPLIT, $0-56
	MOVQ hist+0(FP), DI
	MOVQ bins+8(FP), SI
	MOVQ d+16(FP), R8
	MOVQ idx+24(FP), R9
	MOVQ n+32(FP), R10
	MOVQ resid+40(FP), R11
	MOVQ w+48(FP), R12
	MOVQ $0x3FF0000000000000, AX // 1.0
	VMOVQ AX, X4
	XORQ BX, BX
	TESTQ R10, R10
	JZ   done

sample:
	MOVQ (R9)(BX*8), AX
	VMOVSD (R11)(AX*8), X1         // [r, 0]
	VMULSD X1, X1, X2              // [r·r, 0]
	VUNPCKLPD X1, X4, X3           // [1, r]
	VINSERTF128 $1, X2, Y3, Y0     // [1, r, r·r, 0]
	IMULQ R8, AX
	LEAQ (SI)(AX*1), CX            // the sample's bin bytes from column lo
	MOVQ DI, DX                    // column f's row of cells
	MOVQ R12, R13
	SHRQ $1, R13                   // column pairs
	JZ   odd

pair:
	MOVBLZX (CX), AX
	MOVBLZX 1(CX), R14
	ANDL $31, AX                   // b % numBins
	ANDL $31, R14
	SHLQ $5, AX
	SHLQ $5, R14
	VMOVUPD (DX)(AX*1), Y1
	VMOVUPD 1024(DX)(R14*1), Y2
	VADDPD Y0, Y1, Y1              // cell + v, the cell first
	VADDPD Y0, Y2, Y2
	VMOVUPD Y1, (DX)(AX*1)
	VMOVUPD Y2, 1024(DX)(R14*1)
	ADDQ $2048, DX                 // two columns' rows: numBins cells of 32 bytes each
	ADDQ $2, CX
	DECQ R13
	JNZ  pair

odd:
	TESTQ $1, R12
	JZ    next
	MOVBLZX (CX), AX
	ANDL $31, AX
	SHLQ $5, AX
	VMOVUPD (DX)(AX*1), Y1
	VADDPD Y0, Y1, Y1
	VMOVUPD Y1, (DX)(AX*1)

next:
	INCQ BX
	CMPQ BX, R10
	JLT  sample

done:
	VZEROUPPER
	RET
