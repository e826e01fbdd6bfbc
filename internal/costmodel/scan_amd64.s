// scanFeature's boundary scan (see gbdt.go) over four columns at once: lane k
// of every 256-bit register is column k of the group, and each lane repeats
// the Go loop's IEEE operations in its order — the running left count, sum
// and sum of squares, then (lSq - lSum·lSum/lN) + (rSq - rSum·rSum/rN)
// subtracted from the node's base SSE. Where the Go loop skips a boundary
// (lN == 0 or lN == n) or keeps its best (g > bestG false), the lane's mask is
// off and its best gain and bin stay. A lane is off for good once lN == n:
// its column's top bin holds the node's last samples, and the cells past it
// (stale, never cleared) are boundaries the Go loop never reaches. A bin
// holding no sample in any lane is skipped: adding its zero cell leaves every
// running sum as it is, so in the Go loop it only repeats the previous
// boundary's gain, which strict-greater never picks.

#include "textflag.h"

DATA scanOne<>+0(SB)/8, $1.0
DATA scanOne<>+8(SB)/8, $1.0
DATA scanOne<>+16(SB)/8, $1.0
DATA scanOne<>+24(SB)/8, $1.0
GLOBL scanOne<>(SB), RODATA, $32

// func scanAVX(hist *[numBins]binAcc, nb int, n, total, totalSq, base float64, gain *float64, bin *int32)
// hist is the group's first row, the other three follow at 1024-byte strides;
// nb ≥ 1, the longest of the four columns' edge counts, boundaries are
// scanned in each lane. gain and bin receive the four lanes' bests.
TEXT ·scanAVX(SB), NOSPLIT, $0-64
	MOVQ         hist+0(FP), DI
	MOVQ         nb+8(FP), CX
	VBROADCASTSD n+16(FP), Y15
	VBROADCASTSD total+24(FP), Y14
	VBROADCASTSD totalSq+32(FP), Y13
	VBROADCASTSD base+40(FP), Y12
	VXORPD       Y11, Y11, Y11       // lN
	VXORPD       Y10, Y10, Y10       // lSum
	VXORPD       Y9, Y9, Y9          // lSq
	VXORPD       Y8, Y8, Y8          // bestG
	VXORPD       Y7, Y7, Y7          // bestB, a float64 bin index
	VXORPD       Y6, Y6, Y6          // b, the same
	VXORPD       Y5, Y5, Y5          // 0
	VCMPPD       $0, Y5, Y5, Y4      // live: lN has not reached n
	XORQ         BX, BX              // bin b's byte offset in a row
	TESTQ        CX, CX
	JZ           done

boundary:
	// Transpose the four {n, s, q, _} cells into N, S and Q lanes.
	VMOVUPD     (DI)(BX*1), X0
	VINSERTF128 $1, 2048(DI)(BX*1), Y0, Y0   // [n0, s0, n2, s2]
	VMOVUPD     1024(DI)(BX*1), X1
	VINSERTF128 $1, 3072(DI)(BX*1), Y1, Y1   // [n1, s1, n3, s3]
	VUNPCKLPD   Y1, Y0, Y2                   // N
	VCMPPD      $4, Y5, Y2, Y3               // N != 0
	VMOVMSKPD   Y3, AX
	TESTL       AX, AX
	JZ          next
	VUNPCKHPD   Y1, Y0, Y0                   // S
	VMOVUPD     16(DI)(BX*1), X1
	VINSERTF128 $1, 2064(DI)(BX*1), Y1, Y1   // [q0, _, q2, _]
	VMOVUPD     1040(DI)(BX*1), X3
	VINSERTF128 $1, 3088(DI)(BX*1), Y3, Y3   // [q1, _, q3, _]
	VUNPCKLPD   Y3, Y1, Y1                   // Q
	VADDPD      Y2, Y11, Y11                 // lN += n
	VADDPD      Y0, Y10, Y10                 // lSum += s
	VADDPD      Y1, Y9, Y9                   // lSq += q
	VCMPPD      $4, Y15, Y11, Y0             // !(lN == n)
	VANDPD      Y0, Y4, Y4

	VSUBPD Y11, Y15, Y0  // rN = n - lN
	VSUBPD Y10, Y14, Y1  // rSum = total - lSum
	VMULPD Y10, Y10, Y2  // lSum·lSum
	VDIVPD Y11, Y2, Y2   // ... / lN
	VSUBPD Y2, Y9, Y2    // lSq - ...
	VMULPD Y1, Y1, Y1    // rSum·rSum
	VDIVPD Y0, Y1, Y1    // ... / rN
	VSUBPD Y9, Y13, Y3   // rSq = totalSq - lSq
	VSUBPD Y1, Y3, Y1    // rSq - ...
	VADDPD Y1, Y2, Y2    // sse
	VSUBPD Y2, Y12, Y2   // g = baseSSE - sse

	VCMPPD    $4, Y5, Y11, Y1     // !(lN == 0)
	VANDPD    Y4, Y1, Y1
	VCMPPD    $0x1e, Y8, Y2, Y0   // g > bestG, false on NaN
	VANDPD    Y0, Y1, Y1
	VBLENDVPD Y1, Y2, Y8, Y8
	VBLENDVPD Y1, Y6, Y7, Y7

next:
	VADDPD scanOne<>(SB), Y6, Y6
	ADDQ   $32, BX
	DECQ   CX
	JNZ    boundary

done:
	MOVQ        gain+48(FP), AX
	VMOVUPD     Y8, (AX)
	MOVQ        bin+56(FP), AX
	VCVTTPD2DQY Y7, X7
	VMOVDQU     X7, (AX)
	VZEROUPPER
	RET
