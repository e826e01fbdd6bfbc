// 4-lane transcriptions of nn's element-wise loops (see nn.go): Adam, and the
// exp, log and tanh the standard library computes one float64 at a time. Every
// lane runs the scalar's operations in the scalar's order — exp is the FMA path
// of math's exp_amd64.s, log is its log_amd64.s, tanh is the pure-Go math.tanh —
// so a lane holds the bits the math call returns. The three math kernels stop
// before a group with an element outside their domain and return the number of
// groups done; the caller finishes that group with the math call. After them,
// the loops between the kernels (rowOpAVX, fillRowsAVX), on the same terms
// against the Go loop at each call site, and Transpose's 4×4 blocks.

#include "textflag.h"

DATA lanesK<>+0(SB)/8, $0x7FFFFFFFFFFFFFFF // all but the sign bit
DATA lanesK<>+8(SB)/8, $700.0 // exp's domain, far inside math.Exp's straight line
DATA lanesK<>+16(SB)/8, $1.4426950408889634073599246810018920 // LOG2E
DATA lanesK<>+24(SB)/8, $0.69314718055966295651160180568695068359375 // LN2U
DATA lanesK<>+32(SB)/8, $0.28235290563031577122588448175013436025525412068e-12 // LN2L
DATA lanesK<>+40(SB)/8, $0.0625
DATA lanesK<>+48(SB)/8, $2.4801587301587301587e-5
DATA lanesK<>+56(SB)/8, $1.9841269841269841270e-4
DATA lanesK<>+64(SB)/8, $1.3888888888888888889e-3
DATA lanesK<>+72(SB)/8, $8.3333333333333333333e-3
DATA lanesK<>+80(SB)/8, $4.1666666666666666667e-2
DATA lanesK<>+88(SB)/8, $1.6666666666666666667e-1
DATA lanesK<>+96(SB)/8, $0.5
DATA lanesK<>+104(SB)/8, $1.0
DATA lanesK<>+112(SB)/8, $2.0
DATA lanesK<>+120(SB)/8, $1023 // the exponent bias, an integer
DATA lanesK<>+128(SB)/8, $0x0010000000000000 // the least positive normal
DATA lanesK<>+136(SB)/8, $0x7FF0000000000000 // +Inf
DATA lanesK<>+144(SB)/8, $0x000FFFFFFFFFFFFF // the mantissa bits
DATA lanesK<>+152(SB)/8, $0x4330000000000000 // 2^52: an exponent field OR-ed in below it is that integer added
DATA lanesK<>+160(SB)/8, $4503599627371518.0 // 2^52 + 0x3FE
DATA lanesK<>+168(SB)/8, $7.07106781186547524401e-01 // sqrt(2)/2
DATA lanesK<>+176(SB)/8, $1.479819860511658591e-01 // L7
DATA lanesK<>+184(SB)/8, $1.818357216161805012e-01 // L5
DATA lanesK<>+192(SB)/8, $2.857142874366239149e-01 // L3
DATA lanesK<>+200(SB)/8, $6.666666666666735130e-01 // L1
DATA lanesK<>+208(SB)/8, $1.531383769920937332e-01 // L6
DATA lanesK<>+216(SB)/8, $2.222219843214978396e-01 // L4
DATA lanesK<>+224(SB)/8, $3.999999999940941908e-01 // L2
DATA lanesK<>+232(SB)/8, $1.90821492927058770002e-10 // Ln2Lo
DATA lanesK<>+240(SB)/8, $6.93147180369123816490e-01 // Ln2Hi
DATA lanesK<>+248(SB)/8, $0.625
DATA lanesK<>+256(SB)/8, $-9.64399179425052238628e-1 // tanhP
DATA lanesK<>+264(SB)/8, $-9.92877231001918586564e1
DATA lanesK<>+272(SB)/8, $-1.61468768441708447952e3
DATA lanesK<>+280(SB)/8, $1.12811678491632931402e2 // tanhQ
DATA lanesK<>+288(SB)/8, $2.23548839060100448583e3
DATA lanesK<>+296(SB)/8, $4.84406305325125486048e3
DATA lanesK<>+304(SB)/8, $0.9 // adamBeta1, 1-adamBeta1, adamBeta2, 1-adamBeta2, adamEps
DATA lanesK<>+312(SB)/8, $0.1
DATA lanesK<>+320(SB)/8, $0.999
DATA lanesK<>+328(SB)/8, $0.001
DATA lanesK<>+336(SB)/8, $1e-8
GLOBL lanesK<>(SB), RODATA, $344

#define K(off, reg) VBROADCASTSD lanesK<>+off(SB), reg

// EXP4 replaces the four finite |x| <= 700 in Y0 with math.Exp of them, using
// Y1-Y3: archExp's avxfma path — k = x*LOG2E to the nearest even integer, as
// CVTSD2SL rounds it; the argument less k*LN2U, then k*LN2L, over 16; the
// Taylor series; four squarings of 1 + that — with the ldexp at its end
// straight-line, since 2^k stays normal over this domain.
#define EXP4 \
	K(16, Y1); \
	VMULPD       Y0, Y1, Y1; \
	VCVTPD2DQY   Y1, X2; \
	VCVTDQ2PD    X2, Y1; \
	K(24, Y3); \
	VFNMADD231PD Y3, Y1, Y0; \
	K(32, Y3); \
	VFNMADD231PD Y3, Y1, Y0; \
	K(40, Y3); \
	VMULPD       Y3, Y0, Y0; \
	K(48, Y1); \
	K(56, Y3); \
	VFMADD213PD  Y3, Y0, Y1; \
	K(64, Y3); \
	VFMADD213PD  Y3, Y0, Y1; \
	K(72, Y3); \
	VFMADD213PD  Y3, Y0, Y1; \
	K(80, Y3); \
	VFMADD213PD  Y3, Y0, Y1; \
	K(88, Y3); \
	VFMADD213PD  Y3, Y0, Y1; \
	K(96, Y3); \
	VFMADD213PD  Y3, Y0, Y1; \
	K(104, Y3); \
	VFMADD213PD  Y3, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	K(112, Y3); \
	VADDPD       Y3, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       Y3, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       Y3, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       Y3, Y0, Y1; \
	K(104, Y3); \
	VFMADD213PD  Y3, Y1, Y0; \
	VPMOVSXDQ    X2, Y2; \
	K(120, Y3); \
	VPADDQ       Y3, Y2, Y2; \
	VPSLLQ       $52, Y2, Y2; \
	VMULPD       Y2, Y0, Y0

// func expAVX(x *float64, groups int) int
// x[i] = math.Exp(x[i]) four at a time; stops before a group with an element
// that is not a finite |x| <= 700.
TEXT ·expAVX(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), SI
	MOVQ groups+8(FP), CX
	XORQ AX, AX
	K(0, Y14)
	K(8, Y15)
loop:
	CMPQ AX, CX
	JGE  done
	VMOVUPD   (SI), Y0
	VANDPD    Y14, Y0, Y1
	VCMPPD    $6, Y15, Y1, Y1 // not |x| <= 700: NaN too
	VMOVMSKPD Y1, DX
	TESTL     DX, DX
	JNZ       done
	EXP4
	VMOVUPD Y0, (SI)
	ADDQ $32, SI
	INCQ AX
	JMP  loop
done:
	VZEROUPPER
	MOVQ AX, ret+16(FP)
	RET

// func logAVX(x *float64, groups int) int
// x[i] = math.Log(x[i]) four at a time; stops before a group with an element
// that is not positive, normal and finite.
TEXT ·logAVX(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), SI
	MOVQ groups+8(FP), CX
	XORQ AX, AX
	K(128, Y14)
	K(136, Y15)
	K(104, Y13)
loop:
	CMPQ AX, CX
	JGE  done
	VMOVUPD   (SI), Y0
	VCMPPD    $13, Y14, Y0, Y1 // x >= least normal
	VCMPPD    $1, Y15, Y0, Y2  // x < +Inf
	VANDPD    Y2, Y1, Y1
	VMOVMSKPD Y1, DX
	CMPL      DX, $15
	JNE       done
	// f1, k = frexp(x), from the bits as archLog takes them.
	K(144, Y2)
	VANDPD Y0, Y2, Y2
	K(96, Y3)
	VORPD  Y3, Y2, Y2 // f1
	VPSRLQ $52, Y0, Y1
	K(152, Y3)
	VORPD  Y3, Y1, Y1
	K(160, Y3)
	VSUBPD Y3, Y1, Y1 // k
	// if f1 <= sqrt(2)/2 { k -= 1; f1 *= 2 } — archLog's CMPSD is not-less-than.
	K(168, Y0)
	VCMPPD $5, Y2, Y0, Y0
	VANDPD Y13, Y0, Y3
	VSUBPD Y3, Y1, Y1
	VADDPD Y13, Y3, Y3
	VMULPD Y3, Y2, Y2
	VSUBPD Y13, Y2, Y2 // f = f1 - 1
	K(112, Y0)
	VADDPD Y2, Y0, Y0
	VDIVPD Y0, Y2, Y3 // s = f / (2 + f)
	VMULPD Y3, Y3, Y4 // s2
	VMULPD Y4, Y4, Y5 // s4
	// t1 = s2 * (L1 + s4*(L3 + s4*(L5 + s4*L7)))
	K(176, Y6)
	VMULPD Y5, Y6, Y6
	K(184, Y7)
	VADDPD Y7, Y6, Y6
	VMULPD Y5, Y6, Y6
	K(192, Y7)
	VADDPD Y7, Y6, Y6
	VMULPD Y5, Y6, Y6
	K(200, Y7)
	VADDPD Y7, Y6, Y6
	VMULPD Y6, Y4, Y4
	// t2 = s4 * (L2 + s4*(L4 + s4*L6))
	K(208, Y6)
	VMULPD Y5, Y6, Y6
	K(216, Y7)
	VADDPD Y7, Y6, Y6
	VMULPD Y5, Y6, Y6
	K(224, Y7)
	VADDPD Y7, Y6, Y6
	VMULPD Y6, Y5, Y5
	VADDPD Y5, Y4, Y4 // R = t1 + t2
	K(96, Y0)
	VMULPD Y2, Y0, Y0
	VMULPD Y2, Y0, Y0 // hfsq = 0.5 * f * f
	// k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f)
	VADDPD Y0, Y4, Y4
	VMULPD Y4, Y3, Y3
	K(232, Y4)
	VMULPD Y1, Y4, Y4
	VADDPD Y4, Y3, Y3
	VSUBPD Y3, Y0, Y0
	VSUBPD Y2, Y0, Y0
	K(240, Y4)
	VMULPD Y4, Y1, Y1
	VSUBPD Y0, Y1, Y1
	VMOVUPD Y1, (SI)
	ADDQ $32, SI
	INCQ AX
	JMP  loop
done:
	VZEROUPPER
	MOVQ AX, ret+16(FP)
	RET

// func tanhAVX(x *float64, groups int) int
// x[i] = math.Tanh(x[i]) four at a time; stops before a group with a NaN. Every
// lane runs math.tanh's small branch, x + x*s*P(s)/Q(s) with s = x*x, and a
// group whose four |x| are all below 0.625 — where math.tanh calls no exp — runs
// nothing else. Any other group runs the large branch on every lane as well,
// 1 - 2/(exp(2|x|) + 1), which past math.tanh's |x| > 44 cut-off (the argument
// held at 700) rounds to the 1 returned there, and the comparison that sorted
// the group picks per lane: the lanes that skip the exp are the lanes the blend
// would have discarded it from. x's sign bit is then OR-ed in: that negates the
// large branch, changes nothing in the small one, which has x's sign, and keeps
// a -0, which comes out as +0.
TEXT ·tanhAVX(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), SI
	MOVQ groups+8(FP), CX
	XORQ AX, AX
	K(0, Y14)
	K(8, Y15)
	K(104, Y13)
	K(248, Y12)
loop:
	CMPQ AX, CX
	JGE  done
	VMOVUPD   (SI), Y8
	VCMPPD    $3, Y8, Y8, Y1
	VMOVMSKPD Y1, DX
	TESTL     DX, DX
	JNZ       done
	VANDPD    Y14, Y8, Y9      // z = |x|
	VCMPPD    $5, Y12, Y9, Y10 // not z < 0.625
	VMOVMSKPD Y10, DX
	VMULPD Y8, Y8, Y1 // s
	K(256, Y5)
	VMULPD Y1, Y5, Y5
	K(264, Y3)
	VADDPD Y3, Y5, Y5
	VMULPD Y1, Y5, Y5
	K(272, Y3)
	VADDPD Y3, Y5, Y5 // (P0*s + P1)*s + P2
	K(280, Y3)
	VADDPD Y1, Y3, Y3
	VMULPD Y1, Y3, Y3
	K(288, Y4)
	VADDPD Y4, Y3, Y3
	VMULPD Y1, Y3, Y3
	K(296, Y4)
	VADDPD Y4, Y3, Y3 // ((s + Q0)*s + Q1)*s + Q2
	VMULPD Y1, Y8, Y1
	VMULPD Y5, Y1, Y1
	VDIVPD Y3, Y1, Y1
	VADDPD Y1, Y8, Y5 // x + x*s*P/Q
	TESTL  DX, DX
	JZ     sign // all four small
	VADDPD Y9, Y9, Y0
	VMINPD Y15, Y0, Y0
	EXP4
	VADDPD Y13, Y0, Y0
	K(112, Y1)
	VDIVPD Y0, Y1, Y0
	VSUBPD Y0, Y13, Y0 // 1 - 2/(exp(2z) + 1)
	VBLENDVPD Y10, Y0, Y5, Y5
sign:
	VANDNPD Y8, Y14, Y3
	VORPD   Y3, Y5, Y5
	VMOVUPD Y5, (SI)
	ADDQ $32, SI
	INCQ AX
	JMP  loop
done:
	VZEROUPPER
	MOVQ AX, ret+16(FP)
	RET

// func adamAVX(w, gw, m, v *float64, n int, inv, bc1, bc2, lr float64)
// nn.adam's loop body over n elements, a positive multiple of 4: every
// operation is IEEE-exact and taken in the scalar's order, nothing is fused.
TEXT ·adamAVX(SB), NOSPLIT, $0-72
	MOVQ w+0(FP), DI
	MOVQ gw+8(FP), SI
	MOVQ m+16(FP), R8
	MOVQ v+24(FP), R9
	MOVQ n+32(FP), CX
	SHLQ $3, CX
	VBROADCASTSD inv+40(FP), Y10
	VBROADCASTSD bc1+48(FP), Y11
	VBROADCASTSD bc2+56(FP), Y12
	VBROADCASTSD lr+64(FP), Y13
	K(304, Y6)
	K(312, Y7)
	K(320, Y8)
	K(328, Y9)
	K(336, Y14)
	VXORPD Y15, Y15, Y15
	XORQ AX, AX
loop:
	VMULPD  (SI)(AX*1), Y10, Y0 // gi = gw*inv
	VMULPD  (R8)(AX*1), Y6, Y1
	VMULPD  Y0, Y7, Y2
	VADDPD  Y2, Y1, Y1 // m = beta1*m + (1-beta1)*gi
	VMOVUPD Y1, (R8)(AX*1)
	VMULPD  (R9)(AX*1), Y8, Y2
	VMULPD  Y0, Y9, Y3
	VMULPD  Y0, Y3, Y3
	VADDPD  Y3, Y2, Y2 // v = beta2*v + (1-beta2)*gi*gi
	VMOVUPD Y2, (R9)(AX*1)
	VDIVPD  Y11, Y1, Y1
	VMULPD  Y1, Y13, Y1 // lr * (m/bc1)
	VDIVPD  Y12, Y2, Y2
	VSQRTPD Y2, Y2
	VADDPD  Y14, Y2, Y2 // sqrt(v/bc2) + eps
	VDIVPD  Y2, Y1, Y1
	VMOVUPD (DI)(AX*1), Y0
	VSUBPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	VMOVUPD Y15, (SI)(AX*1) // gw = 0
	ADDQ $32, AX
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	RET

// NEXT closes a rowOpAVX loop: the next group of x, at byte offset AX of CX, or
// the return.
#define NEXT(loop) \
	ADDQ $32, AX; \
	CMPQ AX, CX; \
	JLT  loop; \
	VZEROUPPER; \
	RET

// func rowOpAVX(op int, x, y *float64, n int, a, b float64)
// One of the loops between nn's kernels over n elements, a positive multiple of
// 4, by nn.go's op constants: x -= a, x /= a, x = a*x - b*y, x *= 1 - y*y,
// x += y. Each lane rounds what the scalar loop rounds, in its order; nothing is
// fused.
TEXT ·rowOpAVX(SB), NOSPLIT, $0-48
	MOVQ op+0(FP), DX
	MOVQ x+8(FP), DI
	MOVQ y+16(FP), SI
	MOVQ n+24(FP), CX
	SHLQ $3, CX
	VBROADCASTSD a+32(FP), Y14
	VBROADCASTSD b+40(FP), Y15
	K(104, Y13)
	XORQ AX, AX
	CMPQ DX, $1
	JLT  sub
	JEQ  div
	CMPQ DX, $3
	JLT  axmby
	JEQ  tanhgrad
add:
	VMOVUPD (DI)(AX*1), Y0
	VADDPD  (SI)(AX*1), Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	NEXT(add)
sub:
	VMOVUPD (DI)(AX*1), Y0
	VSUBPD  Y14, Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	NEXT(sub)
div:
	VMOVUPD (DI)(AX*1), Y0
	VDIVPD  Y14, Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	NEXT(div)
axmby:
	VMULPD  (DI)(AX*1), Y14, Y0
	VMULPD  (SI)(AX*1), Y15, Y1
	VSUBPD  Y1, Y0, Y0 // a*x - b*y
	VMOVUPD Y0, (DI)(AX*1)
	NEXT(axmby)
tanhgrad:
	VMOVUPD (SI)(AX*1), Y0
	VMULPD  Y0, Y0, Y0
	VSUBPD  Y0, Y13, Y0
	VMOVUPD (DI)(AX*1), Y1
	VMULPD  Y0, Y1, Y1 // x * (1 - y*y)
	VMOVUPD Y1, (DI)(AX*1)
	NEXT(tanhgrad)

// func fillRowsAVX(dst, src *float64, rows, cols int)
// dst[r*cols+c] = src[r] over the whole groups of four columns c of every row:
// rows >= 1, cols >= 4.
TEXT ·fillRowsAVX(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ rows+16(FP), R8
	MOVQ cols+24(FP), R9
	SHLQ $3, R9
	MOVQ R9, R10 // a row of dst, in bytes
	ANDQ $-32, R9
row:
	VBROADCASTSD (SI), Y0
	XORQ AX, AX
group:
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, R9
	JLT  group
	ADDQ $8, SI
	ADDQ R10, DI
	DECQ R8
	JNZ  row
	VZEROUPPER
	RET

// func transposeAVX(dst, src *float64, rows, cols int)
// dst[c*rows+r] = src[r*cols+c] over the whole 4×4 blocks: rows, cols >= 4. A
// block is four loads, two rounds of shuffles — pairs within each 128-bit half,
// then halves across registers — and four stores.
TEXT ·transposeAVX(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ rows+16(FP), R8
	MOVQ cols+24(FP), R9
	LEAQ (R8*8), R10 // a row of dst, in bytes
	LEAQ (R9*8), R11 // a row of src
	ANDQ $-4, R8
	ANDQ $-4, R9
	XORQ R12, R12 // r
rows:
	MOVQ SI, AX              // &src[r][0]
	LEAQ (DI)(R12*8), BX     // &dst[0][r]
	XORQ R13, R13            // c
block:
	LEAQ (AX)(R11*2), DX
	VMOVUPD (AX), Y0         // a0 a1 a2 a3
	VMOVUPD (AX)(R11*1), Y1  // b0 b1 b2 b3
	VMOVUPD (DX), Y2         // c0 c1 c2 c3
	VMOVUPD (DX)(R11*1), Y3  // d0 d1 d2 d3
	VUNPCKLPD Y1, Y0, Y4     // a0 b0 a2 b2
	VUNPCKHPD Y1, Y0, Y5     // a1 b1 a3 b3
	VUNPCKLPD Y3, Y2, Y6     // c0 d0 c2 d2
	VUNPCKHPD Y3, Y2, Y7     // c1 d1 c3 d3
	VPERM2F128 $0x20, Y6, Y4, Y0 // a0 b0 c0 d0
	VPERM2F128 $0x20, Y7, Y5, Y1 // a1 b1 c1 d1
	VPERM2F128 $0x31, Y6, Y4, Y2 // a2 b2 c2 d2
	VPERM2F128 $0x31, Y7, Y5, Y3 // a3 b3 c3 d3
	LEAQ (BX)(R10*2), DX
	VMOVUPD Y0, (BX)
	VMOVUPD Y1, (BX)(R10*1)
	VMOVUPD Y2, (DX)
	VMOVUPD Y3, (DX)(R10*1)
	ADDQ $32, AX
	LEAQ (BX)(R10*4), BX
	ADDQ $4, R13
	CMPQ R13, R9
	JLT  block
	LEAQ (SI)(R11*4), SI
	ADDQ $4, R12
	CMPQ R12, R8
	JLT  rows
	VZEROUPPER
	RET
