#include "textflag.h"

// func HasAVX() bool
// CPUID.1:ECX says the CPU has AVX (bit 28) and the OS uses XSAVE (bit 27);
// XCR0 bits 1 and 2 say the OS saves the XMM and YMM state.
TEXT ·HasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVB $1, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET

// func HasAVX2FMA() bool
// CPUID.1:ECX bit 12 says FMA, CPUID.7.0:EBX bit 5 AVX2; HasAVX has vouched
// for the YMM state. With FMA (and AVX) math.Exp is on its FMA path as well.
TEXT ·HasAVX2FMA(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	TESTL $0x1000, CX
	JZ   no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	TESTL $0x20, BX
	JZ   no
	MOVB $1, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET
