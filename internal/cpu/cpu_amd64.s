#include "textflag.h"

// func haveAVX() bool
//
// CPUID.1:ECX says the CPU has AVX (bit 28) and the OS uses XSAVE (bit
// 27); XCR0 bits 1 and 2 say the OS saves the XMM and YMM state.
TEXT ·haveAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  noavx
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx
	MOVB $1, ret+0(FP)
	RET

noavx:
	MOVB $0, ret+0(FP)
	RET

// func haveAVX2() bool
//
// CPUID.(EAX=7,ECX=0):EBX bit 5, once CPUID.0 says leaf 7 exists.
TEXT ·haveAVX2(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  noavx2
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)
	RET

noavx2:
	MOVB $0, ret+0(FP)
	RET
