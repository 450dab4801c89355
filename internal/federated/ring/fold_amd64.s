#include "textflag.h"

// The SSE2 half of fold (fold_amd64.go has the contract). Each block is
// four 16-byte registers of dst and four of src; PADDW/PSUBW act on
// eight 16-bit lanes and PADDQ/PSUBQ on two 64-bit lanes, each wrapping
// inside its lane, which is addition and subtraction in ℤ/2¹⁶ and
// ℤ/2⁶⁴. Loads and stores are unaligned (MOVOU): a vector starts
// wherever its variable does in the payload.

// BLOCK folds the 64 bytes at SI into the 64 bytes at DI with OP and
// steps both pointers past them.
#define BLOCK(OP) \
	MOVOU 0(DI), X0;  \
	MOVOU 16(DI), X1; \
	MOVOU 32(DI), X2; \
	MOVOU 48(DI), X3; \
	MOVOU 0(SI), X4;  \
	MOVOU 16(SI), X5; \
	MOVOU 32(SI), X6; \
	MOVOU 48(SI), X7; \
	OP    X4, X0;     \
	OP    X5, X1;     \
	OP    X6, X2;     \
	OP    X7, X3;     \
	MOVOU X0, 0(DI);  \
	MOVOU X1, 16(DI); \
	MOVOU X2, 32(DI); \
	MOVOU X3, 48(DI); \
	ADDQ  $64, DI;    \
	ADDQ  $64, SI

// func foldSSE2(dst, src []byte, wide, sub bool)
TEXT ·foldSSE2(SB), NOSPLIT, $0-50
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	SHRQ $6, CX
	JZ   done
	CMPB wide+48(FP), $0
	JNE  width8
	CMPB sub+49(FP), $0
	JNE  sub16

add16:
	BLOCK(PADDW)
	DECQ CX
	JNZ  add16
	RET

sub16:
	BLOCK(PSUBW)
	DECQ CX
	JNZ  sub16
	RET

width8:
	CMPB sub+49(FP), $0
	JNE  sub64

add64:
	BLOCK(PADDQ)
	DECQ CX
	JNZ  add64
	RET

sub64:
	BLOCK(PSUBQ)
	DECQ CX
	JNZ  sub64

done:
	RET
