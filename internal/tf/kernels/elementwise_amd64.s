#include "textflag.h"

// The AVX halves of the element-wise kernels (elementwise_amd64.go has
// the bounds, kernels.go and conv.go the Go loops they equal bit for
// bit). A lane is one element or one channel: no value crosses lanes,
// nothing multiplies, and no loop branches on a value. A comparison is
// VCMPPS with predicate 0x1e, GT_OQ: false when either side is NaN and
// for ±0 against ±0, as Go's > is. An add takes the accumulator, or the
// source, as its first operand, as the compiled Go loop does; of two
// NaNs that operand's payload survives, which Go itself does not pin.

// lanes<> is 0, 1, …, 7: a block's channel offsets, as int32 lanes.
DATA lanes<>+0(SB)/4, $0
DATA lanes<>+4(SB)/4, $1
DATA lanes<>+8(SB)/4, $2
DATA lanes<>+12(SB)/4, $3
DATA lanes<>+16(SB)/4, $4
DATA lanes<>+20(SB)/4, $5
DATA lanes<>+24(SB)/4, $6
DATA lanes<>+28(SB)/4, $7
GLOBL lanes<>(SB), RODATA|NOPTR, $32

// POOLSETUP loads the registers both pool loops share: DI, SI, DX and
// R8 are set by the caller; CX = ow windows, R9 = c, R10 = c rounded
// down to blocks, R11 = i0, R12 = c·4 bytes, and the constants Y15 =
// lanes, Y13 = all ones (-1), Y12 = c and Y11 = rowC - c in every lane.
#define POOLSETUP \
	MOVQ         ow+96(FP), CX;    \
	MOVQ         c+104(FP), R9;    \
	MOVQ         i0+112(FP), R11;  \
	MOVQ         rowC+120(FP), AX; \
	MOVQ         R9, R10;          \
	ANDQ         $-8, R10;         \
	MOVQ         R9, R12;          \
	SHLQ         $2, R12;          \
	VMOVDQU      lanes<>(SB), Y15; \
	VPCMPEQD     Y13, Y13, Y13;    \
	VMOVQ        R9, X12;          \
	VPBROADCASTD X12, Y12;         \
	SUBQ         R9, AX;           \
	VMOVQ        AX, X11;          \
	VPBROADCASTD X11, Y11

// POOLINDEX sets Y0 to the flat input indices of the block's lanes in
// the window's first position: i0 + BX + lane.
#define POOLINDEX \
	LEAQ         (R11)(BX*1), AX; \
	VMOVQ        AX, X0;          \
	VPBROADCASTD X0, Y0;          \
	VPADDD       Y15, Y0, Y0

// func reluAVX(dst, src []float32)
//
// dst = src & (src > +0), over whole blocks of eight.
TEXT ·reluAVX(SB), NOSPLIT, $0-48
	MOVQ   dst_base+0(FP), DI
	MOVQ   src_base+24(FP), SI
	MOVQ   src_len+32(FP), CX
	VXORPS Y15, Y15, Y15
	SHRQ   $3, CX
	JZ     reluDone

reluLoop:
	VMOVUPS (SI), Y0
	VCMPPS  $0x1e, Y15, Y0, Y1
	VANDPS  Y0, Y1, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     reluLoop

reluDone:
	VZEROUPPER
	RET

// func reluGradAVX(dst, g, x []float32)
//
// dst = g & (x > +0), over whole blocks of eight.
TEXT ·reluGradAVX(SB), NOSPLIT, $0-72
	MOVQ   dst_base+0(FP), DI
	MOVQ   g_base+24(FP), DX
	MOVQ   x_base+48(FP), SI
	MOVQ   x_len+56(FP), CX
	VXORPS Y15, Y15, Y15
	SHRQ   $3, CX
	JZ     reluGradDone

reluGradLoop:
	VMOVUPS (SI), Y0
	VCMPPS  $0x1e, Y15, Y0, Y0
	VANDPS  (DX), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	DECQ    CX
	JNZ     reluGradLoop

reluGradDone:
	VZEROUPPER
	RET

// func biasAddAVX(dst, src, bias []float32)
//
// dst = src + bias row by row, len(src) a multiple of len(bias) ≥ 1:
// blocks of eight channels, then the rest one at a time.
TEXT ·biasAddAVX(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), AX
	MOVQ bias_base+48(FP), BX
	MOVQ bias_len+56(FP), R9
	MOVQ R9, R10
	ANDQ $-8, R10
	LEAQ (SI)(AX*4), R11
	CMPQ SI, R11
	JEQ  biasDone

biasRow:
	XORQ CX, CX
	CMPQ CX, R10
	JEQ  biasTail

biasBlock:
	VMOVUPS (SI)(CX*4), Y0
	VADDPS  (BX)(CX*4), Y0, Y0
	VMOVUPS Y0, (DI)(CX*4)
	ADDQ    $8, CX
	CMPQ    CX, R10
	JLT     biasBlock

biasTail:
	CMPQ   CX, R9
	JEQ    biasNext
	VMOVSS (SI)(CX*4), X0
	VADDSS (BX)(CX*4), X0, X0
	VMOVSS X0, (DI)(CX*4)
	INCQ   CX
	JMP    biasTail

biasNext:
	LEAQ (SI)(R9*4), SI
	LEAQ (DI)(R9*4), DI
	CMPQ SI, R11
	JB   biasRow

biasDone:
	VZEROUPPER
	RET

// func addRunsAVX(dst, src []float32, n, runs, ldd, lds int)
//
// For r = 0, 1, …, runs-1 in turn: dst[r·ldd:][:n] += src[r·lds:][:n],
// blocks of eight elements, then the rest one at a time.
TEXT ·addRunsAVX(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ n+48(FP), R9
	MOVQ runs+56(FP), DX
	MOVQ ldd+64(FP), R11
	MOVQ lds+72(FP), R12
	MOVQ R9, R10
	ANDQ $-8, R10
	SHLQ $2, R11
	SHLQ $2, R12
	TESTQ DX, DX
	JZ   runsDone

runsRun:
	XORQ CX, CX
	CMPQ CX, R10
	JEQ  runsTail

runsBlock:
	VMOVUPS (DI)(CX*4), Y0
	VADDPS  (SI)(CX*4), Y0, Y0
	VMOVUPS Y0, (DI)(CX*4)
	ADDQ    $8, CX
	CMPQ    CX, R10
	JLT     runsBlock

runsTail:
	CMPQ   CX, R9
	JEQ    runsNext
	VMOVSS (DI)(CX*4), X0
	VADDSS (SI)(CX*4), X0, X0
	VMOVSS X0, (DI)(CX*4)
	INCQ   CX
	JMP    runsTail

runsNext:
	ADDQ R11, DI
	ADDQ R12, SI
	DECQ DX
	JNZ  runsRun

runsDone:
	VZEROUPPER
	RET

// func maxPool2x2AVX2(dst, top, bottom []float32, argmax []int32, ow, c, i0, rowC int)
//
// One output row of the 2×2 stride-2 max pool, channels [0, c&^7) of
// each of its ow windows. top and bottom are the window's two input
// rows from the first window on, i0 is the flat index of top[0] in the
// input and rowC the input's row length in floats; argmax, when not nil,
// receives each maximum's flat index. A window's four positions are
// taken in (ky, kx) order, each replacing the running maximum (Y3, from
// -Inf) and its index (Y4, from -1) only where strictly greater.
TEXT ·maxPool2x2AVX2(SB), NOSPLIT, $0-128
	MOVQ     dst_base+0(FP), DI
	MOVQ     top_base+24(FP), SI
	MOVQ     bottom_base+48(FP), DX
	MOVQ     argmax_base+72(FP), R8
	POOLSETUP
	VPSLLD   $23, Y13, Y14 // 0xff800000, -Inf
	TESTQ    R10, R10
	JZ       poolDone
	TESTQ    CX, CX
	JZ       poolDone

poolWindow:
	XORQ BX, BX

poolBlock:
	POOLINDEX
	VMOVUPS   (SI)(BX*4), Y1
	VCMPPS    $0x1e, Y14, Y1, Y2
	VBLENDVPS Y2, Y1, Y14, Y3
	VBLENDVPS Y2, Y0, Y13, Y4
	LEAQ      (SI)(R12*1), AX
	VPADDD    Y12, Y0, Y0
	VMOVUPS   (AX)(BX*4), Y1
	VCMPPS    $0x1e, Y3, Y1, Y2
	VBLENDVPS Y2, Y1, Y3, Y3
	VBLENDVPS Y2, Y0, Y4, Y4
	VPADDD    Y11, Y0, Y0
	VMOVUPS   (DX)(BX*4), Y1
	VCMPPS    $0x1e, Y3, Y1, Y2
	VBLENDVPS Y2, Y1, Y3, Y3
	VBLENDVPS Y2, Y0, Y4, Y4
	LEAQ      (DX)(R12*1), AX
	VPADDD    Y12, Y0, Y0
	VMOVUPS   (AX)(BX*4), Y1
	VCMPPS    $0x1e, Y3, Y1, Y2
	VBLENDVPS Y2, Y1, Y3, Y3
	VBLENDVPS Y2, Y0, Y4, Y4
	VMOVUPS   Y3, (DI)(BX*4)
	TESTQ     R8, R8
	JZ        poolNoArg
	VMOVDQU   Y4, (R8)(BX*4)

poolNoArg:
	ADDQ $8, BX
	CMPQ BX, R10
	JLT  poolBlock
	LEAQ (SI)(R12*2), SI
	LEAQ (DX)(R12*2), DX
	ADDQ R12, DI
	LEAQ (R11)(R9*2), R11
	TESTQ R8, R8
	JZ   poolNextWindow
	ADDQ R12, R8

poolNextWindow:
	DECQ CX
	JNZ  poolWindow

poolDone:
	VZEROUPPER
	RET

// func maxPoolGrad2x2AVX2(top, bottom, grad []float32, argmax []int32, ow, c, i0, rowC int)
//
// The gradient of one such output row, channels [0, c&^7) of each
// window: top and bottom are the input gradient's two rows under it,
// and each of a window's four positions receives +0 + grad where the
// window's argmax lane names it and +0 where it does not.
TEXT ·maxPoolGrad2x2AVX2(SB), NOSPLIT, $0-128
	MOVQ   top_base+0(FP), SI
	MOVQ   bottom_base+24(FP), DX
	MOVQ   grad_base+48(FP), DI
	MOVQ   argmax_base+72(FP), R8
	POOLSETUP
	VXORPS Y14, Y14, Y14
	TESTQ  R10, R10
	JZ     gradDone
	TESTQ  CX, CX
	JZ     gradDone

gradWindow:
	XORQ BX, BX

gradBlock:
	POOLINDEX
	VADDPS   (DI)(BX*4), Y14, Y5
	VMOVDQU  (R8)(BX*4), Y6
	VPCMPEQD Y6, Y0, Y1
	VANDPS   Y5, Y1, Y1
	VMOVUPS  Y1, (SI)(BX*4)
	LEAQ     (SI)(R12*1), AX
	VPADDD   Y12, Y0, Y0
	VPCMPEQD Y6, Y0, Y1
	VANDPS   Y5, Y1, Y1
	VMOVUPS  Y1, (AX)(BX*4)
	VPADDD   Y11, Y0, Y0
	VPCMPEQD Y6, Y0, Y1
	VANDPS   Y5, Y1, Y1
	VMOVUPS  Y1, (DX)(BX*4)
	LEAQ     (DX)(R12*1), AX
	VPADDD   Y12, Y0, Y0
	VPCMPEQD Y6, Y0, Y1
	VANDPS   Y5, Y1, Y1
	VMOVUPS  Y1, (AX)(BX*4)
	ADDQ     $8, BX
	CMPQ     BX, R10
	JLT      gradBlock
	LEAQ     (SI)(R12*2), SI
	LEAQ     (DX)(R12*2), DX
	ADDQ     R12, DI
	ADDQ     R12, R8
	LEAQ     (R11)(R9*2), R11
	DECQ     CX
	JNZ      gradWindow

gradDone:
	VZEROUPPER
	RET
