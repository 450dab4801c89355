#include "textflag.h"

// The AVX half of QuantizeInt8 (quantize.go has the bit contract and
// quantize_amd64.go the bounds). A block is eight coordinates, four
// float64 lanes in each of two registers, and every lane takes the
// scalar loop's operations in its order, each rounded as the scalar
// one is:
//
//	v = d + r; y = v / step
//	y = 0 where y is NaN      (a NaN is unordered with itself)
//	c = max(−127, min(127, y))
//	t = trunc(c)
//	q = t + (|c − t| ≥ ½ ? ±1 : 0), with c's sign bit
//	word = int16(q); next = float32(v − q·step)
//
// Clipping before rounding gives math.Round's result clipped after:
// every y beyond ±127 rounds to at least 127 in magnitude. c − t is
// exact, so the half test is, and ties go away from zero. OR-ing c's
// sign back signs a zero q as math.Round does (−0.3 gives −0, so a v of
// −0 leaves −0 − −0·step = +0 behind). A NaN v gives the word 0, as
// int64(NaN) does on amd64; its q does not matter, since v − anything
// keeps v's NaN, as does the scalar v − NaN.

// The constants, each broadcast to a whole register.
DATA quantConst<>+0(SB)/8, $0x7fffffffffffffff  // |x| mask
DATA quantConst<>+8(SB)/8, $0x8000000000000000  // sign mask
DATA quantConst<>+16(SB)/8, $0x3ff0000000000000 // 1.0
DATA quantConst<>+24(SB)/8, $0x3fe0000000000000 // 0.5
DATA quantConst<>+32(SB)/8, $0xc05fc00000000000 // −127.0
DATA quantConst<>+40(SB)/8, $0x405fc00000000000 // 127.0
GLOBL quantConst<>(SB), RODATA|NOPTR, $48

// QUANT turns the four y in Y into their q, using T, D and S as
// scratch: Y9 to Y14 hold the constants in quantConst's order.
#define QUANT(Y, T, D, S) \
	VCMPPD   $7, Y, Y, T;    \
	VANDPD   T, Y, Y;        \
	VMINPD   Y14, Y, Y;      \
	VMAXPD   Y13, Y, Y;      \
	VROUNDPD $3, Y, T;       \
	VSUBPD   T, Y, D;        \
	VANDPD   Y9, D, D;       \
	VCMPPD   $13, Y12, D, D; \
	VANDPD   Y10, Y, Y;      \
	VORPD    Y11, Y, S;      \
	VANDPD   S, D, D;        \
	VADDPD   D, T, T;        \
	VORPD    T, Y, Y

// func quantizeInt8AVX(dst []byte, delta, residual, next []float32, step float64)
TEXT ·quantizeInt8AVX(SB), NOSPLIT, $0-104
	MOVQ         dst_base+0(FP), DI
	MOVQ         delta_base+24(FP), SI
	MOVQ         delta_len+32(FP), CX
	MOVQ         residual_base+48(FP), DX
	MOVQ         next_base+72(FP), R8
	VBROADCASTSD step+96(FP), Y15
	VBROADCASTSD quantConst<>+0(SB), Y9
	VBROADCASTSD quantConst<>+8(SB), Y10
	VBROADCASTSD quantConst<>+16(SB), Y11
	VBROADCASTSD quantConst<>+24(SB), Y12
	VBROADCASTSD quantConst<>+32(SB), Y13
	VBROADCASTSD quantConst<>+40(SB), Y14
	SHRQ         $3, CX
	JZ           done
	PCALIGN      $32

loop:
	VCVTPS2PD   0(SI), Y0
	VCVTPS2PD   16(SI), Y1
	VCVTPS2PD   0(DX), Y2
	VCVTPS2PD   16(DX), Y3
	VADDPD      Y2, Y0, Y0
	VADDPD      Y3, Y1, Y1
	VDIVPD      Y15, Y0, Y2
	VDIVPD      Y15, Y1, Y3
	QUANT(Y2, Y4, Y5, Y6)
	QUANT(Y3, Y7, Y8, Y6)
	VCVTTPD2DQY Y2, X4
	VCVTTPD2DQY Y3, X5
	VPACKSSDW   X5, X4, X4
	VMOVDQU     X4, 0(DI)
	VMULPD      Y15, Y2, Y2
	VMULPD      Y15, Y3, Y3
	VSUBPD      Y2, Y0, Y0
	VSUBPD      Y3, Y1, Y1
	VCVTPD2PSY  Y0, X0
	VCVTPD2PSY  Y1, X1
	VMOVUPS     X0, 0(R8)
	VMOVUPS     X1, 16(R8)
	ADDQ        $32, SI
	ADDQ        $32, DX
	ADDQ        $32, R8
	ADDQ        $16, DI
	DECQ        CX
	JNZ         loop

done:
	VZEROUPPER
	RET
