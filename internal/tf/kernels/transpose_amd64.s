#include "textflag.h"

// func transposeAVX(dst, src []float32, m, n, lds, ldd int)
//
// Writes src[i·lds+j] to dst[j·ldd+i] for every i < m and j < n, in 8×8
// tiles held in registers; m, n ≥ 8, and the caller (matmul_amd64.go)
// has checked that src and dst hold (m-1)·lds+n and (n-1)·ldd+m
// elements. A matrix whose sides are not multiples of eight ends in a
// tile that overlaps the one before it: its overlap is written twice,
// with the same values. Every instruction that touches a float moves
// its bits as they are (VMOVUPS, VINSERTF128, VUNPCK*PS, VSHUFPS) and
// none computes, so NaN payloads, -0 and subnormals come through
// unchanged.
//
// A tile loads source rows r and r+4 into the low and high halves of one
// register, columns 0-3 and then 4-7, so that each 128-bit lane holds a
// 4×4 block; VUNPCKLPS/VUNPCKHPS and VSHUFPS transpose the blocks in
// their lanes, which leaves destination row c in register c.
//
//	SI  source tile        R12 SI + 4·lds·4, its row 4
//	DI  destination tile   R13 DI + 4·ldd·4, its row 4
//	R8  4·lds, R9 12·lds   R10 4·ldd, R11 12·ldd
//	AX  i, the tile's first source row      CX m-8
//	BX  j, the tile's first source column   DX n-8
//	R14 the destination of the tile four on along the row
TEXT ·transposeAVX(SB), NOSPLIT, $0-80
	MOVQ lds+64(FP), R8
	SHLQ $2, R8
	LEAQ (R8)(R8*2), R9
	MOVQ ldd+72(FP), R10
	SHLQ $2, R10
	LEAQ (R10)(R10*2), R11
	MOVQ m+48(FP), CX
	SUBQ $8, CX
	MOVQ n+56(FP), DX
	SUBQ $8, DX
	XORQ AX, AX

	PCALIGN $64
tRow:
	XORQ BX, BX

tTile:
	MOVQ  AX, SI
	IMULQ R8, SI
	LEAQ  (SI)(BX*4), SI
	ADDQ  src_base+24(FP), SI
	LEAQ  (SI)(R8*4), R12
	MOVQ  BX, DI
	IMULQ R10, DI
	LEAQ  (DI)(AX*4), DI
	ADDQ  dst_base+0(FP), DI
	LEAQ  (DI)(R10*4), R13

	VMOVUPS     (SI), X0
	VMOVUPS     (SI)(R8*1), X1
	VMOVUPS     (SI)(R8*2), X2
	VMOVUPS     (SI)(R9*1), X3
	VINSERTF128 $1, (R12), Y0, Y0
	VINSERTF128 $1, (R12)(R8*1), Y1, Y1
	VINSERTF128 $1, (R12)(R8*2), Y2, Y2
	VINSERTF128 $1, (R12)(R9*1), Y3, Y3
	VMOVUPS     16(SI), X4
	VMOVUPS     16(SI)(R8*1), X5
	VMOVUPS     16(SI)(R8*2), X6
	VMOVUPS     16(SI)(R9*1), X7
	VINSERTF128 $1, 16(R12), Y4, Y4
	VINSERTF128 $1, 16(R12)(R8*1), Y5, Y5
	VINSERTF128 $1, 16(R12)(R8*2), Y6, Y6
	VINSERTF128 $1, 16(R12)(R9*1), Y7, Y7

	// Rows a, b, c, d of a lane's block: a0 b0 a1 b1, a2 b2 a3 b3,
	// c0 d0 c1 d1, c2 d2 c3 d3, then columns a0 b0 c0 d0 … a3 b3 c3 d3.
	VUNPCKLPS Y1, Y0, Y8
	VUNPCKHPS Y1, Y0, Y9
	VUNPCKLPS Y3, Y2, Y10
	VUNPCKHPS Y3, Y2, Y11
	VSHUFPS   $0x44, Y10, Y8, Y0
	VSHUFPS   $0xee, Y10, Y8, Y1
	VSHUFPS   $0x44, Y11, Y9, Y2
	VSHUFPS   $0xee, Y11, Y9, Y3
	VUNPCKLPS Y5, Y4, Y8
	VUNPCKHPS Y5, Y4, Y9
	VUNPCKLPS Y7, Y6, Y10
	VUNPCKHPS Y7, Y6, Y11
	VSHUFPS   $0x44, Y10, Y8, Y4
	VSHUFPS   $0xee, Y10, Y8, Y5
	VSHUFPS   $0x44, Y11, Y9, Y6
	VSHUFPS   $0xee, Y11, Y9, Y7

	// Destination lines miss the cache far more than source lines,
	// which are read in order: when the row has a tile four on, fetch
	// its eight destination lines now.
	LEAQ       32(BX), R14
	CMPQ       R14, DX
	JGT        tStore
	MOVQ       R10, R14
	SHLQ       $5, R14
	ADDQ       DI, R14
	PREFETCHT0 (R14)
	PREFETCHT0 (R14)(R10*1)
	PREFETCHT0 (R14)(R10*2)
	PREFETCHT0 (R14)(R11*1)
	LEAQ       (R14)(R10*4), R14
	PREFETCHT0 (R14)
	PREFETCHT0 (R14)(R10*1)
	PREFETCHT0 (R14)(R10*2)
	PREFETCHT0 (R14)(R11*1)

tStore:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (DI)(R10*1)
	VMOVUPS Y2, (DI)(R10*2)
	VMOVUPS Y3, (DI)(R11*1)
	VMOVUPS Y4, (R13)
	VMOVUPS Y5, (R13)(R10*1)
	VMOVUPS Y6, (R13)(R10*2)
	VMOVUPS Y7, (R13)(R11*1)

	// The next tile along the row, the last one pulled back to end at n.
	CMPQ    BX, DX
	JGE     tRowDone
	ADDQ    $8, BX
	CMPQ    BX, DX
	CMOVQGT DX, BX
	JMP     tTile

tRowDone:
	CMPQ    AX, CX
	JGE     tDone
	ADDQ    $8, AX
	CMPQ    AX, CX
	CMOVQGT CX, AX
	JMP     tRow

tDone:
	VZEROUPPER
	RET

// func copyRunsAVX(dst, src []float32, n, runs, ldd, lds int)
//
// For r = 0, 1, …, runs-1: dst[r·ldd:][:n] = src[r·lds:][:n], blocks of
// eight elements, then the rest one at a time, and runs of one float in
// a loop of their own; moves only, as above.
TEXT ·copyRunsAVX(SB), NOSPLIT, $0-80
	PCALIGN $64
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
	JZ   copyDone
	CMPQ R9, $1
	JEQ  copyOnes

copyRun:
	XORQ CX, CX
	CMPQ CX, R10
	JEQ  copyTail

copyBlock:
	VMOVUPS (SI)(CX*4), Y0
	VMOVUPS Y0, (DI)(CX*4)
	ADDQ    $8, CX
	CMPQ    CX, R10
	JLT     copyBlock

copyTail:
	CMPQ CX, R9
	JEQ  copyNext
	MOVL (SI)(CX*4), AX
	MOVL AX, (DI)(CX*4)
	INCQ CX
	JMP  copyTail

copyNext:
	ADDQ R11, DI
	ADDQ R12, SI
	DECQ DX
	JNZ  copyRun

copyDone:
	VZEROUPPER
	RET

	// Runs of one float, a single-channel band's: a strided loop.
	PCALIGN $32
copyOnes:
	MOVL (SI), AX
	MOVL AX, (DI)
	ADDQ R11, DI
	ADDQ R12, SI
	DECQ DX
	JNZ  copyOnes
	VZEROUPPER
	RET
