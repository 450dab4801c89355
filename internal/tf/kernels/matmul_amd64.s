#include "textflag.h"

// The AVX half of gemm (kernels.go has the contract). Both kernels below
// compute, for every row i and column j,
//
//	for kk := 0; kk < k; kk++ {
//		if a[i,kk] != 0 { c[i,j] = c[i,j] + float32(a[i,kk]*b[kk,j]) }
//	}
//
// eight columns j to a register, where a[i,kk] is a[i·lda+kk], b[kk,j]
// is b[kk·ldb+j] and c[i,j] is c[i·ldc+j]. A lane is one output element
// and no instruction moves a value between lanes, so each element sees
// exactly the scalar loop's operations in the scalar loop's order. The
// product is rounded by VMULPS and the sum by VADDPS; there is no fused
// multiply-add in this file and there must never be one, because it
// rounds once where the scalar loop rounds twice.
//
// Columns past n are reached only through VMASKMOVPS, which neither
// reads nor writes (nor faults on) a lane whose mask is clear.
//
// Alignment: each kernel's row loop is aligned to 64 bytes and its inner
// loop to 32 with PCALIGN, which also aligns the function to 64, so every
// instruction sits at the same offset in its cache line in every binary:
// where the linker puts the package no longer decides whether a loop
// straddles a fetch line.

// laneMask<> is eight set lanes followed by eight clear ones: the 32
// bytes at offset 32-4r select lanes [0, r).
DATA laneMask<>+0(SB)/8, $0xffffffffffffffff
DATA laneMask<>+8(SB)/8, $0xffffffffffffffff
DATA laneMask<>+16(SB)/8, $0xffffffffffffffff
DATA laneMask<>+24(SB)/8, $0xffffffffffffffff
DATA laneMask<>+32(SB)/8, $0
DATA laneMask<>+40(SB)/8, $0
DATA laneMask<>+48(SB)/8, $0
DATA laneMask<>+56(SB)/8, $0
GLOBL laneMask<>(SB), RODATA|NOPTR, $64

// func matMulAxpyAVX(c, a, b []float32, rows, k, n, lda, ldb, ldc int)
//
// The streaming shape, for any n ≥ 1: row by row, one pass along the c
// row (which stays in L1) for every two non-zero a[i,kk], adding first
// a[i,kk]·b[kk,:] and then a[i,kk2]·b[kk2,:], kk < kk2, each along a
// contiguous row of b. Two products to a pass halve the loads and stores
// of c; a row's odd last product gets a pass of its own. rows, k, n ≥ 1
// and ldc ≥ n; the caller has checked that c, a and b hold
// (rows-1)·ldc+n, (rows-1)·lda+k and (k-1)·ldb+n elements.
//
//	DI  c row          SI  a row         R9  rows left
//	R10 k              R12 4·ldb, the row stride of b
//	R13 4n rounded down to 128 (four registers)
//	R11 4n rounded down to 32 (one register)
//	CX  kk             BX  b row kk      Y15 a[i,kk] in every lane
//	R8  kk2            R14 b row kk2     Y13 a[i,kk2] in every lane
//	DX  byte offset of column j          Y14 mask of the n%8 tail lanes
//
// No register is left for n itself: a pass has a tail when n%8 ≠ 0, and
// it reads that bit off the argument; the strides of a and c are read
// off theirs once a row.
TEXT ·matMulAxpyAVX(SB), NOSPLIT, $0-120
	MOVQ c_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ rows+72(FP), R9
	MOVQ k+80(FP), R10
	MOVQ n+88(FP), R12
	MOVQ R12, AX
	ANDQ $7, AX
	SHLQ $2, AX
	LEAQ laneMask<>+32(SB), DX
	SUBQ AX, DX
	VMOVUPS (DX), Y14
	SHLQ $2, R12
	MOVQ R12, R13
	ANDQ $-128, R13
	MOVQ R12, R11
	ANDQ $-32, R11
	MOVQ ldb+104(FP), R12
	SHLQ $2, R12

	PCALIGN $64
axpyRow:
	MOVQ b_base+48(FP), BX
	XORQ CX, CX

axpyK:
	MOVL (SI)(CX*4), AX
	ADDL AX, AX // shifts the sign out: zero for +0 and -0 only
	JZ   axpyNextK
	VBROADCASTSS (SI)(CX*4), Y15
	// The next non-zero a[i,kk2], if the row has one.
	MOVQ CX, R8
	LEAQ (BX)(R12*1), R14
axpyScan:
	INCQ R8
	CMPQ R8, R10
	JGE  axpySingle
	MOVL (SI)(R8*4), AX
	ADDL AX, AX
	JNZ  axpyPair
	ADDQ R12, R14
	JMP  axpyScan

axpyPair:
	VBROADCASTSS (SI)(R8*4), Y13
	XORQ DX, DX
	CMPQ DX, R13
	JGE  axpyPairOnes

	PCALIGN $32
axpyPairFours:
	VMULPS  (BX)(DX*1), Y15, Y0
	VMULPS  32(BX)(DX*1), Y15, Y1
	VMULPS  64(BX)(DX*1), Y15, Y2
	VMULPS  96(BX)(DX*1), Y15, Y3
	VMULPS  (R14)(DX*1), Y13, Y4
	VMULPS  32(R14)(DX*1), Y13, Y5
	VMULPS  64(R14)(DX*1), Y13, Y6
	VMULPS  96(R14)(DX*1), Y13, Y7
	VADDPS  (DI)(DX*1), Y0, Y0
	VADDPS  32(DI)(DX*1), Y1, Y1
	VADDPS  64(DI)(DX*1), Y2, Y2
	VADDPS  96(DI)(DX*1), Y3, Y3
	VADDPS  Y4, Y0, Y0
	VADDPS  Y5, Y1, Y1
	VADDPS  Y6, Y2, Y2
	VADDPS  Y7, Y3, Y3
	VMOVUPS Y0, (DI)(DX*1)
	VMOVUPS Y1, 32(DI)(DX*1)
	VMOVUPS Y2, 64(DI)(DX*1)
	VMOVUPS Y3, 96(DI)(DX*1)
	ADDQ    $128, DX
	CMPQ    DX, R13
	JLT     axpyPairFours

axpyPairOnes:
	CMPQ DX, R11
	JGE  axpyPairTail
	VMULPS  (BX)(DX*1), Y15, Y0
	VMULPS  (R14)(DX*1), Y13, Y4
	VADDPS  (DI)(DX*1), Y0, Y0
	VADDPS  Y4, Y0, Y0
	VMOVUPS Y0, (DI)(DX*1)
	ADDQ    $32, DX
	JMP     axpyPairOnes

axpyPairTail:
	TESTQ $7, n+88(FP)
	JZ    axpyPairNext
	VMASKMOVPS (BX)(DX*1), Y14, Y0
	VMASKMOVPS (R14)(DX*1), Y14, Y4
	VMASKMOVPS (DI)(DX*1), Y14, Y1
	VMULPS     Y0, Y15, Y0
	VMULPS     Y4, Y13, Y4
	VADDPS     Y1, Y0, Y0
	VADDPS     Y4, Y0, Y0
	VMASKMOVPS Y0, Y14, (DI)(DX*1)

axpyPairNext:
	MOVQ R8, CX
	MOVQ R14, BX
	JMP  axpyNextK

axpySingle:
	XORQ DX, DX
	CMPQ DX, R13
	JGE  axpyOnes

	PCALIGN $32
axpyFours:
	VMULPS  (BX)(DX*1), Y15, Y0
	VMULPS  32(BX)(DX*1), Y15, Y1
	VMULPS  64(BX)(DX*1), Y15, Y2
	VMULPS  96(BX)(DX*1), Y15, Y3
	VADDPS  (DI)(DX*1), Y0, Y0
	VADDPS  32(DI)(DX*1), Y1, Y1
	VADDPS  64(DI)(DX*1), Y2, Y2
	VADDPS  96(DI)(DX*1), Y3, Y3
	VMOVUPS Y0, (DI)(DX*1)
	VMOVUPS Y1, 32(DI)(DX*1)
	VMOVUPS Y2, 64(DI)(DX*1)
	VMOVUPS Y3, 96(DI)(DX*1)
	ADDQ    $128, DX
	CMPQ    DX, R13
	JLT     axpyFours

axpyOnes:
	CMPQ DX, R11
	JGE  axpyTail
	VMULPS  (BX)(DX*1), Y15, Y0
	VADDPS  (DI)(DX*1), Y0, Y0
	VMOVUPS Y0, (DI)(DX*1)
	ADDQ    $32, DX
	JMP     axpyOnes

axpyTail:
	TESTQ $7, n+88(FP)
	JZ    axpyNextK
	VMASKMOVPS (BX)(DX*1), Y14, Y0
	VMASKMOVPS (DI)(DX*1), Y14, Y1
	VMULPS     Y0, Y15, Y0
	VADDPS     Y1, Y0, Y0
	VMASKMOVPS Y0, Y14, (DI)(DX*1)

axpyNextK:
	ADDQ R12, BX
	INCQ CX
	CMPQ CX, R10
	JLT  axpyK

	MOVQ ldc+112(FP), AX
	LEAQ (DI)(AX*4), DI
	MOVQ lda+96(FP), AX
	LEAQ (SI)(AX*4), SI
	DECQ R9
	JNZ  axpyRow
	VZEROUPPER
	RET

// ROW4 is one row's step of matMulRows4AVX: skip a zero a[i,kk], else
// add its product with the b row in Y8:Y9 to the row's accumulators.
#define ROW4(aikk, acc0, acc1, skip) \
	MOVL         aikk, AX      \
	ADDL         AX, AX        \
	JZ           skip          \
	VBROADCASTSS aikk, Y12     \
	VMULPS       Y8, Y12, Y13  \
	VMULPS       Y9, Y12, Y14  \
	VADDPS       Y13, acc0, acc0 \
	VADDPS       Y14, acc1, acc1 \
skip:

// func matMulRows4AVX(c, a, b []float32, rows, k, n, lda, ldb, ldc int)
//
// The narrow shape, 1 ≤ n ≤ 16, rows a positive multiple of 4: four rows
// of c are held in registers over the whole kk loop and stepped together,
// so one row's chain of dependent additions (four cycles each) runs in
// the shadow of the other three and a row of b is loaded once for four.
// Each row still tests its own a[i,kk] for zero.
//
//	DI  c, four rows   SI  &a[i,kk]      R8  b
//	R9  rows left      R10 4·ldb         R11 4·ldc
//	R12 4·lda, R13 12·lda: a[i+1], a[i+2], a[i+3] are at SI+R12, SI+2·R12, SI+R13
//	BX  b row kk       CX  kk left       DX  c row i+2
//	Y0:Y1 … Y6:Y7 the four rows of c     Y8:Y9 b[kk,:]
//	Y10, Y11 masks of lanes [0,n) and [8,n)
TEXT ·matMulRows4AVX(SB), NOSPLIT, $0-120
	MOVQ c_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), R8
	MOVQ rows+72(FP), R9
	MOVQ n+88(FP), R11

	// Y10 selects min(n,8) lanes, Y11 max(n-8,0).
	MOVQ  $8, AX
	CMPQ  R11, AX
	CMOVQLT R11, AX
	MOVQ  R11, DX
	SUBQ  AX, DX
	SHLQ  $2, AX
	SHLQ  $2, DX
	LEAQ  laneMask<>+32(SB), BX
	MOVQ  BX, CX
	SUBQ  AX, BX
	SUBQ  DX, CX
	VMOVUPS (BX), Y10
	VMOVUPS (CX), Y11

	MOVQ lda+96(FP), R12
	SHLQ $2, R12
	LEAQ (R12)(R12*2), R13
	MOVQ ldb+104(FP), R10
	SHLQ $2, R10
	MOVQ ldc+112(FP), R11
	SHLQ $2, R11

	PCALIGN $64
rows4Group:
	LEAQ (DI)(R11*2), DX
	VMASKMOVPS (DI), Y10, Y0
	VMASKMOVPS 32(DI), Y11, Y1
	VMASKMOVPS (DI)(R11*1), Y10, Y2
	VMASKMOVPS 32(DI)(R11*1), Y11, Y3
	VMASKMOVPS (DX), Y10, Y4
	VMASKMOVPS 32(DX), Y11, Y5
	VMASKMOVPS (DX)(R11*1), Y10, Y6
	VMASKMOVPS 32(DX)(R11*1), Y11, Y7
	MOVQ R8, BX
	MOVQ k+80(FP), CX

	PCALIGN $32
rows4K:
	VMASKMOVPS (BX), Y10, Y8
	VMASKMOVPS 32(BX), Y11, Y9
	ROW4((SI), Y0, Y1, rows4Skip0)
	ROW4((SI)(R12*1), Y2, Y3, rows4Skip1)
	ROW4((SI)(R12*2), Y4, Y5, rows4Skip2)
	ROW4((SI)(R13*1), Y6, Y7, rows4Skip3)
	ADDQ $4, SI
	ADDQ R10, BX
	DECQ CX
	JNZ  rows4K

	VMASKMOVPS Y0, Y10, (DI)
	VMASKMOVPS Y1, Y11, 32(DI)
	VMASKMOVPS Y2, Y10, (DI)(R11*1)
	VMASKMOVPS Y3, Y11, 32(DI)(R11*1)
	VMASKMOVPS Y4, Y10, (DX)
	VMASKMOVPS Y5, Y11, 32(DX)
	VMASKMOVPS Y6, Y10, (DX)(R11*1)
	VMASKMOVPS Y7, Y11, 32(DX)(R11*1)
	// SI is at a[i,k]: back to a[i,0], then four rows on.
	MOVQ k+80(FP), AX
	SHLQ $2, AX
	SUBQ AX, SI
	LEAQ (SI)(R12*4), SI
	LEAQ (DI)(R11*4), DI
	SUBQ $4, R9
	JNZ  rows4Group
	VZEROUPPER
	RET
