#include "textflag.h"

// func kernel4x8(c *float64, ldc int, a *float64, aRow, aK int, panel *float64, kn int, resume bool)
//
// c[i*ldc+j] = s + Σ_k a[i*aRow+k*aK] · panel[k*8+j] for i < 4, j < 8, k < kn,
// where s is +0, or what c[i*ldc+j] held when resume is set. Every element is
// reduced over k in index order with a rounded multiply and a rounded add
// (VMULPD then VADDPD, never VFMADD): the eight accumulators Y0–Y7 are the
// 4×8 tile of c, the vector lanes are output columns, and no lane ever sees
// another lane's partial sum. Strides are in elements. The caller guarantees
// kn ≥ 1 and that all three operands cover what is read and written.
TEXT ·kernel4x8(SB), NOSPLIT, $0-57
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ aRow+24(FP), R9
	MOVQ aK+32(FP), R10
	MOVQ panel+40(FP), DX
	MOVQ kn+48(FP), CX
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	LEAQ (DI)(R8*1), R11  // rows 1–3 of the c tile
	LEAQ (DI)(R8*2), R12
	LEAQ (R11)(R8*2), R13
	LEAQ (R9)(R9*2), AX   // 3·aRow: row 3 of a
	VXORPD  Y0, Y0, Y0
	VXORPD  Y1, Y1, Y1
	VXORPD  Y2, Y2, Y2
	VXORPD  Y3, Y3, Y3
	VXORPD  Y4, Y4, Y4
	VXORPD  Y5, Y5, Y5
	VXORPD  Y6, Y6, Y6
	VXORPD  Y7, Y7, Y7
	CMPB    resume+56(FP), $0
	JEQ     loop
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (R11), Y2
	VMOVUPD 32(R11), Y3
	VMOVUPD (R12), Y4
	VMOVUPD 32(R12), Y5
	VMOVUPD (R13), Y6
	VMOVUPD 32(R13), Y7

loop:
	VMOVUPD (DX), Y8
	VMOVUPD 32(DX), Y9
	VBROADCASTSD (SI), Y10
	VBROADCASTSD (SI)(R9*1), Y11
	VMULPD Y8, Y10, Y12
	VMULPD Y9, Y10, Y13
	VMULPD Y8, Y11, Y14
	VMULPD Y9, Y11, Y15
	VADDPD Y12, Y0, Y0
	VADDPD Y13, Y1, Y1
	VADDPD Y14, Y2, Y2
	VADDPD Y15, Y3, Y3
	VBROADCASTSD (SI)(R9*2), Y10
	VBROADCASTSD (SI)(AX*1), Y11
	VMULPD Y8, Y10, Y12
	VMULPD Y9, Y10, Y13
	VMULPD Y8, Y11, Y14
	VMULPD Y9, Y11, Y15
	VADDPD Y12, Y4, Y4
	VADDPD Y13, Y5, Y5
	VADDPD Y14, Y6, Y6
	VADDPD Y15, Y7, Y7
	ADDQ $64, DX
	ADDQ R10, SI
	DECQ CX
	JNZ  loop

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (R11)
	VMOVUPD Y3, 32(R11)
	VMOVUPD Y4, (R12)
	VMOVUPD Y5, 32(R12)
	VMOVUPD Y6, (R13)
	VMOVUPD Y7, 32(R13)
	VZEROUPPER
	RET

// func kernel4x8x(c *float64, ldc int, a *float64, aRow, aK int, panel *float64, steps *uint8, n int, resume bool)
//
// kernel4x8 over the n steps k = steps[0] < … < steps[n-1] of the panel only:
// the steps at which one of the four rows of a is nonzero. A skipped step
// adds ±0 to every element, which leaves a sum that started at +0 unchanged,
// so the result has kernel4x8's bits over all kn steps. The same rounded
// VMULPD then VADDPD per step, in k order, on the same eight accumulators;
// only the addresses of a step's a and panel row come from steps[t]. The
// caller guarantees n ≥ 1.
TEXT ·kernel4x8x(SB), NOSPLIT, $0-65
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ aRow+24(FP), R9
	MOVQ aK+32(FP), R10
	MOVQ panel+40(FP), DX
	MOVQ steps+48(FP), BX
	MOVQ n+56(FP), CX
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	LEAQ (R9)(R9*2), AX   // 3·aRow: row 3 of a
	VXORPD  Y0, Y0, Y0
	VXORPD  Y1, Y1, Y1
	VXORPD  Y2, Y2, Y2
	VXORPD  Y3, Y3, Y3
	VXORPD  Y4, Y4, Y4
	VXORPD  Y5, Y5, Y5
	VXORPD  Y6, Y6, Y6
	VXORPD  Y7, Y7, Y7
	CMPB    resume+64(FP), $0
	JEQ     xloop
	LEAQ    (DI)(R8*1), R11
	LEAQ    (DI)(R8*2), R12
	LEAQ    (R11)(R8*2), R13
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (R11), Y2
	VMOVUPD 32(R11), Y3
	VMOVUPD (R12), Y4
	VMOVUPD 32(R12), Y5
	VMOVUPD (R13), Y6
	VMOVUPD 32(R13), Y7

xloop:
	MOVBQZX (BX), R12     // k
	MOVQ    R12, R11
	IMULQ   R10, R11
	ADDQ    SI, R11       // a + k·aK
	SHLQ    $6, R12       // the panel row of k: 8 float64
	VMOVUPD (DX)(R12*1), Y8
	VMOVUPD 32(DX)(R12*1), Y9
	VBROADCASTSD (R11), Y10
	VBROADCASTSD (R11)(R9*1), Y11
	VMULPD Y8, Y10, Y12
	VMULPD Y9, Y10, Y13
	VMULPD Y8, Y11, Y14
	VMULPD Y9, Y11, Y15
	VADDPD Y12, Y0, Y0
	VADDPD Y13, Y1, Y1
	VADDPD Y14, Y2, Y2
	VADDPD Y15, Y3, Y3
	VBROADCASTSD (R11)(R9*2), Y10
	VBROADCASTSD (R11)(AX*1), Y11
	VMULPD Y8, Y10, Y12
	VMULPD Y9, Y10, Y13
	VMULPD Y8, Y11, Y14
	VMULPD Y9, Y11, Y15
	VADDPD Y12, Y4, Y4
	VADDPD Y13, Y5, Y5
	VADDPD Y14, Y6, Y6
	VADDPD Y15, Y7, Y7
	INCQ BX
	DECQ CX
	JNZ  xloop

	LEAQ    (DI)(R8*1), R11
	LEAQ    (DI)(R8*2), R12
	LEAQ    (R11)(R8*2), R13
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (R11)
	VMOVUPD Y3, 32(R11)
	VMOVUPD Y4, (R12)
	VMOVUPD Y5, 32(R12)
	VMOVUPD Y6, (R13)
	VMOVUPD Y7, 32(R13)
	VZEROUPPER
	RET

// func kernel1x32(c, a *float64, aK int, b *float64, ldb, kn int)
//
// c[j] = Σ_k a[k*aK] · b[k*ldb+j] for j < 32, k < kn: one row of the output
// straight from the rows of b, which are read in place (a one-row product
// uses each element of b once, so there is nothing a packed copy could be
// reused for). The contract is kernel4x8's: lanes are output columns, Y0–Y7
// are the 32 sums, each reduced over k in index order from +0 with VMULPD
// then VADDPD. Strides are in elements; the caller guarantees kn ≥ 1 and
// that the operands cover what is read and written.
TEXT ·kernel1x32(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ aK+16(FP), R10
	MOVQ b+24(FP), DX
	MOVQ ldb+32(FP), R8
	MOVQ kn+40(FP), CX
	SHLQ $3, R10
	SHLQ $3, R8
	VXORPD  Y0, Y0, Y0
	VXORPD  Y1, Y1, Y1
	VXORPD  Y2, Y2, Y2
	VXORPD  Y3, Y3, Y3
	VXORPD  Y4, Y4, Y4
	VXORPD  Y5, Y5, Y5
	VXORPD  Y6, Y6, Y6
	VXORPD  Y7, Y7, Y7

rowloop:
	VBROADCASTSD (SI), Y8
	VMULPD (DX), Y8, Y9
	VMULPD 32(DX), Y8, Y10
	VMULPD 64(DX), Y8, Y11
	VMULPD 96(DX), Y8, Y12
	VADDPD Y9, Y0, Y0
	VADDPD Y10, Y1, Y1
	VADDPD Y11, Y2, Y2
	VADDPD Y12, Y3, Y3
	VMULPD 128(DX), Y8, Y9
	VMULPD 160(DX), Y8, Y10
	VMULPD 192(DX), Y8, Y11
	VMULPD 224(DX), Y8, Y12
	VADDPD Y9, Y4, Y4
	VADDPD Y10, Y5, Y5
	VADDPD Y11, Y6, Y6
	VADDPD Y12, Y7, Y7
	ADDQ R10, SI
	ADDQ R8, DX
	DECQ CX
	JNZ  rowloop

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	VZEROUPPER
	RET

// func kernel1x32x(c, vals, b *float64, offs *int32, n int)
//
// c[j] = Σ_t vals[t] · b[offs[t]+j] for j < 32, t < n: kernel1x32 over only
// the nonzero elements of a row of A, listed in k order with the offsets of
// their rows of b (vals[t] = A(k), offs[t] = k·ldb). The rows of b at the
// zeros are never read. Each skipped term is ±0, so the sums have
// kernel1x32's bits: same accumulators, same order, VMULPD then VADDPD. The
// caller guarantees n ≥ 1.
TEXT ·kernel1x32x(SB), NOSPLIT, $0-40
	MOVQ c+0(FP), DI
	MOVQ vals+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ offs+24(FP), BX
	MOVQ n+32(FP), CX
	VXORPD  Y0, Y0, Y0
	VXORPD  Y1, Y1, Y1
	VXORPD  Y2, Y2, Y2
	VXORPD  Y3, Y3, Y3
	VXORPD  Y4, Y4, Y4
	VXORPD  Y5, Y5, Y5
	VXORPD  Y6, Y6, Y6
	VXORPD  Y7, Y7, Y7

xrowloop:
	MOVLQSX (BX), R8
	LEAQ (DX)(R8*8), R9
	VBROADCASTSD (SI), Y8
	VMULPD (R9), Y8, Y9
	VMULPD 32(R9), Y8, Y10
	VMULPD 64(R9), Y8, Y11
	VMULPD 96(R9), Y8, Y12
	VADDPD Y9, Y0, Y0
	VADDPD Y10, Y1, Y1
	VADDPD Y11, Y2, Y2
	VADDPD Y12, Y3, Y3
	VMULPD 128(R9), Y8, Y9
	VMULPD 160(R9), Y8, Y10
	VMULPD 192(R9), Y8, Y11
	VMULPD 224(R9), Y8, Y12
	VADDPD Y9, Y4, Y4
	VADDPD Y10, Y5, Y5
	VADDPD Y11, Y6, Y6
	VADDPD Y12, Y7, Y7
	ADDQ $8, SI
	ADDQ $4, BX
	DECQ CX
	JNZ  xrowloop

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	VZEROUPPER
	RET

// COLUMNS4 adds to acc the next four terms of the sums of four output
// columns, which are four consecutive rows of b starting at p: the 4×4 block
// of b at k..k+3 is loaded in halves (rows r and r+2 share a register) and
// UNPCK turns it into four vectors that each hold one k of all four rows.
// Y12–Y15 hold a[k]..a[k+3]; the adds are in k order on the one accumulator.
#define COLUMNS4(p, acc) \
	VMOVUPD (p), X4; \
	VMOVUPD (p)(R8*1), X5; \
	VINSERTF128 $1, (p)(R8*2), Y4, Y4; \
	VINSERTF128 $1, (p)(R9*1), Y5, Y5; \
	VMOVUPD 16(p), X6; \
	VMOVUPD 16(p)(R8*1), X7; \
	VINSERTF128 $1, 16(p)(R8*2), Y6, Y6; \
	VINSERTF128 $1, 16(p)(R9*1), Y7, Y7; \
	VUNPCKLPD Y5, Y4, Y8; \
	VUNPCKHPD Y5, Y4, Y9; \
	VUNPCKLPD Y7, Y6, Y10; \
	VUNPCKHPD Y7, Y6, Y11; \
	VMULPD Y8, Y12, Y8; \
	VADDPD Y8, acc, acc; \
	VMULPD Y9, Y13, Y9; \
	VADDPD Y9, acc, acc; \
	VMULPD Y10, Y14, Y10; \
	VADDPD Y10, acc, acc; \
	VMULPD Y11, Y15, Y11; \
	VADDPD Y11, acc, acc; \
	ADDQ $32, p

// COLUMNS4x1 is COLUMNS4 for a single k, whose a[k] is in Y12.
#define COLUMNS4x1(p, acc) \
	VMOVSD (p), X4; \
	VMOVHPD (p)(R8*1), X4, X4; \
	VMOVSD (p)(R8*2), X5; \
	VMOVHPD (p)(R9*1), X5, X5; \
	VINSERTF128 $1, X5, Y4, Y4; \
	VMULPD Y4, Y12, Y4; \
	VADDPD Y4, acc, acc; \
	ADDQ $8, p

// func kernel1x16T(c, a, b *float64, ldb, kn int)
//
// c[j] = Σ_k a[k] · b[j*ldb+k] for j < 16, k < kn: one row of a·bᵀ. The
// lanes must still be output columns, which here are rows of b, so b is
// transposed in registers on the way in (COLUMNS4) and then reduced exactly
// as in kernel1x32: Y0–Y3 are the 16 sums, in k order from +0, VMULPD then
// VADDPD. A depth that is not a multiple of four ends with single k steps on
// the same accumulators. The caller guarantees kn ≥ 1 and that the operands
// cover what is read and written.
TEXT ·kernel1x16T(SB), NOSPLIT, $0-40
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ ldb+24(FP), R8
	MOVQ kn+32(FP), CX
	SHLQ $3, R8
	LEAQ (R8)(R8*2), R9    // 3·ldb
	LEAQ (DX)(R8*4), R11   // rows 4, 8 and 12 of b
	LEAQ (R11)(R8*4), R12
	LEAQ (R12)(R8*4), R13
	MOVQ CX, BX
	ANDQ $3, BX
	SHRQ $2, CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	TESTQ CX, CX
	JZ   ktail

kloop:
	VBROADCASTSD (SI), Y12
	VBROADCASTSD 8(SI), Y13
	VBROADCASTSD 16(SI), Y14
	VBROADCASTSD 24(SI), Y15
	COLUMNS4(DX, Y0)
	COLUMNS4(R11, Y1)
	COLUMNS4(R12, Y2)
	COLUMNS4(R13, Y3)
	ADDQ $32, SI
	DECQ CX
	JNZ  kloop

ktail:
	TESTQ BX, BX
	JZ   kdone
	VBROADCASTSD (SI), Y12
	COLUMNS4x1(DX, Y0)
	COLUMNS4x1(R11, Y1)
	COLUMNS4x1(R12, Y2)
	COLUMNS4x1(R13, Y3)
	ADDQ $8, SI
	DECQ BX
	JMP  ktail

kdone:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	RET

// ROWS4 is COLUMNS4 for four rows of b anywhere, at p0–p3, each read at the
// offset CX from the end of its k range.
#define ROWS4(p0, p1, p2, p3, acc) \
	VMOVUPD (p0)(CX*1), X4; \
	VMOVUPD (p1)(CX*1), X5; \
	VINSERTF128 $1, (p2)(CX*1), Y4, Y4; \
	VINSERTF128 $1, (p3)(CX*1), Y5, Y5; \
	VMOVUPD 16(p0)(CX*1), X6; \
	VMOVUPD 16(p1)(CX*1), X7; \
	VINSERTF128 $1, 16(p2)(CX*1), Y6, Y6; \
	VINSERTF128 $1, 16(p3)(CX*1), Y7, Y7; \
	VUNPCKLPD Y5, Y4, Y8; \
	VUNPCKHPD Y5, Y4, Y9; \
	VUNPCKLPD Y7, Y6, Y10; \
	VUNPCKHPD Y7, Y6, Y11; \
	VMULPD Y8, Y12, Y8; \
	VADDPD Y8, acc, acc; \
	VMULPD Y9, Y13, Y9; \
	VADDPD Y9, acc, acc; \
	VMULPD Y10, Y14, Y10; \
	VADDPD Y10, acc, acc; \
	VMULPD Y11, Y15, Y11; \
	VADDPD Y11, acc, acc

// ROWS4x1 is ROWS4 for a single k, whose a[k] is in Y12.
#define ROWS4x1(p0, p1, p2, p3, acc) \
	VMOVSD (p0)(CX*1), X4; \
	VMOVHPD (p1)(CX*1), X4, X4; \
	VMOVSD (p2)(CX*1), X5; \
	VMOVHPD (p3)(CX*1), X5, X5; \
	VINSERTF128 $1, X5, Y4, Y4; \
	VMULPD Y4, Y12, Y4; \
	VADDPD Y4, acc, acc

// ROWPTR loads into r the end of the k range of the row of b that output
// outs[i] reads: b + (outs[i]·ldb + kn)·8.
#define ROWPTR(i, r) \
	MOVBQZX i(BX), r; \
	IMULQ ldb+24(FP), r; \
	ADDQ kn+32(FP), r; \
	SHLQ $3, r; \
	ADDQ b+16(FP), r

// STORE4 stores the four lanes of acc (its X half in x, the upper half
// going through X2) to c[outs[i0]] … c[outs[i3]].
#define STORE4(i0, i1, i2, i3, acc, x) \
	MOVBQZX i0(BX), AX; \
	VMOVSD x, (DI)(AX*8); \
	MOVBQZX i1(BX), AX; \
	VMOVHPD x, (DI)(AX*8); \
	VEXTRACTF128 $1, acc, X2; \
	MOVBQZX i2(BX), AX; \
	VMOVSD X2, (DI)(AX*8); \
	MOVBQZX i3(BX), AX; \
	VMOVHPD X2, (DI)(AX*8)

// func kernel8Tx(c, a, b *float64, ldb, kn int, outs *uint8, n int)
//
// c[outs[t]] = Σ_k a[k] · b[outs[t]*ldb+k] for t < n, k < kn: the outputs of
// one row of a·bᵀ at the listed columns only, eight at a time, each a dot
// product with a whole row of b. The contract is kernel1x16T's — lanes are
// output columns, each reduced over k in index order from +0 with VMULPD
// then VADDPD on one accumulator (Y0 for outs[t..t+3], Y1 for the next
// four) — so a listed output has the bits of the dense product. The caller
// pads the list to a multiple of eight (a repeated column is recomputed to
// the same bits) and guarantees n ≥ 8 and kn ≥ 1. The k loop runs CX from
// −8·kn up to 0, so that a, at SI, and the eight rows share one offset.
TEXT ·kernel8Tx(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ outs+40(FP), BX
	MOVQ kn+32(FP), CX
	LEAQ (SI)(CX*8), SI

group:
	ROWPTR(0, AX)
	ROWPTR(1, DX)
	ROWPTR(2, R8)
	ROWPTR(3, R9)
	ROWPTR(4, R10)
	ROWPTR(5, R11)
	ROWPTR(6, R12)
	ROWPTR(7, R13)
	MOVQ kn+32(FP), CX
	NEGQ CX
	SHLQ $3, CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	CMPQ CX, $-32
	JGT  gtail

gloop:
	VBROADCASTSD (SI)(CX*1), Y12
	VBROADCASTSD 8(SI)(CX*1), Y13
	VBROADCASTSD 16(SI)(CX*1), Y14
	VBROADCASTSD 24(SI)(CX*1), Y15
	ROWS4(AX, DX, R8, R9, Y0)
	ROWS4(R10, R11, R12, R13, Y1)
	ADDQ $32, CX
	CMPQ CX, $-32
	JLE  gloop

gtail:
	TESTQ CX, CX
	JZ   gdone
	VBROADCASTSD (SI)(CX*1), Y12
	ROWS4x1(AX, DX, R8, R9, Y0)
	ROWS4x1(R10, R11, R12, R13, Y1)
	ADDQ $8, CX
	JMP  gtail

gdone:
	STORE4(0, 1, 2, 3, Y0, X0)
	STORE4(4, 5, 6, 7, Y1, X1)
	ADDQ $8, BX
	SUBQ $8, n+48(FP)
	JNZ  group
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() uint32
//
// The low half of XCR0: which register state the OS saves on a context switch.
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
