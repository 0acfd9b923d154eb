//go:build amd64

#include "textflag.h"

// AVX2 min-plus row kernels: four result entries per instruction. For each
// quad of columns j..j+3 and each row r:
//
//	s = b[j:j+4] + v_r        VADDPD, the same IEEE add as the Go loop
//	s = VMINPD(s, o_r[j:j+4]) s < o ? s : o
//	o_r[j:j+4] = s
//
// VMINPD returns its second source operand whenever the compare is false:
// on ties, on +0 against −0 in either order and when either operand is NaN.
// With the candidate s as the first source and the old entry o as the
// second that is exactly the Go loop's `if s < o { o = s }`, bit for bit;
// swapping the operands breaks the ±0 and NaN cases. Storing o back
// unchanged is harmless, since every caller owns its output rows.
//
// VEX memory operands need no alignment, so rows need none. After the
// quads, one pair of columns runs in XMM registers when two or three are
// left, and a last odd column runs scalar (VADDSD, VMINSD under the same
// operand rule). Every exit runs VZEROUPPER. The broadcast v's live in
// Y3..Y10; R14, R15 and X15 are left alone.

// QUAD, PAIR and ONE relax the columns at BX of output row O, whose
// broadcast v sits in Y (X is its low half), from the b values in Y0.
#define QUAD(O, Y, X) \
	VADDPD  Y, Y0, Y1;          \
	VMINPD  (O)(BX*8), Y1, Y1;  \
	VMOVUPD Y1, (O)(BX*8)

#define PAIR(O, Y, X) \
	VADDPD  X, X0, X1;          \
	VMINPD  (O)(BX*8), X1, X1;  \
	VMOVUPD X1, (O)(BX*8)

#define ONE(O, Y, X) \
	VADDSD X, X0, X1;          \
	VMINSD (O)(BX*8), X1, X1;  \
	VMOVSD X1, (O)(BX*8)

#define ROWS8(OP) OP(DI, Y3, X3); OP(R8, Y4, X4); OP(R9, Y5, X5); OP(R10, Y6, X6); OP(R11, Y7, X7); OP(R12, Y8, X8); OP(R13, Y9, X9); OP(AX, Y10, X10)
#define ROWS4(OP) OP(DI, Y3, X3); OP(R8, Y4, X4); OP(R9, Y5, X5); OP(R10, Y6, X6)
#define ROWS1(OP) OP(DI, Y3, X3)

// LOOP relaxes the rows of ROWS against the CX columns of b at SI and
// returns. Its labels are local to the TEXT symbol it is expanded in.
#define LOOP(ROWS) \
	XORQ BX, BX;                 \
	MOVQ CX, DX;                 \
	ANDQ $-4, DX;                \
	JZ pair;                     \
quad:                                \
	VMOVUPD (SI)(BX*8), Y0;      \
	ROWS(QUAD);                  \
	ADDQ $4, BX;                 \
	CMPQ BX, DX;                 \
	JB quad;                     \
pair:                                \
	LEAQ 2(BX), DX;              \
	CMPQ DX, CX;                 \
	JA one;                      \
	VMOVUPD (SI)(BX*8), X0;      \
	ROWS(PAIR);                  \
	MOVQ DX, BX;                 \
one:                                 \
	CMPQ BX, CX;                 \
	JAE done;                    \
	VMOVSD (SI)(BX*8), X0;       \
	ROWS(ONE);                   \
done:                                \
	VZEROUPPER;                  \
	RET

// func relax8AVX2(o0, o1, o2, o3, o4, o5, o6, o7, brow []float64, v0, v1, v2, v3, v4, v5, v6, v7 float64)
TEXT ·relax8AVX2(SB), NOSPLIT, $0-280
	MOVQ o0_base+0(FP), DI
	MOVQ o1_base+24(FP), R8
	MOVQ o2_base+48(FP), R9
	MOVQ o3_base+72(FP), R10
	MOVQ o4_base+96(FP), R11
	MOVQ o5_base+120(FP), R12
	MOVQ o6_base+144(FP), R13
	MOVQ o7_base+168(FP), AX
	MOVQ brow_base+192(FP), SI
	MOVQ brow_len+200(FP), CX
	VBROADCASTSD v0+216(FP), Y3
	VBROADCASTSD v1+224(FP), Y4
	VBROADCASTSD v2+232(FP), Y5
	VBROADCASTSD v3+240(FP), Y6
	VBROADCASTSD v4+248(FP), Y7
	VBROADCASTSD v5+256(FP), Y8
	VBROADCASTSD v6+264(FP), Y9
	VBROADCASTSD v7+272(FP), Y10
	LOOP(ROWS8)

// func relax4AVX2(o0, o1, o2, o3, brow []float64, v0, v1, v2, v3 float64)
TEXT ·relax4AVX2(SB), NOSPLIT, $0-152
	MOVQ o0_base+0(FP), DI
	MOVQ o1_base+24(FP), R8
	MOVQ o2_base+48(FP), R9
	MOVQ o3_base+72(FP), R10
	MOVQ brow_base+96(FP), SI
	MOVQ brow_len+104(FP), CX
	VBROADCASTSD v0+120(FP), Y3
	VBROADCASTSD v1+128(FP), Y4
	VBROADCASTSD v2+136(FP), Y5
	VBROADCASTSD v3+144(FP), Y6
	LOOP(ROWS4)

// func relax1AVX2(orow, brow []float64, av float64)
TEXT ·relax1AVX2(SB), NOSPLIT, $0-56
	MOVQ orow_base+0(FP), DI
	MOVQ brow_base+24(FP), SI
	MOVQ brow_len+32(FP), CX
	VBROADCASTSD av+48(FP), Y3
	LOOP(ROWS1)

// func hasAVX2() bool
//
// AVX2 is usable when CPUID leaf 7 exists and sets EBX bit 5, CPUID leaf 1
// sets ECX bit 27 (OSXSAVE) and XCR0 has bits 1 and 2 (the OS saves the
// XMM and YMM state).
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JB no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	BTL $27, CX
	JCC no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL $5, BX
	JCC no
	MOVB $1, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET
