//go:build amd64

#include "textflag.h"

// SSE2 min-plus row kernels: two result entries per instruction. For each
// pair of columns j, j+1 and each row r:
//
//	s = v_r + b[j:j+2]      ADDPD, the same IEEE add as the Go loop
//	s = MINPD(s, o_r[j:j+2]) s < o ? s : o
//	o_r[j:j+2] = s
//
// MINPD returns its second (source) operand whenever the compare is false:
// on ties, on +0 against −0 in either order and when either operand is NaN.
// With the candidate s as the destination and the old entry o as the source
// that is exactly the Go loop's `if s < o { o = s }`, bit for bit; swapping
// the operands breaks the ±0 and NaN cases. Storing o back unchanged is
// harmless, since every caller owns its output rows.
//
// Rows are not 16-byte aligned, so every memory access goes through MOVUPD
// or MOVSD (the legacy memory form of MINPD faults on unaligned operands).
// An odd length finishes with one scalar column (MOVSD, ADDSD, MINSD under
// the same operand rule). The broadcast v's live in X3..X10; R14, R15 and X15
// are left alone.

// func relax8SSE(o0, o1, o2, o3, o4, o5, o6, o7, brow []float64, v0, v1, v2, v3, v4, v5, v6, v7 float64)
TEXT ·relax8SSE(SB), NOSPLIT, $0-280
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
	MOVSD v0+216(FP), X3
	UNPCKLPD X3, X3
	MOVSD v1+224(FP), X4
	UNPCKLPD X4, X4
	MOVSD v2+232(FP), X5
	UNPCKLPD X5, X5
	MOVSD v3+240(FP), X6
	UNPCKLPD X6, X6
	MOVSD v4+248(FP), X7
	UNPCKLPD X7, X7
	MOVSD v5+256(FP), X8
	UNPCKLPD X8, X8
	MOVSD v6+264(FP), X9
	UNPCKLPD X9, X9
	MOVSD v7+272(FP), X10
	UNPCKLPD X10, X10
	XORQ BX, BX
	MOVQ CX, DX
	ANDQ $-2, DX
	JZ tail

pairs:
	MOVUPD (SI)(BX*8), X0
	MOVUPD (DI)(BX*8), X2
	MOVAPD X0, X1
	ADDPD X3, X1
	MINPD X2, X1
	MOVUPD X1, (DI)(BX*8)
	MOVUPD (R8)(BX*8), X2
	MOVAPD X0, X1
	ADDPD X4, X1
	MINPD X2, X1
	MOVUPD X1, (R8)(BX*8)
	MOVUPD (R9)(BX*8), X2
	MOVAPD X0, X1
	ADDPD X5, X1
	MINPD X2, X1
	MOVUPD X1, (R9)(BX*8)
	MOVUPD (R10)(BX*8), X2
	MOVAPD X0, X1
	ADDPD X6, X1
	MINPD X2, X1
	MOVUPD X1, (R10)(BX*8)
	MOVUPD (R11)(BX*8), X2
	MOVAPD X0, X1
	ADDPD X7, X1
	MINPD X2, X1
	MOVUPD X1, (R11)(BX*8)
	MOVUPD (R12)(BX*8), X2
	MOVAPD X0, X1
	ADDPD X8, X1
	MINPD X2, X1
	MOVUPD X1, (R12)(BX*8)
	MOVUPD (R13)(BX*8), X2
	MOVAPD X0, X1
	ADDPD X9, X1
	MINPD X2, X1
	MOVUPD X1, (R13)(BX*8)
	MOVUPD (AX)(BX*8), X2
	MOVAPD X0, X1
	ADDPD X10, X1
	MINPD X2, X1
	MOVUPD X1, (AX)(BX*8)
	ADDQ $2, BX
	CMPQ BX, DX
	JB pairs

tail:
	CMPQ BX, CX
	JAE done
	MOVSD (SI)(BX*8), X0
	MOVSD (DI)(BX*8), X2
	MOVSD X0, X1
	ADDSD X3, X1
	MINSD X2, X1
	MOVSD X1, (DI)(BX*8)
	MOVSD (R8)(BX*8), X2
	MOVSD X0, X1
	ADDSD X4, X1
	MINSD X2, X1
	MOVSD X1, (R8)(BX*8)
	MOVSD (R9)(BX*8), X2
	MOVSD X0, X1
	ADDSD X5, X1
	MINSD X2, X1
	MOVSD X1, (R9)(BX*8)
	MOVSD (R10)(BX*8), X2
	MOVSD X0, X1
	ADDSD X6, X1
	MINSD X2, X1
	MOVSD X1, (R10)(BX*8)
	MOVSD (R11)(BX*8), X2
	MOVSD X0, X1
	ADDSD X7, X1
	MINSD X2, X1
	MOVSD X1, (R11)(BX*8)
	MOVSD (R12)(BX*8), X2
	MOVSD X0, X1
	ADDSD X8, X1
	MINSD X2, X1
	MOVSD X1, (R12)(BX*8)
	MOVSD (R13)(BX*8), X2
	MOVSD X0, X1
	ADDSD X9, X1
	MINSD X2, X1
	MOVSD X1, (R13)(BX*8)
	MOVSD (AX)(BX*8), X2
	MOVSD X0, X1
	ADDSD X10, X1
	MINSD X2, X1
	MOVSD X1, (AX)(BX*8)

done:
	RET

// func relax4SSE(o0, o1, o2, o3, brow []float64, v0, v1, v2, v3 float64)
TEXT ·relax4SSE(SB), NOSPLIT, $0-152
	MOVQ o0_base+0(FP), DI
	MOVQ o1_base+24(FP), R8
	MOVQ o2_base+48(FP), R9
	MOVQ o3_base+72(FP), R10
	MOVQ brow_base+96(FP), SI
	MOVQ brow_len+104(FP), CX
	MOVSD v0+120(FP), X3
	UNPCKLPD X3, X3
	MOVSD v1+128(FP), X4
	UNPCKLPD X4, X4
	MOVSD v2+136(FP), X5
	UNPCKLPD X5, X5
	MOVSD v3+144(FP), X6
	UNPCKLPD X6, X6
	XORQ BX, BX
	MOVQ CX, DX
	ANDQ $-2, DX
	JZ tail

pairs:
	MOVUPD (SI)(BX*8), X0
	MOVUPD (DI)(BX*8), X2
	MOVAPD X0, X1
	ADDPD X3, X1
	MINPD X2, X1
	MOVUPD X1, (DI)(BX*8)
	MOVUPD (R8)(BX*8), X2
	MOVAPD X0, X1
	ADDPD X4, X1
	MINPD X2, X1
	MOVUPD X1, (R8)(BX*8)
	MOVUPD (R9)(BX*8), X2
	MOVAPD X0, X1
	ADDPD X5, X1
	MINPD X2, X1
	MOVUPD X1, (R9)(BX*8)
	MOVUPD (R10)(BX*8), X2
	MOVAPD X0, X1
	ADDPD X6, X1
	MINPD X2, X1
	MOVUPD X1, (R10)(BX*8)
	ADDQ $2, BX
	CMPQ BX, DX
	JB pairs

tail:
	CMPQ BX, CX
	JAE done
	MOVSD (SI)(BX*8), X0
	MOVSD (DI)(BX*8), X2
	MOVSD X0, X1
	ADDSD X3, X1
	MINSD X2, X1
	MOVSD X1, (DI)(BX*8)
	MOVSD (R8)(BX*8), X2
	MOVSD X0, X1
	ADDSD X4, X1
	MINSD X2, X1
	MOVSD X1, (R8)(BX*8)
	MOVSD (R9)(BX*8), X2
	MOVSD X0, X1
	ADDSD X5, X1
	MINSD X2, X1
	MOVSD X1, (R9)(BX*8)
	MOVSD (R10)(BX*8), X2
	MOVSD X0, X1
	ADDSD X6, X1
	MINSD X2, X1
	MOVSD X1, (R10)(BX*8)

done:
	RET

// func relax1SSE(orow, brow []float64, av float64)
TEXT ·relax1SSE(SB), NOSPLIT, $0-56
	MOVQ orow_base+0(FP), DI
	MOVQ brow_base+24(FP), SI
	MOVQ brow_len+32(FP), CX
	MOVSD av+48(FP), X3
	UNPCKLPD X3, X3
	XORQ BX, BX
	MOVQ CX, DX
	ANDQ $-2, DX
	JZ tail

pairs:
	MOVUPD (SI)(BX*8), X0
	MOVUPD (DI)(BX*8), X2
	MOVAPD X0, X1
	ADDPD X3, X1
	MINPD X2, X1
	MOVUPD X1, (DI)(BX*8)
	ADDQ $2, BX
	CMPQ BX, DX
	JB pairs

tail:
	CMPQ BX, CX
	JAE done
	MOVSD (SI)(BX*8), X0
	MOVSD (DI)(BX*8), X2
	MOVSD X0, X1
	ADDSD X3, X1
	MINSD X2, X1
	MOVSD X1, (DI)(BX*8)

done:
	RET
