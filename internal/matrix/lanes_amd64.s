//go:build amd64

#include "textflag.h"

// SSE2 lane kernels: one call relaxes every run of a bucket. Each run's
// head row sits in XMM registers, two lanes each, for the whole run. Per
// edge j, with T = row to[j]:
//
//	c = h[l:l+2] + w[j]      ADDPD, the Go loop's IEEE add
//	c = MINPD(c, T[l:l+2])   c < T ? c : T
//	T[l:l+2] = c
//
// MINPD returns its second (source) operand whenever the compare is false:
// on ties, on +0 against −0 in either order and when either operand is NaN.
// With the candidate as the destination and the old entry as the source
// that is the Go loop's `if c < t { t = c }`, bit for bit; swapping the
// operands breaks the ±0 and NaN cases. Storing an unchanged entry back is
// harmless.
//
// Every index is checked before it is used, and a miss returns false: the
// head H, sign-extended, must be below the row count len(d)/width
// (unsigned, so a negative one fails too), the end Hi must lie in
// [previous Hi, len(to)], and every target must be below the row count. A
// head row that is +Inf in every lane (PCMPEQL against the +Inf bit
// pattern) skips its run; the first two lanes are tested alone first, so a
// head that is finite there costs one test. Rows need not be 16-byte
// aligned, so memory goes through MOVUPD (the legacy memory form of MINPD
// faults on unaligned operands).
//
// The four widths share one body, KERNEL, and differ only in the row shift
// (log2 of the row's bytes) and three per-width sequences: loading the head
// row, testing its lanes past the first two for +Inf, and relaxing one
// target row.
//
// Registers: DI d, R9 rows, SI runs, R12 len(runs), DX run index, R10 to,
// R13 len(to), R11 w, BX edge index, CX the run's end, AX the head row
// address, R8 the target row address; X0..X7 the head row, X8 the broadcast
// weight, X9 the candidate, X10 the old entry, X11 the +Inf mask, X12 the
// +Inf pattern, X13 scratch. R14, R15 and X15 are left alone.

// LANE relaxes the two lanes at byte offset off of the target row R8 from
// head register H.
#define LANE(off, H) \
	MOVAPD H, X9;        \
	ADDPD  X8, X9;       \
	MOVUPD off(R8), X10; \
	MINPD  X10, X9;      \
	MOVUPD X9, off(R8)

// INF folds into the mask X11 whether head register H is +Inf in both lanes.
#define INF(H) \
	MOVAPD  H, X13;   \
	PCMPEQL X12, X13; \
	PAND    X13, X11

// ALLINF sets ZF when the mask X11 says every tested lane is +Inf.
#define ALLINF \
	PMOVMSKB X11, AX; \
	CMPL     AX, $0xFFFF

#define HEAD2 MOVUPD 0(AX), X0
#define REST2
#define EDGE2 LANE(0, X0)

#define HEAD4 MOVUPD 0(AX), X0; MOVUPD 16(AX), X1
#define REST4 INF(X1); ALLINF
#define EDGE4 LANE(0, X0); LANE(16, X1)

#define HEAD8 HEAD4; MOVUPD 32(AX), X2; MOVUPD 48(AX), X3
#define REST8 INF(X1); INF(X2); INF(X3); ALLINF
#define EDGE8 EDGE4; LANE(32, X2); LANE(48, X3)

#define HEAD16 HEAD8; MOVUPD 64(AX), X4; MOVUPD 80(AX), X5; MOVUPD 96(AX), X6; MOVUPD 112(AX), X7
#define REST16 INF(X1); INF(X2); INF(X3); INF(X4); INF(X5); INF(X6); INF(X7); ALLINF
#define EDGE16 EDGE8; LANE(64, X4); LANE(80, X5); LANE(96, X6); LANE(112, X7)

// KERNEL is the body of a lane kernel whose rows are 1<<shift bytes. Its
// labels are local to the TEXT symbol it is expanded in.
#define KERNEL(shift, HEAD, REST, EDGE) \
	MOVQ d_base+0(FP), DI;         \
	MOVQ d_len+8(FP), R9;          \
	SHRQ $(shift-3), R9;           \
	MOVQ runs_base+24(FP), SI;     \
	MOVQ runs_len+32(FP), R12;     \
	MOVQ to_base+48(FP), R10;      \
	MOVQ to_len+56(FP), R13;       \
	MOVQ w_base+72(FP), R11;       \
	MOVQ $0x7FF0000000000000, AX;  \
	MOVQ AX, X12;                  \
	PUNPCKLQDQ X12, X12;           \
	XORQ BX, BX;                   \
	XORQ DX, DX;                   \
	TESTQ R12, R12;                \
	JEQ ok;                        \
run:                                   \
	MOVLQSX 0(SI)(DX*8), AX;       \
	MOVLQSX 4(SI)(DX*8), CX;       \
	CMPQ AX, R9;                   \
	JAE bad;                       \
	CMPQ CX, R13;                  \
	JA bad;                        \
	CMPQ CX, BX;                   \
	JB bad;                        \
	SHLQ $shift, AX;               \
	ADDQ DI, AX;                   \
	HEAD;                          \
	MOVAPD X0, X11;                \
	PCMPEQL X12, X11;              \
	ALLINF;                        \
	JNE live;                      \
	REST;                          \
	JEQ next;                      \
live:                                  \
	CMPQ BX, CX;                   \
	JAE next;                      \
edge:                                  \
	MOVLQSX (R10)(BX*4), R8;       \
	CMPQ R8, R9;                   \
	JAE bad;                       \
	SHLQ $shift, R8;               \
	ADDQ DI, R8;                   \
	MOVSD (R11)(BX*8), X8;         \
	UNPCKLPD X8, X8;               \
	EDGE;                          \
	INCQ BX;                       \
	CMPQ BX, CX;                   \
	JB edge;                       \
next:                                  \
	MOVQ CX, BX;                   \
	INCQ DX;                       \
	CMPQ DX, R12;                  \
	JB run;                        \
ok:                                    \
	MOVB $1, ret+96(FP);           \
	RET;                           \
bad:                                   \
	MOVB $0, ret+96(FP);           \
	RET

// func laneRelax2(d []float64, runs []LaneRun, to []int32, w []float64) bool
TEXT ·laneRelax2(SB), NOSPLIT, $0-97
	KERNEL(4, HEAD2, REST2, EDGE2)

// func laneRelax4(d []float64, runs []LaneRun, to []int32, w []float64) bool
TEXT ·laneRelax4(SB), NOSPLIT, $0-97
	KERNEL(5, HEAD4, REST4, EDGE4)

// func laneRelax8(d []float64, runs []LaneRun, to []int32, w []float64) bool
TEXT ·laneRelax8(SB), NOSPLIT, $0-97
	KERNEL(6, HEAD8, REST8, EDGE8)

// func laneRelax16(d []float64, runs []LaneRun, to []int32, w []float64) bool
TEXT ·laneRelax16(SB), NOSPLIT, $0-97
	KERNEL(7, HEAD16, REST16, EDGE16)
