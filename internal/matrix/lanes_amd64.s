//go:build amd64

#include "textflag.h"

// AVX2 lane kernels: one call relaxes every run of a bucket. Each run's
// head row sits in YMM registers, four lanes each (width 2 in one XMM
// register), for the whole run. Per edge j, with T = row to[j]:
//
//	W = broadcast w[j]       VBROADCASTSD
//	c = h[l:l+4] + W         VADDPD, the Go loop's IEEE add
//	c = VMINPD(c, T[l:l+4])  c < T ? c : T
//	T[l:l+4] = c
//
// VMINPD returns its second source operand whenever the compare is false:
// on ties, on +0 against −0 in either order and when either operand is NaN.
// With the candidate as the first source and the old entry as the second
// that is the Go loop's `if c < t { t = c }`, bit for bit; swapping the
// operands breaks the ±0 and NaN cases. Storing an unchanged entry back is
// harmless. VEX memory operands need no alignment, so rows need none.
//
// Every index is checked before it is used, and a miss returns false: the
// head H, sign-extended, must be below the row count len(d)/width
// (unsigned, so a negative one fails too), the end Hi must lie in
// [previous Hi, len(to)], and every target must be below the row count. A
// head row that is +Inf in every lane (VPCMPEQQ against the +Inf bit
// pattern) skips its run; the first two lanes are tested alone first, so a
// head that is finite there costs one test. Every exit runs VZEROUPPER.
//
// The four widths share one body, KERNEL, and differ only in the row shift
// (log2 of the row's bytes) and three per-width sequences: loading the head
// row, testing its lanes past the first two for +Inf, and relaxing one
// target row.
//
// Registers: DI d, R9 rows, SI runs, R12 len(runs), DX run index, R10 to,
// R13 len(to), R11 w, BX edge index, CX the run's end, AX the head row
// address, R8 the target row address; Y0..Y3 the head row, Y8 the broadcast
// weight, Y9 the candidate, Y11 the +Inf mask, Y12 the +Inf pattern, Y13
// scratch. R14, R15 and X15 are left alone.

// LANE relaxes the four lanes at byte offset off of the target row R8 from
// head register H.
#define LANE(off, H) \
	VADDPD  Y8, H, Y9;       \
	VMINPD  off(R8), Y9, Y9; \
	VMOVUPD Y9, off(R8)

// INF folds into the mask Y11 whether head register H is +Inf in all lanes.
#define INF(H) \
	VPCMPEQQ Y12, H, Y13; \
	VPAND    Y13, Y11, Y11

// ALLINF sets ZF when the mask Y11 says every tested lane is +Inf.
#define ALLINF \
	VPMOVMSKB Y11, AX; \
	CMPL      AX, $-1

#define HEAD2 VMOVUPD 0(AX), X0
#define REST2
#define EDGE2 VADDPD X8, X0, X9; VMINPD 0(R8), X9, X9; VMOVUPD X9, 0(R8)

#define HEAD4 VMOVUPD 0(AX), Y0
#define REST4 VPCMPEQQ Y12, Y0, Y11; ALLINF
#define EDGE4 LANE(0, Y0)

#define HEAD8 HEAD4; VMOVUPD 32(AX), Y1
#define REST8 VPCMPEQQ Y12, Y0, Y11; INF(Y1); ALLINF
#define EDGE8 EDGE4; LANE(32, Y1)

#define HEAD16 HEAD8; VMOVUPD 64(AX), Y2; VMOVUPD 96(AX), Y3
#define REST16 VPCMPEQQ Y12, Y0, Y11; INF(Y1); INF(Y2); INF(Y3); ALLINF
#define EDGE16 EDGE8; LANE(64, Y2); LANE(96, Y3)

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
	VPBROADCASTQ X12, Y12;         \
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
	VPCMPEQQ X12, X0, X11;         \
	VPMOVMSKB X11, AX;             \
	CMPL AX, $0xFFFF;              \
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
	VBROADCASTSD (R11)(BX*8), Y8;  \
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
	VZEROUPPER;                    \
	MOVB $1, ret+96(FP);           \
	RET;                           \
bad:                                   \
	VZEROUPPER;                    \
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
