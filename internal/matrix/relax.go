package matrix

// The row kernels relax result rows o against one streamed b row: for every
// j < len(brow), o[j] = v + brow[j] when that sum is strictly smaller. The
// strict < is the tie rule every kernel shares: an equal candidate (including
// −0 against +0) and a NaN candidate leave o unchanged. relax8, relax4 and
// relax1 are the entry points; on an amd64 CPU with AVX2 they run assembly
// (relax_amd64.s), elsewhere the Go loops below. The loops are compiled on
// every platform so the assembly is tested against them bit for bit.

import "fmt"

// shortRow panics for an output row shorter than the b row it is relaxed
// against. Every kernel compares lengths first: reslicing a row to
// [:len(brow)] would check only its capacity, and a short row with spare
// capacity would be written past its end.
func shortRow(n int) {
	panic(fmt.Sprintf("matrix: output row shorter than its %d-entry b row", n))
}

// relax8Go relaxes eight result rows against one b row. +Inf v's are
// harmless no-ops (see mulTile).
func relax8Go(o0, o1, o2, o3, o4, o5, o6, o7, brow []float64, v0, v1, v2, v3, v4, v5, v6, v7 float64) {
	n := len(brow)
	if len(o0) < n || len(o1) < n || len(o2) < n || len(o3) < n ||
		len(o4) < n || len(o5) < n || len(o6) < n || len(o7) < n {
		shortRow(n)
	}
	o0, o1, o2, o3, o4, o5, o6, o7 = o0[:n], o1[:n], o2[:n], o3[:n], o4[:n], o5[:n], o6[:n], o7[:n]
	for j, bv := range brow {
		if s := v0 + bv; s < o0[j] {
			o0[j] = s
		}
		if s := v1 + bv; s < o1[j] {
			o1[j] = s
		}
		if s := v2 + bv; s < o2[j] {
			o2[j] = s
		}
		if s := v3 + bv; s < o3[j] {
			o3[j] = s
		}
		if s := v4 + bv; s < o4[j] {
			o4[j] = s
		}
		if s := v5 + bv; s < o5[j] {
			o5[j] = s
		}
		if s := v6 + bv; s < o6[j] {
			o6[j] = s
		}
		if s := v7 + bv; s < o7[j] {
			o7[j] = s
		}
	}
}

// relax4Go relaxes four result rows against one b row.
func relax4Go(o0, o1, o2, o3, brow []float64, v0, v1, v2, v3 float64) {
	n := len(brow)
	if len(o0) < n || len(o1) < n || len(o2) < n || len(o3) < n {
		shortRow(n)
	}
	o0, o1, o2, o3 = o0[:n], o1[:n], o2[:n], o3[:n]
	for j, bv := range brow {
		if s := v0 + bv; s < o0[j] {
			o0[j] = s
		}
		if s := v1 + bv; s < o1[j] {
			o1[j] = s
		}
		if s := v2 + bv; s < o2[j] {
			o2[j] = s
		}
		if s := v3 + bv; s < o3[j] {
			o3[j] = s
		}
	}
}

// relax1Go relaxes one result row against one b row.
func relax1Go(orow, brow []float64, av float64) {
	if len(orow) < len(brow) {
		shortRow(len(brow))
	}
	orow = orow[:len(brow)]
	for j, bv := range brow {
		if s := av + bv; s < orow[j] {
			orow[j] = s
		}
	}
}
