package matrix

// The row kernels relax result rows o against one streamed b row: for every
// j < len(brow), o[j] = v + brow[j] when that sum is strictly smaller. The
// strict < is the tie rule every kernel shares: an equal candidate (including
// −0 against +0) and a NaN candidate leave o unchanged. relax8, relax4 and
// relax1 are the entry points; on amd64 they run SSE2 assembly
// (relax_amd64.s), elsewhere the Go loops below. The loops are compiled on
// every platform so the assembly is tested against them bit for bit.

// relax8Go relaxes eight result rows against one b row. +Inf v's are
// harmless no-ops (see mulTile).
func relax8Go(o0, o1, o2, o3, o4, o5, o6, o7, brow []float64, v0, v1, v2, v3, v4, v5, v6, v7 float64) {
	o0 = o0[:len(brow)]
	o1 = o1[:len(brow)]
	o2 = o2[:len(brow)]
	o3 = o3[:len(brow)]
	o4 = o4[:len(brow)]
	o5 = o5[:len(brow)]
	o6 = o6[:len(brow)]
	o7 = o7[:len(brow)]
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
	o0 = o0[:len(brow)]
	o1 = o1[:len(brow)]
	o2 = o2[:len(brow)]
	o3 = o3[:len(brow)]
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
	orow = orow[:len(brow)]
	for j, bv := range brow {
		if s := av + bv; s < orow[j] {
			orow[j] = s
		}
	}
}
