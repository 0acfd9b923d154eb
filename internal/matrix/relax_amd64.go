package matrix

// useAVX2 reports whether the CPU and the OS support AVX2 (hasAVX2 in
// relax_amd64.s). The row and lane kernels run their AVX2 assembly when it
// is set and the Go loops otherwise.
var useAVX2 = hasAVX2()

func hasAVX2() bool

// The AVX2 kernels read and write only [0, len(brow)) of each row. The
// wrappers check every output row's length against brow first, so a row too
// short for brow panics here, in Go, before the assembly runs.

func relax8(o0, o1, o2, o3, o4, o5, o6, o7, brow []float64, v0, v1, v2, v3, v4, v5, v6, v7 float64) {
	if n := len(brow); len(o0) < n || len(o1) < n || len(o2) < n || len(o3) < n ||
		len(o4) < n || len(o5) < n || len(o6) < n || len(o7) < n {
		shortRow(n)
	}
	if useAVX2 {
		relax8AVX2(o0, o1, o2, o3, o4, o5, o6, o7, brow, v0, v1, v2, v3, v4, v5, v6, v7)
	} else {
		relax8Go(o0, o1, o2, o3, o4, o5, o6, o7, brow, v0, v1, v2, v3, v4, v5, v6, v7)
	}
}

func relax4(o0, o1, o2, o3, brow []float64, v0, v1, v2, v3 float64) {
	if n := len(brow); len(o0) < n || len(o1) < n || len(o2) < n || len(o3) < n {
		shortRow(n)
	}
	if useAVX2 {
		relax4AVX2(o0, o1, o2, o3, brow, v0, v1, v2, v3)
	} else {
		relax4Go(o0, o1, o2, o3, brow, v0, v1, v2, v3)
	}
}

func relax1(orow, brow []float64, av float64) {
	if len(orow) < len(brow) {
		shortRow(len(brow))
	}
	if useAVX2 {
		relax1AVX2(orow, brow, av)
	} else {
		relax1Go(orow, brow, av)
	}
}

//go:noescape
func relax8AVX2(o0, o1, o2, o3, o4, o5, o6, o7, brow []float64, v0, v1, v2, v3, v4, v5, v6, v7 float64)

//go:noescape
func relax4AVX2(o0, o1, o2, o3, brow []float64, v0, v1, v2, v3 float64)

//go:noescape
func relax1AVX2(orow, brow []float64, av float64)
