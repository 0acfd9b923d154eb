package matrix

// The SSE2 kernels read and write only [0, len(brow)) of each row. The
// wrappers slice every output row to len(brow) first, so a row too short for
// brow panics here, in Go, before the assembly runs.

func relax8(o0, o1, o2, o3, o4, o5, o6, o7, brow []float64, v0, v1, v2, v3, v4, v5, v6, v7 float64) {
	n := len(brow)
	relax8SSE(o0[:n], o1[:n], o2[:n], o3[:n], o4[:n], o5[:n], o6[:n], o7[:n], brow, v0, v1, v2, v3, v4, v5, v6, v7)
}

func relax4(o0, o1, o2, o3, brow []float64, v0, v1, v2, v3 float64) {
	n := len(brow)
	relax4SSE(o0[:n], o1[:n], o2[:n], o3[:n], brow, v0, v1, v2, v3)
}

func relax1(orow, brow []float64, av float64) {
	relax1SSE(orow[:len(brow)], brow, av)
}

//go:noescape
func relax8SSE(o0, o1, o2, o3, o4, o5, o6, o7, brow []float64, v0, v1, v2, v3, v4, v5, v6, v7 float64)

//go:noescape
func relax4SSE(o0, o1, o2, o3, brow []float64, v0, v1, v2, v3 float64)

//go:noescape
func relax1SSE(orow, brow []float64, av float64)
