//go:build !amd64

package matrix

func relax8(o0, o1, o2, o3, o4, o5, o6, o7, brow []float64, v0, v1, v2, v3, v4, v5, v6, v7 float64) {
	relax8Go(o0, o1, o2, o3, o4, o5, o6, o7, brow, v0, v1, v2, v3, v4, v5, v6, v7)
}

func relax4(o0, o1, o2, o3, brow []float64, v0, v1, v2, v3 float64) {
	relax4Go(o0, o1, o2, o3, brow, v0, v1, v2, v3)
}

func relax1(orow, brow []float64, av float64) { relax1Go(orow, brow, av) }
