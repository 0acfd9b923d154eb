package matrix

import (
	"fmt"
	"math"
)

// The lane kernels relax one bucket of edges grouped into head runs into a
// lane-major distance matrix: d holds one row of width lanes per vertex
// (row v at d[v*width : (v+1)*width]). Run r has head runs[r].H and owns the
// edges [runs[r-1].Hi, runs[r].Hi) of to and w (run 0 starts at 0), and for
// every such edge j
//
//	d[to[j]][l] = d[H][l] + w[j]   when that sum is strictly smaller,
//
// in every lane l, runs and edges in order. A run reads row H once, before
// its first edge; its edges could lower row H only through an improving
// self-loop, which a graph without negative cycles does not have, so the
// cached row equals what a per-edge reload would read. A run whose head row
// is +Inf in every lane relaxes nothing (+Inf + w < x is false for every w
// and x) and is skipped. The strict < is the row kernels' tie rule: an
// equal candidate (including −0 against +0) and a NaN candidate leave d
// unchanged. On amd64 with AVX2 the widths run assembly (lanes_amd64.s),
// elsewhere laneRelaxGo; the Go loop is compiled on every platform so the
// assembly is tested against it bit for bit.

// LaneRun is one head run of a lane bucket: head vertex H and the exclusive
// end Hi of its edges.
type LaneRun struct {
	H, Hi int32
}

// LaneWidths lists the lane counts LaneRelax supports, ascending.
var LaneWidths = [...]int{2, 4, 8, 16}

// MaxLanes is the widest lane block LaneRelax supports.
const MaxLanes = 16

// LaneRelax relaxes the bucket (runs, to, w) into the lane-major matrix d of
// the given width, one of LaneWidths; to and w are parallel. Every index is
// checked before d is touched through it: a head or target outside d and
// run ends that decrease or pass len(to) panic, possibly after earlier runs
// were applied, and so, before any, do to and w of different lengths and an
// unsupported width.
func LaneRelax(d []float64, width int, runs []LaneRun, to []int32, w []float64) {
	if len(w) != len(to) {
		panic(fmt.Sprintf("matrix: lane bucket has %d targets and %d weights", len(to), len(w)))
	}
	switch width {
	case 2, 4, 8, 16:
	default:
		panic(fmt.Sprintf("matrix: unsupported lane width %d", width))
	}
	if !laneRelax(d, width, runs, to, w) {
		panic(fmt.Sprintf("matrix: lane bucket index out of range (%d rows, %d edges)", len(d)/width, len(to)))
	}
}

// laneRelaxGo is the portable lane kernel. It reports false at the first
// index out of range, after relaxing everything before it.
func laneRelaxGo(d []float64, width int, runs []LaneRun, to []int32, w []float64) bool {
	rows := len(d) / width
	lo := 0
	for _, r := range runs {
		hi := int(r.Hi)
		if uint(r.H) >= uint(rows) || hi < lo || hi > len(to) {
			return false
		}
		var hv [MaxLanes]float64
		live := false
		for l, v := range d[int(r.H)*width : int(r.H)*width+width] {
			hv[l] = v
			live = live || !math.IsInf(v, 1)
		}
		if !live {
			lo = hi
			continue
		}
		for j := lo; j < hi; j++ {
			t := to[j]
			if uint(t) >= uint(rows) {
				return false
			}
			wj := w[j]
			trow := d[int(t)*width : int(t)*width+width]
			for l, du := range hv[:width] {
				if s := du + wj; s < trow[l] {
					trow[l] = s
				}
			}
		}
		lo = hi
	}
	return true
}
