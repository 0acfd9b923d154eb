package matrix

// laneRelax runs the AVX2 lane kernel of the width (lanes_amd64.s), or
// laneRelaxGo without AVX2. The kernels check every head, run end and
// target index before using it and report false on the first miss.
func laneRelax(d []float64, width int, runs []LaneRun, to []int32, w []float64) bool {
	if useAVX2 {
		switch width {
		case 2:
			return laneRelax2(d, runs, to, w)
		case 4:
			return laneRelax4(d, runs, to, w)
		case 8:
			return laneRelax8(d, runs, to, w)
		case 16:
			return laneRelax16(d, runs, to, w)
		}
	}
	return laneRelaxGo(d, width, runs, to, w)
}

//go:noescape
func laneRelax2(d []float64, runs []LaneRun, to []int32, w []float64) bool

//go:noescape
func laneRelax4(d []float64, runs []LaneRun, to []int32, w []float64) bool

//go:noescape
func laneRelax8(d []float64, runs []LaneRun, to []int32, w []float64) bool

//go:noescape
func laneRelax16(d []float64, runs []LaneRun, to []int32, w []float64) bool
