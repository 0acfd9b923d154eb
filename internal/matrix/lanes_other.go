//go:build !amd64

package matrix

func laneRelax2(d []float64, runs []LaneRun, to []int32, w []float64) bool {
	return laneRelaxGo(d, 2, runs, to, w)
}

func laneRelax4(d []float64, runs []LaneRun, to []int32, w []float64) bool {
	return laneRelaxGo(d, 4, runs, to, w)
}

func laneRelax8(d []float64, runs []LaneRun, to []int32, w []float64) bool {
	return laneRelaxGo(d, 8, runs, to, w)
}

func laneRelax16(d []float64, runs []LaneRun, to []int32, w []float64) bool {
	return laneRelaxGo(d, 16, runs, to, w)
}
