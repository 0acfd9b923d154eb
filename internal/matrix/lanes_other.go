//go:build !amd64

package matrix

func laneRelax(d []float64, width int, runs []LaneRun, to []int32, w []float64) bool {
	return laneRelaxGo(d, width, runs, to, w)
}
