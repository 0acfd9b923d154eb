package matrix

// The SSE2 lane kernels (lanes_amd64.s) check every head, run end and
// target index before using it and report false on the first miss;
// LaneRelax checks in Go that w is as long as to before calling them.

//go:noescape
func laneRelax2(d []float64, runs []LaneRun, to []int32, w []float64) bool

//go:noescape
func laneRelax4(d []float64, runs []LaneRun, to []int32, w []float64) bool

//go:noescape
func laneRelax8(d []float64, runs []LaneRun, to []int32, w []float64) bool

//go:noescape
func laneRelax16(d []float64, runs []LaneRun, to []int32, w []float64) bool
