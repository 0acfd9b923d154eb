package exp

import (
	"strings"
	"testing"
)

// fakeBuildResult builds a minimal E-build result shaped like
// BuildExperiment's output, for gate tests; its n=16384 prep speedup is
// 1.30.
func fakeBuildResult(work256, speedup, allocs string) *Result {
	return &Result{Tables: []*Table{
		{
			ID:     "E-build-kernel",
			Header: []string{"n", "kernel", "time/closure", "Mtriples/s", "work", "speedup"},
			Rows: [][]string{
				{"256", "naive", "100ms", "1300.0", work256, "-"},
				{"256", "blocked+delta", "50ms", "2600.0", work256, speedup},
			},
		},
		{
			ID:     "E-build-prep",
			Header: []string{"n", "alg", "P", "prep wall", "Mtriples/s", "work", "allocs", "speedup"},
			Rows: [][]string{
				{"4096", "alg41", "1", "100ms", "90.0", "9916648", allocs, "-"},
				{"16384", "alg41", "1", "400ms", "200.0", "80291887", "200000", "-"},
				{"16384", "alg41", "4", "300ms", "260.0", "80291887", "200000", "1.30"},
			},
		},
	}}
}

func TestGateBuildPasses(t *testing.T) {
	base := fakeBuildResult("134217728", "2.10", "120000")
	curr := fakeBuildResult("134217728", "1.45", "150000") // slower machine, small alloc drift
	if viol := GateBuild(curr, base); len(viol) != 0 {
		t.Fatalf("clean run flagged: %v", viol)
	}
}

func TestGateBuildCatchesWorkDrift(t *testing.T) {
	base := fakeBuildResult("134217728", "2.10", "120000")
	curr := fakeBuildResult("134217729", "2.10", "120000")
	viol := GateBuild(curr, base)
	if len(viol) == 0 || !strings.Contains(strings.Join(viol, ";"), "work") {
		t.Fatalf("work drift not flagged: %v", viol)
	}
}

func TestGateBuildCatchesSpeedupFloor(t *testing.T) {
	base := fakeBuildResult("134217728", "2.10", "120000")
	curr := fakeBuildResult("134217728", "1.10", "120000")
	viol := GateBuild(curr, base)
	if len(viol) == 0 || !strings.Contains(strings.Join(viol, ";"), "speedup") {
		t.Fatalf("speedup floor not enforced: %v", viol)
	}
}

func TestGateBuildCatchesPrepSpeedupFloor(t *testing.T) {
	base := fakeBuildResult("134217728", "2.10", "120000")
	curr := fakeBuildResult("134217728", "2.10", "120000")
	curr.Tables[1].Rows[2][7] = "0.95" // four workers slower than one
	viol := GateBuild(curr, base)
	if len(viol) != 1 || !strings.Contains(viol[0], "prep n=16384 alg41 speedup") {
		t.Fatalf("prep speedup floor not enforced: %v", viol)
	}
}

func TestGateBuildCatchesAllocRegression(t *testing.T) {
	base := fakeBuildResult("134217728", "2.10", "120000")
	curr := fakeBuildResult("134217728", "2.10", "500000") // > 1.5x + slack
	viol := GateBuild(curr, base)
	if len(viol) == 0 || !strings.Contains(strings.Join(viol, ";"), "allocs") {
		t.Fatalf("alloc regression not flagged: %v", viol)
	}
}

func TestGateBuildCatchesMissingRow(t *testing.T) {
	base := fakeBuildResult("134217728", "2.10", "120000")
	curr := fakeBuildResult("134217728", "2.10", "120000")
	curr.Tables[1].Rows = nil
	viol := GateBuild(curr, base)
	if len(viol) == 0 || !strings.Contains(strings.Join(viol, ";"), "missing") {
		t.Fatalf("missing row not flagged: %v", viol)
	}
}

func TestGateRegistry(t *testing.T) {
	if _, ok := Gate("E-build", fakeBuildResult("1", "2.0", "1"), fakeBuildResult("1", "2.0", "1")); !ok {
		t.Fatal("E-build gate not registered")
	}
}

// TestTimeClosureKernels: the experiment's timing harness runs both kernels
// on a small instance and sees identical counted work (the invariant the
// gate then compares across machines).
func TestTimeClosureKernels(t *testing.T) {
	src := kernelMatrix(64)
	_, workN, err := timeClosure(src, false)
	if err != nil {
		t.Fatal(err)
	}
	_, workB, err := timeClosure(src, true)
	if err != nil {
		t.Fatal(err)
	}
	if workN != workB || workN == 0 {
		t.Fatalf("counted work differs: naive %d, blocked %d", workN, workB)
	}
}
