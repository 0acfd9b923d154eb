package sepsp

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"math"
	"strings"
	"testing"

	"sepsp/internal/baseline"
	"sepsp/internal/faultinject"
)

func decodeDTO(t *testing.T, blob []byte) *indexDTO {
	t.Helper()
	var dto indexDTO
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&dto); err != nil {
		t.Fatal(err)
	}
	return &dto
}

func encodeDTO(t *testing.T, dto *indexDTO) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(dto); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestBuildRejectsInvalidWeights(t *testing.T) {
	for _, tc := range []struct {
		name string
		w    float64
	}{
		{"nan", math.NaN()},
		{"neginf", math.Inf(-1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := NewGraph(2)
			g.AddEdge(0, 1, tc.w)
			if _, err := Build(g, nil); !errors.Is(err, ErrInvalidWeight) {
				t.Fatalf("Build with %v weight: err = %v, want ErrInvalidWeight", tc.w, err)
			}
		})
	}
}

func TestBuildAcceptsPosInfWeight(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1, math.Inf(1)) // equivalent to the edge being absent
	g.AddEdge(1, 2, 1)
	ix, err := Build(g, nil)
	if err != nil {
		t.Fatalf("Build with +Inf weight: %v", err)
	}
	if d := mustSSSP(t, ix, 0); !math.IsInf(d[2], 1) {
		t.Fatalf("dist[2] = %v, want +Inf through the +Inf edge", d[2])
	}
}

func TestWithWeightsRejectsInvalidWeights(t *testing.T) {
	g, _ := gridGraph(t, 4, 4, 11)
	ix, err := Build(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad, _ := gridGraph(t, 4, 4, 11)
	bad.AddEdge(0, 1, math.NaN())
	if _, err := ix.WithWeights(bad); !errors.Is(err, ErrInvalidWeight) {
		t.Fatalf("WithWeights with NaN weight: err = %v, want ErrInvalidWeight", err)
	}
}

// queryPhaseInjector panics deterministically at the engine's phase
// boundary — queries only; the build path never runs the schedule.
func queryPhaseInjector(seed int64, permille uint32) *faultinject.Seeded {
	return faultinject.NewSeeded(faultinject.Config{
		Seed: seed,
		Sites: map[string]faultinject.SiteConfig{
			faultinject.SiteQueryPhase: {PanicPerMille: permille},
		},
	})
}

func TestFallbackAbsorbsQueryPanics(t *testing.T) {
	g, _ := gridGraph(t, 6, 6, 3)
	ref := refGraph(g)
	obsv := NewTelemetry(nil)
	ix, err := Build(g, &Options{
		Fallback:  FallbackBaseline,
		Inject:    queryPhaseInjector(99, 1000), // every query panics mid-schedule
		Telemetry: obsv,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Degraded() {
		t.Fatal("index degraded at build time; injector should only fire on queries")
	}
	want, err := baseline.Dijkstra(ref, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := mustSSSP(t, ix, 0)
	for v := range want {
		if !approxEq(got[v], want[v]) {
			t.Fatalf("fallback SSSP[%d] = %v want %v", v, got[v], want[v])
		}
	}
	// A transient query panic must not latch degradation.
	if ix.Degraded() {
		t.Fatal("transient query panic latched Degraded")
	}
	if n := obsv.reg.CounterValue("sepsp_fallback_engaged_total"); n == 0 {
		t.Fatal("sepsp_fallback_engaged_total not incremented")
	}
	if n := obsv.reg.CounterValue("sepsp_fallback_queries_total"); n == 0 {
		t.Fatal("sepsp_fallback_queries_total not incremented")
	}

	// Error-returning and tree/path entry points fall back too.
	if _, err := ix.SSSPContext(context.Background(), 1); err != nil {
		t.Fatalf("SSSPContext with fallback: %v", err)
	}
	dist, parent, err := ix.SSSPTreeContext(context.Background(), 0)
	if err != nil {
		t.Fatalf("SSSPTreeContext with fallback: %v", err)
	}
	if !approxEq(dist[len(dist)-1], want[len(want)-1]) {
		t.Fatalf("fallback SSSPTreeContext dist mismatch")
	}
	if parent[0] != 0 {
		t.Fatalf("fallback SSSPTreeContext parent[src] = %d, want src", parent[0])
	}
}

func TestPanicSurfacesWithoutFallback(t *testing.T) {
	g, _ := gridGraph(t, 6, 6, 3)
	ix, err := Build(g, &Options{Inject: queryPhaseInjector(99, 1000)})
	if err != nil {
		t.Fatal(err)
	}
	_, err = ix.SSSPContext(context.Background(), 0)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("SSSPContext err = %v, want *PanicError", err)
	}
	if !faultinject.IsInjected(pe.Value) {
		t.Fatalf("PanicError.Value = %v, want injected fault marker", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("PanicError.Stack empty")
	}

	// The point and path queries return the same typed error.
	if _, err := ix.DistContext(context.Background(), 0, 1); !errors.As(err, &pe) {
		t.Fatalf("DistContext err = %v, want *PanicError", err)
	}
	if _, _, _, err := ix.PathContext(context.Background(), 0, 1); !errors.As(err, &pe) {
		t.Fatalf("PathContext err = %v, want *PanicError", err)
	}
}

func TestIndexUsableAfterPanic(t *testing.T) {
	g, _ := gridGraph(t, 6, 6, 3)
	ref := refGraph(g)
	// A low per-phase rate so that (with ~dozens of phases per query) some
	// queries panic and others complete; both must behave on the same Index.
	ix, err := Build(g, &Options{Inject: queryPhaseInjector(5, 30)})
	if err != nil {
		t.Fatal(err)
	}
	want, err := baseline.Dijkstra(ref, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	panics, successes := 0, 0
	for i := 0; i < 40; i++ {
		got, err := ix.SSSPContext(context.Background(), 0)
		if err != nil {
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("query %d: err = %v, want *PanicError", i, err)
			}
			panics++
			continue
		}
		successes++
		for v := range want {
			if !approxEq(got[v], want[v]) {
				t.Fatalf("post-panic SSSP[%d] = %v want %v", v, got[v], want[v])
			}
		}
	}
	if panics == 0 || successes == 0 {
		t.Fatalf("want a mix of outcomes, got %d panics / %d successes", panics, successes)
	}
}

func TestDegradedBuildServesExact(t *testing.T) {
	g, _ := gridGraph(t, 6, 6, 7)
	ref := refGraph(g)
	obsv := NewTelemetry(nil)
	inj := faultinject.NewSeeded(faultinject.Config{
		Seed: 1,
		Sites: map[string]faultinject.SiteConfig{
			faultinject.SitePramWorker: {PanicPerMille: 1000}, // every build round panics
		},
	})
	ix, err := Build(g, &Options{Fallback: FallbackBaseline, Inject: inj, Telemetry: obsv})
	if err != nil {
		t.Fatalf("Build should degrade, not fail: %v", err)
	}
	if !ix.Degraded() || !ix.Stats().Degraded {
		t.Fatal("index not marked degraded after build-time panic")
	}
	if n := obsv.reg.CounterValue("sepsp_fallback_engaged_total"); n == 0 {
		t.Fatal("degradation not counted in sepsp_fallback_engaged_total")
	}

	want, err := baseline.Dijkstra(ref, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := mustSSSP(t, ix, 2)
	for v := range want {
		if !approxEq(got[v], want[v]) {
			t.Fatalf("degraded SSSP[%d] = %v want %v", v, got[v], want[v])
		}
	}
	if d := mustDist(t, ix, 2, 5); !approxEq(d, want[5]) {
		t.Fatalf("degraded Dist = %v want %v", d, want[5])
	}
	if rows, err := ix.SourcesBatchedContext(context.Background(), []int{0, 2}); err != nil || !approxEq(rows[1][5], want[5]) {
		t.Fatalf("degraded SourcesBatchedContext mismatch: %v", err)
	}
	if _, err := ix.DistToContext(context.Background(), 3); err != nil {
		t.Fatalf("degraded DistToContext: %v", err)
	}
	if set, err := ix.Reachable(0); err != nil || !set[ref.N()-1] {
		t.Fatalf("degraded Reachable = %v, %v", set, err)
	}
	if path, w, ok := mustPath(t, ix, 2, 5); !ok || len(path) == 0 || !approxEq(w, want[5]) {
		t.Fatalf("degraded Path = %v, %v, %v", path, w, ok)
	}

	// Index-structure operations are unavailable and say so.
	if _, err := ix.BuildOracle(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("BuildOracle on degraded index: err = %v, want ErrDegraded", err)
	}
	if err := ix.Save(&bytes.Buffer{}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Save on degraded index: err = %v, want ErrDegraded", err)
	}
	if _, err := ix.WithWeights(g); !errors.Is(err, ErrDegraded) {
		t.Fatalf("WithWeights on degraded index: err = %v, want ErrDegraded", err)
	}
	if s := ix.RenderDecomposition(); !strings.Contains(s, "degraded") {
		t.Fatalf("RenderDecomposition = %q, want degradation notice", s)
	}
}

func TestBuildPanicFailsWithoutFallback(t *testing.T) {
	g, _ := gridGraph(t, 6, 6, 7)
	inj := faultinject.NewSeeded(faultinject.Config{
		Seed: 1,
		Sites: map[string]faultinject.SiteConfig{
			faultinject.SitePramWorker: {PanicPerMille: 1000},
		},
	})
	_, err := Build(g, &Options{Inject: inj})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Build err = %v, want *PanicError", err)
	}
	if pe.Op != "build" {
		t.Fatalf("PanicError.Op = %q, want build", pe.Op)
	}
}

func TestLoadTruncatedBlob(t *testing.T) {
	g, _ := gridGraph(t, 5, 5, 13)
	ix, err := Build(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{0, 1, len(data) / 4, len(data) / 2, len(data) - 1} {
		if _, err := Load(bytes.NewReader(data[:cut]), 0); !errors.Is(err, ErrCorruptIndex) {
			t.Fatalf("Load of %d/%d bytes: err = %v, want ErrCorruptIndex", cut, len(data), err)
		}
	}
}

func TestLoadBitFlippedBlobNeverPanics(t *testing.T) {
	g, _ := gridGraph(t, 5, 5, 13)
	ix, err := Build(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()
	data := make([]byte, len(orig))
	for pos := 0; pos < len(orig); pos += 7 { // stride keeps the test fast under -race
		for bit := 0; bit < 8; bit += 3 {
			copy(data, orig)
			data[pos] ^= 1 << bit
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("Load panicked on flip at byte %d bit %d: %v", pos, bit, r)
					}
				}()
				// Any outcome but a panic is acceptable; a detected error
				// must be the typed corruption error.
				if _, err := Load(bytes.NewReader(data), 0); err != nil && !errors.Is(err, ErrCorruptIndex) {
					t.Fatalf("flip at byte %d bit %d: err = %v, want ErrCorruptIndex", pos, bit, err)
				}
			}()
		}
	}
}

func TestLoadRejectsStructurallyCorruptDTO(t *testing.T) {
	g, _ := gridGraph(t, 4, 4, 17)
	ix, err := Build(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	save := func(mutate func(*indexDTO)) []byte {
		var buf bytes.Buffer
		if err := ix.Save(&buf); err != nil {
			t.Fatal(err)
		}
		dto := decodeDTO(t, buf.Bytes())
		mutate(dto)
		return encodeDTO(t, dto)
	}
	cases := []struct {
		name   string
		mutate func(*indexDTO)
	}{
		{"version", func(d *indexDTO) { d.Version = 99 }},
		{"edge-endpoint", func(d *indexDTO) { d.Edges[0].To = d.N + 5 }},
		{"edge-weight-nan", func(d *indexDTO) { d.Edges[0].W = math.NaN() }},
		{"shortcut-endpoint", func(d *indexDTO) {
			if len(d.Shortcuts) == 0 {
				d.Shortcuts = append(d.Shortcuts, d.Edges[0])
			}
			d.Shortcuts[0].From = -1
		}},
		{"node-vertex", func(d *indexDTO) { d.Nodes[0].V[0] = d.N + 1 }},
		{"node-parent", func(d *indexDTO) { d.Nodes[0].Parent = len(d.Nodes) + 3 }},
		{"algorithm", func(d *indexDTO) { d.Algorithm = 42 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			blob := save(tc.mutate)
			if _, err := Load(bytes.NewReader(blob), 0); !errors.Is(err, ErrCorruptIndex) {
				t.Fatalf("err = %v, want ErrCorruptIndex", err)
			}
		})
	}
}

func TestSaveLoadRoundTripStillWorks(t *testing.T) {
	g, _ := gridGraph(t, 5, 5, 19)
	ref := refGraph(g)
	ix, err := Build(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	ld, err := Load(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := baseline.Dijkstra(ref, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := mustSSSP(t, ld, 0)
	for v := range want {
		if !approxEq(got[v], want[v]) {
			t.Fatalf("loaded SSSP[%d] = %v want %v", v, got[v], want[v])
		}
	}
	if err := ld.Verify(0, got); err != nil {
		t.Fatalf("Verify on loaded index: %v", err)
	}
}
