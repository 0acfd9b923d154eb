package sepsp

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sepsp/internal/baseline"
	"sepsp/internal/faultinject"
	"sepsp/internal/graph"
	"sepsp/internal/separator"
)

// reweightFixture builds an index over one grid and returns a second graph
// with the identical undirected skeleton but different weights — the
// reweighting input. Grid topology is a function of the dimensions alone,
// so distinct seeds vary only the weights.
func reweightFixture(t testing.TB, seed int64) (*Index, *Graph, int) {
	t.Helper()
	g1, grid := gridGraph(t, 8, 8, 1)
	ix, err := Build(g1, &Options{Decomposition: GridDecomposition(grid.Coord)})
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := gridGraph(t, 8, 8, seed)
	return ix, g2, grid.G.N()
}

func TestManagerReweightSwapsEpoch(t *testing.T) {
	ix, g2, _ := reweightFixture(t, 2)
	ref := refGraph(g2)
	m := NewManager(ix, nil)
	if got := m.Epoch(); got != 1 {
		t.Fatalf("adopted epoch = %d, want 1", got)
	}
	if got := ix.Epoch(); got != 1 {
		t.Fatalf("adoption must stamp the index: Epoch() = %d, want 1", got)
	}

	epoch, err := m.Reweight(context.Background(), g2)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 || m.Epoch() != 2 {
		t.Fatalf("epoch after swap = (%d, %d), want (2, 2)", epoch, m.Epoch())
	}
	if m.Swaps() != 1 || m.RebuildFailures() != 0 {
		t.Fatalf("swaps=%d failures=%d, want 1, 0", m.Swaps(), m.RebuildFailures())
	}
	if m.Index() == ix {
		t.Fatal("manager still serves the old index after the swap")
	}
	if ix.Epoch() != 1 {
		t.Fatalf("old index epoch mutated to %d", ix.Epoch())
	}

	// The new epoch answers with the NEW weights, exactly.
	for _, src := range []int{0, 21, 63} {
		want, _ := baseline.BellmanFord(ref, src, nil)
		got := mustSSSP(t, m.Index(), src)
		for v := range want {
			if math.Abs(got[v]-want[v]) > 1e-9*(1+math.Abs(want[v])) {
				t.Fatalf("src=%d v=%d: %v, want %v", src, v, got[v], want[v])
			}
		}
	}
}

func TestManagerFailedRebuildKeepsOldEpoch(t *testing.T) {
	ix, _, _ := reweightFixture(t, 2)
	m := NewManager(ix, nil)
	before := mustSSSP(t, m.Index(), 0)

	// A graph with a different skeleton cannot reuse the decomposition.
	other, _ := gridGraph(t, 7, 7, 3)
	_, err := m.Reweight(context.Background(), other)
	if !errors.Is(err, ErrRebuildFailed) {
		t.Fatalf("err = %v, want ErrRebuildFailed", err)
	}
	if !errors.Is(err, ErrSkeletonMismatch) {
		t.Fatalf("err = %v, want the ErrSkeletonMismatch cause to be wrapped", err)
	}
	if m.Epoch() != 1 || m.Index() != ix {
		t.Fatalf("failed rebuild moved the epoch: epoch=%d", m.Epoch())
	}
	if m.RebuildFailures() != 1 || m.Swaps() != 0 {
		t.Fatalf("failures=%d swaps=%d, want 1, 0", m.RebuildFailures(), m.Swaps())
	}
	after := mustSSSP(t, m.Index(), 0)
	for v := range before {
		if before[v] != after[v] {
			t.Fatalf("live answers changed after a failed rebuild: v=%d %v vs %v", v, before[v], after[v])
		}
	}
}

// oneShotPanic injects exactly one panic at the manager.rebuild site, so a
// test can observe the failure and then the recovery on the next attempt.
type oneShotPanic struct{ fired atomic.Bool }

func (o *oneShotPanic) Fire(site string) faultinject.Fault {
	if site == faultinject.SiteManagerRebuild && o.fired.CompareAndSwap(false, true) {
		panic(&faultinject.Injected{Site: site, Seq: 1})
	}
	return faultinject.None
}

func TestManagerPanickingRebuildIsolated(t *testing.T) {
	ix, g2, _ := reweightFixture(t, 2)
	m := NewManager(ix, &ManagerOptions{Inject: &oneShotPanic{}})
	_, err := m.Reweight(context.Background(), g2)
	if !errors.Is(err, ErrRebuildFailed) {
		t.Fatalf("err = %v, want ErrRebuildFailed", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a wrapped *PanicError", err)
	}
	if !faultinject.IsInjected(pe.Value) {
		t.Fatalf("panic value = %v, want the injected fault", pe.Value)
	}
	if m.Epoch() != 1 || m.RebuildFailures() != 1 {
		t.Fatalf("epoch=%d failures=%d, want 1, 1", m.Epoch(), m.RebuildFailures())
	}
	if got := mustSSSP(t, m.Index(), 5); len(got) == 0 {
		t.Fatal("old epoch no longer serves")
	}
	// The injector fires once per attempt; the next rebuild succeeds.
	if _, err := m.Reweight(context.Background(), g2); err != nil {
		t.Fatalf("rebuild after isolated panic: %v", err)
	}
	if m.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", m.Epoch())
	}
}

func TestManagerReweightCancelled(t *testing.T) {
	ix, g2, _ := reweightFixture(t, 2)
	m := NewManager(ix, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := m.Reweight(ctx, g2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if errors.Is(err, ErrRebuildFailed) {
		t.Fatalf("cancellation must not read as a failure: %v", err)
	}
	if m.RebuildFailures() != 0 || m.Epoch() != 1 {
		t.Fatalf("failures=%d epoch=%d after cancel, want 0, 1", m.RebuildFailures(), m.Epoch())
	}
	// The latch is released: a fresh context rebuilds fine.
	if _, err := m.Reweight(context.Background(), g2); err != nil {
		t.Fatal(err)
	}
}

func TestManagerReweightSingleFlight(t *testing.T) {
	ix, g2, _ := reweightFixture(t, 2)
	m := NewManager(ix, nil)
	m.rebuilding.Store(true) // simulate an in-flight rebuild
	if _, err := m.Reweight(context.Background(), g2); !errors.Is(err, ErrRebuildInFlight) {
		t.Fatalf("err = %v, want ErrRebuildInFlight", err)
	}
	m.rebuilding.Store(false)
	if _, err := m.Reweight(context.Background(), g2); err != nil {
		t.Fatal(err)
	}
}

// TestManagerOldEpochDrainsOnLastRelease pins the RCU contract: a swapped-
// out epoch counts as draining until its last acquirer releases it, and the
// pinned index keeps answering while drained-out.
func TestManagerOldEpochDrainsOnLastRelease(t *testing.T) {
	ix, g2, _ := reweightFixture(t, 2)
	m := NewManager(ix, nil)
	pinned, epoch, release := m.Acquire()
	if pinned != ix || epoch != 1 {
		t.Fatalf("acquired (%p, %d), want the adopted index at epoch 1", pinned, epoch)
	}
	if _, err := m.Reweight(context.Background(), g2); err != nil {
		t.Fatal(err)
	}
	if m.draining.Load() != 1 {
		t.Fatalf("draining = %d right after the swap, want 1 (wave still pinned)", m.draining.Load())
	}
	if got := mustSSSP(t, pinned, 3); len(got) == 0 {
		t.Fatal("pinned old-epoch index stopped serving mid-drain")
	}
	release()
	if m.draining.Load() != 0 {
		t.Fatalf("draining = %d after the last release, want 0", m.draining.Load())
	}
	// A fresh acquire lands on the new epoch.
	_, epoch, release2 := m.Acquire()
	release2()
	if epoch != 2 {
		t.Fatalf("fresh acquire pinned epoch %d, want 2", epoch)
	}
}

// TestServerReweightUnderLoad is the -race epoch-swap stress: concurrent
// clients hammer the server while the main goroutine hot-swaps the index
// several times. Zero swap-attributable failures, every answer fully
// formed (no torn reads), and the epoch each client observes is monotone.
func TestServerReweightUnderLoad(t *testing.T) {
	g1, grid := gridGraph(t, 10, 10, 1)
	n := grid.G.N()
	ix, err := Build(g1, &Options{Decomposition: GridDecomposition(grid.Coord), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ix, &ServerOptions{MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	mgr := srv.Manager()

	const swaps = 4
	regraphs := make([]*Graph, swaps)
	for i := range regraphs {
		regraphs[i], _ = gridGraph(t, 10, 10, int64(i+2))
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var lastEpoch uint64
			for i := 0; !stop.Load(); i++ {
				before := mgr.Epoch()
				if before < lastEpoch {
					errc <- fmt.Errorf("client %d: epoch went backwards %d -> %d", c, lastEpoch, before)
					return
				}
				lastEpoch = before
				dist, err := srv.SSSP(context.Background(), (c*17+i)%n)
				if err != nil {
					errc <- fmt.Errorf("client %d: %v", c, err)
					return
				}
				if len(dist) != n {
					errc <- fmt.Errorf("client %d: torn answer, %d distances want %d", c, len(dist), n)
					return
				}
			}
		}(c)
	}

	for i, g := range regraphs {
		epoch, err := srv.Reweight(context.Background(), g)
		if err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
		if want := uint64(i + 2); epoch != want {
			t.Fatalf("swap %d: epoch = %d, want %d", i, epoch, want)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	srv.Close()

	if mgr.Swaps() != swaps || mgr.RebuildFailures() != 0 {
		t.Fatalf("swaps=%d failures=%d, want %d, 0", mgr.Swaps(), mgr.RebuildFailures(), swaps)
	}
	h := srv.Healthz()
	if h.Epoch != swaps+1 || h.Rebuilding {
		t.Fatalf("healthz epoch=%d rebuilding=%v, want %d, false", h.Epoch, h.Rebuilding, swaps+1)
	}
	// Every retired epoch must fully drain once the server has closed.
	deadline := time.Now().Add(5 * time.Second)
	for mgr.draining.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("draining = %d epochs after close, want 0", mgr.draining.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestServerDistValidatesBothEndpoints(t *testing.T) {
	ix, n := serverIndex(t)
	srv, err := NewServer(ix, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.Dist(context.Background(), -1, 0); !errors.Is(err, ErrBadOptions) ||
		!strings.Contains(err.Error(), "source vertex -1") {
		t.Fatalf("bad source: err = %v, want ErrBadOptions naming the source vertex", err)
	}
	if _, err := srv.Dist(context.Background(), 0, n); !errors.Is(err, ErrBadOptions) ||
		!strings.Contains(err.Error(), "destination vertex") {
		t.Fatalf("bad destination: err = %v, want ErrBadOptions naming the destination vertex", err)
	}
	if h := srv.Healthz(); h.Requests != 0 {
		t.Fatalf("requests = %d, want 0 (invalid endpoints must fail before admission)", h.Requests)
	}
	if _, err := srv.Dist(context.Background(), 0, 1); err != nil {
		t.Fatalf("valid pair: %v", err)
	}
}

func TestPersistEpochRoundTrip(t *testing.T) {
	ix, g2, _ := reweightFixture(t, 2)
	m := NewManager(ix, nil)
	if _, err := m.Reweight(context.Background(), g2); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Index().Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Epoch() != 2 {
		t.Fatalf("loaded epoch = %d, want 2", loaded.Epoch())
	}
	// A manager adopting the loaded index resumes the epoch sequence
	// instead of restarting at 1.
	m2 := NewManager(loaded, nil)
	if m2.Epoch() != 2 {
		t.Fatalf("re-adopted epoch = %d, want 2", m2.Epoch())
	}
}

// TestLoadPreEpochBlob feeds Load a version-1 blob — the exact struct shape
// an old writer produced, without the Epoch field — and expects a working
// epoch-0 index (backward compatibility of the format bump).
func TestLoadPreEpochBlob(t *testing.T) {
	gg, grid := gridGraph(t, 6, 6, 7)
	ix, err := Build(gg, &Options{Decomposition: GridDecomposition(grid.Coord)})
	if err != nil {
		t.Fatal(err)
	}
	type v1IndexDTO struct {
		Version   int
		N         int
		Edges     []graph.Edge
		Nodes     []separator.Node
		Shortcuts []graph.Edge
		RawCount  int64
		Algorithm int
	}
	v1 := v1IndexDTO{
		Version:   1,
		N:         ix.eng.Graph().N(),
		Edges:     ix.eng.Graph().EdgeList(),
		Nodes:     ix.eng.Tree().Nodes,
		Shortcuts: ix.eng.Augmentation().Edges,
		RawCount:  ix.eng.Augmentation().RawCount,
		Algorithm: int(ix.alg),
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v1); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, 0)
	if err != nil {
		t.Fatalf("version-1 blob rejected: %v", err)
	}
	if loaded.Epoch() != 0 {
		t.Fatalf("pre-epoch blob loaded with epoch %d, want 0", loaded.Epoch())
	}
	want, got := mustSSSP(t, ix, 0), mustSSSP(t, loaded, 0)
	for v := range want {
		if want[v] != got[v] && !(math.IsInf(want[v], 1) && math.IsInf(got[v], 1)) {
			t.Fatalf("v=%d: %v vs %v", v, got[v], want[v])
		}
	}
	// An unsupported future version still fails loudly.
	v1.Version = 99
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(&v1); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf, 0); !errors.Is(err, ErrCorruptIndex) {
		t.Fatalf("version 99: err = %v, want ErrCorruptIndex", err)
	}
}

func TestBuildContextCancelledNeverDegrades(t *testing.T) {
	g, grid := gridGraph(t, 8, 8, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ix, err := BuildContext(ctx, g, &Options{Decomposition: GridDecomposition(grid.Coord), Fallback: FallbackBaseline})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ix != nil {
		t.Fatal("cancelled build returned an index (fallback must not engage on cancellation)")
	}
	// The same options build fine with a live context.
	if _, err := BuildContext(context.Background(), g, &Options{Decomposition: GridDecomposition(grid.Coord), Fallback: FallbackBaseline}); err != nil {
		t.Fatal(err)
	}
}

func TestOptionsValidate(t *testing.T) {
	g, grid := gridGraph(t, 4, 4, 1)
	_ = g
	if err := (&Options{Decomposition: GridDecomposition(grid.Coord)}).Validate(); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	bad := &Options{Decomposition: TreeDecomposition([][]int{{0}}, nil)}
	if err := bad.Validate(); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("malformed decomposition: err = %v, want ErrBadOptions", err)
	}
	// BuildContext rejects the same options with the same sentinel.
	if _, err := BuildContext(context.Background(), g, bad); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("BuildContext with malformed decomposition: err = %v, want ErrBadOptions", err)
	}
}
