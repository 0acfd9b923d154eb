package sepsp

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"sepsp/internal/faultinject"
)

// cacheServer builds a server with the result cache enabled over the
// standard 10×10 grid fixture.
func cacheServer(t testing.TB, opt *ServerOptions) (*Server, *Index, int) {
	t.Helper()
	ix, n := serverIndex(t)
	if opt == nil {
		opt = &ServerOptions{}
	}
	if opt.CacheBytes == 0 {
		opt.CacheBytes = 1 << 20
	}
	srv, err := NewServer(ix, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, ix, n
}

// TestServerCacheHitBitIdentical is the tentpole's correctness core: a
// cached answer must be bit-identical — not approximately equal — to a
// fresh SSSP on the same epoch, and the hit must be visible in Healthz.
func TestServerCacheHitBitIdentical(t *testing.T) {
	srv, ix, _ := cacheServer(t, nil)
	ctx := context.Background()
	const src = 37

	first, err := srv.SSSP(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	second, err := srv.SSSP(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	fresh := mustSSSP(t, ix, src)
	for v := range fresh {
		if first[v] != fresh[v] {
			t.Fatalf("computed dist[%d] = %v, fresh SSSP %v (must be bit-identical)", v, first[v], fresh[v])
		}
		if second[v] != fresh[v] {
			t.Fatalf("cached dist[%d] = %v, fresh SSSP %v (must be bit-identical)", v, second[v], fresh[v])
		}
	}
	// The two returned slices must be independent copies.
	second[0] = -1
	third, err := srv.SSSP(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	if third[0] != fresh[0] {
		t.Fatal("cached vector corrupted by caller mutation")
	}

	h := srv.Healthz()
	if h.CacheMisses != 1 {
		t.Fatalf("cache misses = %d, want 1", h.CacheMisses)
	}
	if h.CacheHits < 2 {
		t.Fatalf("cache hits = %d, want >= 2", h.CacheHits)
	}
	if h.CacheBytes <= 0 {
		t.Fatalf("cache bytes = %d, want > 0", h.CacheBytes)
	}
}

// TestServerCacheDistBypassesAdmission: a Dist answered from the cache must
// not touch the admission path at all — the admitted-request counter stays
// put while the hit counter advances, and the answer is exact.
func TestServerCacheDistBypassesAdmission(t *testing.T) {
	srv, ix, _ := cacheServer(t, nil)
	ctx := context.Background()
	const src, dst = 12, 87

	if _, err := srv.SSSP(ctx, src); err != nil { // prime the cache
		t.Fatal(err)
	}
	before := srv.Healthz()
	d, err := srv.Dist(ctx, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if want := mustSSSP(t, ix, src)[dst]; d != want {
		t.Fatalf("cached Dist = %v, want %v", d, want)
	}
	after := srv.Healthz()
	if after.Requests != before.Requests {
		t.Fatalf("cached Dist entered admission: requests %d -> %d", before.Requests, after.Requests)
	}
	if after.CacheHits != before.CacheHits+1 {
		t.Fatalf("cache hits %d -> %d, want +1", before.CacheHits, after.CacheHits)
	}
}

// TestServerCacheSingleFlight: N concurrent requests on one cold source
// must cost exactly one computed lane — one leader goes through admission,
// everyone else is answered from the flight or the freshly-admitted entry.
func TestServerCacheSingleFlight(t *testing.T) {
	srv, ix, _ := cacheServer(t, nil)
	ctx := context.Background()
	const src, callers = 55, 16

	want := mustSSSP(t, ix, src)
	var wg sync.WaitGroup
	dists := make([][]float64, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dists[i], errs[i] = srv.SSSP(ctx, src)
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		for v := range want {
			if dists[i][v] != want[v] {
				t.Fatalf("caller %d: dist[%d] = %v, want %v", i, v, dists[i][v], want[v])
			}
		}
	}
	h := srv.Healthz()
	if h.CacheMisses != 1 {
		t.Fatalf("cache misses = %d, want exactly 1 computed lane for %d concurrent callers", h.CacheMisses, callers)
	}
	if h.CacheHits+h.CacheShared != callers-1 {
		t.Fatalf("hits=%d shared=%d, want %d answered without computing", h.CacheHits, h.CacheShared, callers-1)
	}
}

// TestServerCacheDisabledUntouched: without CacheBytes the cache fields
// stay zero and serving is unchanged.
func TestServerCacheDisabledUntouched(t *testing.T) {
	ix, _ := serverIndex(t)
	srv, err := NewServer(ix, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := srv.SSSP(ctx, 7); err != nil {
			t.Fatal(err)
		}
	}
	h := srv.Healthz()
	if h.CacheHits != 0 || h.CacheMisses != 0 || h.CacheShared != 0 || h.CacheBytes != 0 {
		t.Fatalf("disabled cache moved health counters: %+v", h)
	}
	if h.Requests != 3 {
		t.Fatalf("requests = %d, want 3 (every query through admission)", h.Requests)
	}
}

// TestServerCacheRejectsNegativeBudget pins option validation.
func TestServerCacheRejectsNegativeBudget(t *testing.T) {
	ix, _ := serverIndex(t)
	if _, err := NewServer(ix, &ServerOptions{CacheBytes: -1}); err == nil {
		t.Fatal("NewServer accepted a negative CacheBytes")
	}
}

// TestServerCacheDegradedNeverAdmitted: an index latched onto the baseline
// fallback engine answers queries, but those degraded vectors must never
// enter the cache — every request recomputes.
func TestServerCacheDegradedNeverAdmitted(t *testing.T) {
	g, _ := gridGraph(t, 5, 5, 33)
	inj := faultinject.NewSeeded(faultinject.Config{
		Seed: 1,
		Sites: map[string]faultinject.SiteConfig{
			faultinject.SitePramWorker: {PanicPerMille: 1000},
		},
	})
	ix, err := Build(g, &Options{Fallback: FallbackBaseline, Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	if !ix.Degraded() {
		t.Fatal("expected a degraded index")
	}
	srv, err := NewServer(ix, &ServerOptions{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := srv.SSSP(ctx, 0); err != nil {
			t.Fatal(err)
		}
	}
	h := srv.Healthz()
	if h.CacheHits != 0 || h.CacheBytes != 0 {
		t.Fatalf("degraded vectors were cached: hits=%d bytes=%d", h.CacheHits, h.CacheBytes)
	}
}

// TestServerCacheEpochSwapStress is the epoch-correctness satellite: it
// interleaves Manager.Reweight hot-swaps with concurrent cached SSSP and
// Dist callers under -race. The two weight sets differ by an exact ×1024
// scale (a power of two, so every distance scales bit-exactly), which makes
// stale vectors unmistakable: a request issued after a Reweight returns
// must answer with the NEW epoch's distances, never the old scale.
func TestServerCacheEpochSwapStress(t *testing.T) {
	gA, grid := gridGraph(t, 8, 8, 1)
	gB := NewGraph(grid.G.N())
	grid.G.Edges(func(from, to int, wt float64) bool {
		gB.AddEdge(from, to, wt*1024)
		return true
	})
	ix, err := Build(gA, &Options{Decomposition: GridDecomposition(grid.Coord)})
	if err != nil {
		t.Fatal(err)
	}
	n := grid.G.N()
	srcs := []int{0, 17, 42, 63}
	refA := make(map[int][]float64, len(srcs))
	for _, s := range srcs {
		refA[s] = mustSSSP(t, ix, s)
	}
	// Epoch parity decides the weight set: odd epochs serve gA (scale 1),
	// even epochs serve gB (scale 1024).
	scaleOf := func(epoch uint64) float64 {
		if epoch%2 == 1 {
			return 1
		}
		return 1024
	}
	matches := func(dist []float64, src int, scale float64) bool {
		ref := refA[src]
		for v := 0; v < n; v++ {
			want := ref[v] * scale
			if math.Abs(dist[v]-want) > 1e-9*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}

	srv, err := NewServer(ix, &ServerOptions{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	stop := make(chan struct{})
	var failed atomic.Bool
	var wg sync.WaitGroup

	// Hammer goroutines: every answered vector must be internally
	// consistent with exactly one epoch's scale — a torn or stale-mixed
	// vector matches neither. When no swap raced the call, the scale must
	// be the current epoch's.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				src := srcs[(w+i)%len(srcs)]
				e0 := srv.Manager().Epoch()
				dist, err := srv.SSSP(ctx, src)
				if err != nil {
					t.Errorf("SSSP: %v", err)
					failed.Store(true)
					return
				}
				e1 := srv.Manager().Epoch()
				okA, okB := matches(dist, src, 1), matches(dist, src, 1024)
				if !okA && !okB {
					t.Errorf("src %d: vector matches neither epoch scale", src)
					failed.Store(true)
					return
				}
				if e0 == e1 && !matches(dist, src, scaleOf(e0)) {
					t.Errorf("src %d: stale-epoch vector served at stable epoch %d", src, e0)
					failed.Store(true)
					return
				}
			}
		}(w)
	}

	// The reweighter: after each swap returns, a fresh request must see the
	// new weights — started-after-swap is the no-stale-serving guarantee.
	for swap := 0; swap < 6 && !failed.Load(); swap++ {
		g := gB
		if swap%2 == 1 {
			g = gA
		}
		epoch, err := srv.Reweight(ctx, g)
		if err != nil {
			t.Fatalf("reweight %d: %v", swap, err)
		}
		dist, err := srv.SSSP(ctx, srcs[swap%len(srcs)])
		if err != nil {
			t.Fatal(err)
		}
		if !matches(dist, srcs[swap%len(srcs)], scaleOf(epoch)) {
			t.Fatalf("post-swap SSSP served a stale epoch (epoch %d)", epoch)
		}
		d, err := srv.Dist(ctx, srcs[0], n-1)
		if err != nil {
			t.Fatal(err)
		}
		if want := refA[srcs[0]][n-1] * scaleOf(epoch); math.Abs(d-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("post-swap Dist = %v, want %v (epoch %d)", d, want, epoch)
		}
	}
	close(stop)
	wg.Wait()
}
