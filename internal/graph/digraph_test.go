package graph

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1, 1.5)
	b.AddEdge(1, 2, -2)
	b.AddBoth(2, 3, 7)
	g := b.Build()
	if g.N() != 4 {
		t.Fatalf("N=%d", g.N())
	}
	if g.M() != 4 {
		t.Fatalf("M=%d", g.M())
	}
	if w, ok := g.HasEdge(0, 1); !ok || w != 1.5 {
		t.Fatalf("HasEdge(0,1)=%v,%v", w, ok)
	}
	if _, ok := g.HasEdge(1, 0); ok {
		t.Fatalf("unexpected reverse edge")
	}
	out, in := 0, 0
	g.Out(2, func(int, float64) bool { out++; return true })
	g.In(2, func(int, float64) bool { in++; return true })
	if out != 1 || in != 2 {
		t.Fatalf("deg(2): out=%d in=%d", out, in)
	}
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder(2).AddEdge(0, 2, 1)
}

// TestNegativeZeroWeightStoredPositive: Build and Read store a −0 weight
// as +0 in both adjacency directions.
func TestNegativeZeroWeightStoredPositive(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 1, math.Copysign(0, -1))
	read, err := Read(bytes.NewBufferString("p 2 1\ne 1 0 -0\n"))
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*Digraph{"Build": b.Build(), "Read": read} {
		g.Edges(func(from, to int, w float64) bool {
			if math.Signbit(w) {
				t.Errorf("%s: out-edge (%d,%d) weight %v", name, from, to, w)
			}
			return true
		})
		for v := 0; v < g.N(); v++ {
			g.In(v, func(u int, w float64) bool {
				if math.Signbit(w) {
					t.Errorf("%s: in-edge (%d,%d) weight %v", name, u, v, w)
				}
				return true
			})
		}
	}
}

func TestHasEdgeParallelMin(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 1, 5)
	b.AddEdge(0, 1, 3)
	b.AddEdge(0, 1, 9)
	g := b.Build()
	if w, ok := g.HasEdge(0, 1); !ok || w != 3 {
		t.Fatalf("want min parallel weight 3, got %v (%v)", w, ok)
	}
}

// TestCSRConsistency is a property test: for random edge lists, the
// out-adjacency and in-adjacency views describe the same multiset of edges.
func TestCSRConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		m := rng.Intn(120)
		edges := make([]Edge, m)
		for i := range edges {
			edges[i] = Edge{rng.Intn(n), rng.Intn(n), float64(rng.Intn(100))}
		}
		g := FromEdges(n, edges)
		var out, in []Edge
		g.Edges(func(from, to int, w float64) bool {
			out = append(out, Edge{from, to, w})
			return true
		})
		for v := 0; v < n; v++ {
			g.In(v, func(from int, w float64) bool {
				in = append(in, Edge{from, v, w})
				return true
			})
		}
		key := func(e Edge) [3]float64 { return [3]float64{float64(e.From), float64(e.To), e.W} }
		sort.Slice(out, func(i, j int) bool { return less3(key(out[i]), key(out[j])) })
		sort.Slice(in, func(i, j int) bool { return less3(key(in[i]), key(in[j])) })
		return reflect.DeepEqual(out, in) && len(out) == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func less3(a, b [3]float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func TestReverse(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1, 2)
	b.AddEdge(1, 2, 3)
	r := b.Build().Reverse()
	if w, ok := r.HasEdge(1, 0); !ok || w != 2 {
		t.Fatalf("reverse edge missing")
	}
	if w, ok := r.HasEdge(2, 1); !ok || w != 3 {
		t.Fatalf("reverse edge missing")
	}
	if r.M() != 2 {
		t.Fatalf("M=%d", r.M())
	}
}

func TestInduced(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 1)
	b.AddEdge(3, 4, 1)
	b.AddEdge(0, 4, 9)
	g := b.Build()
	sub, orig := g.Induced([]int{0, 1, 4})
	if sub.N() != 3 {
		t.Fatalf("N=%d", sub.N())
	}
	if !reflect.DeepEqual(orig, []int{0, 1, 4}) {
		t.Fatalf("orig=%v", orig)
	}
	// edges kept: 0->1 and 0->4 (as 0->2 in new ids)
	if sub.M() != 2 {
		t.Fatalf("M=%d", sub.M())
	}
	if w, ok := sub.HasEdge(0, 2); !ok || w != 9 {
		t.Fatalf("induced 0->4 edge wrong: %v %v", w, ok)
	}
}

func TestInducedPanicsOnDuplicates(t *testing.T) {
	g := FromEdges(3, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.Induced([]int{1, 1})
}

func TestSkeletonCollapsesParallelAndLoops(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 0, 2) // antiparallel
	b.AddEdge(0, 1, 3) // parallel
	b.AddEdge(2, 2, 4) // self loop
	s := NewSkeleton(b.Build())
	if s.Degree(0) != 1 || s.Degree(1) != 1 || s.Degree(2) != 0 {
		t.Fatalf("degrees: %d %d %d", s.Degree(0), s.Degree(1), s.Degree(2))
	}
}

func TestSubComponents(t *testing.T) {
	b := NewBuilder(6)
	b.AddBoth(0, 1, 1)
	b.AddBoth(1, 2, 1)
	b.AddBoth(3, 4, 1)
	s := NewSkeleton(b.Build())
	comps := s.SubComponents([]int{0, 1, 2, 3, 4, 5})
	if len(comps) != 3 {
		t.Fatalf("components: %v", comps)
	}
	// Restricting can split a component.
	comps = s.SubComponents([]int{0, 2})
	if len(comps) != 2 {
		t.Fatalf("restricted components: %v", comps)
	}
}

func TestBFSLevels(t *testing.T) {
	b := NewBuilder(5)
	b.AddBoth(0, 1, 1)
	b.AddBoth(1, 2, 1)
	b.AddBoth(2, 3, 1)
	s := NewSkeleton(b.Build())
	lv := s.BFSLevels([]int{0, 1, 2, 3}, 0)
	for v, want := range map[int]int{0: 0, 1: 1, 2: 2, 3: 3} {
		if lv[v] != want {
			t.Fatalf("level(%d)=%d want %d", v, lv[v], want)
		}
	}
	if _, ok := lv[4]; ok {
		t.Fatal("vertex outside sub reached")
	}
}

func TestIORoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		m := rng.Intn(60)
		edges := make([]Edge, m)
		for i := range edges {
			edges[i] = Edge{rng.Intn(n), rng.Intn(n), math.Round(rng.NormFloat64()*1000) / 16}
		}
		g := FromEdges(n, edges)
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			return false
		}
		g2, err := Read(&buf)
		if err != nil {
			return false
		}
		if g2.N() != g.N() || g2.M() != g.M() {
			return false
		}
		a, b := g.EdgeList(), g2.EdgeList()
		sortEdges(a)
		sortEdges(b)
		return reflect.DeepEqual(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func sortEdges(es []Edge) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].From != es[j].From {
			return es[i].From < es[j].From
		}
		if es[i].To != es[j].To {
			return es[i].To < es[j].To
		}
		return es[i].W < es[j].W
	})
}

// readErrorCases are inputs Read must reject with an error, not a panic;
// FuzzRead also seeds its corpus with them.
var readErrorCases = []string{
	"",                        // no p line
	"e 0 1 2\n",               // e before p
	"p 2 1\n",                 // missing edges
	"p 2 1\ne 0 5 1\n",        // endpoint out of range
	"p 2 1\ne 0 1 x\n",        // bad weight
	"p 2 0\np 2 0\n",          // duplicate p
	"p 2 0\nq 1 2\n",          // unknown record
	"p -1 0\n",                // negative size
	"p 2 1\ne 0 1 1\ne 0 1 1", // too many edges
	"p 1 99999999999999\n",    // m beyond int32
	"p 999999999999999 0\n",   // n beyond int32
	"p 3000000000 0\n",        // n beyond int32
	"p 1 1\ne 0 0 NaN\n",      // NaN weight
	"p 2 1\ne 0 1 -Inf\n",     // -Inf weight
}

func TestReadErrors(t *testing.T) {
	for _, c := range readErrorCases {
		if _, err := Read(bytes.NewBufferString(c)); err == nil {
			t.Fatalf("expected error for %q", c)
		}
	}
}

func TestReadCommentsAndBlanks(t *testing.T) {
	g, err := Read(bytes.NewBufferString("# hello\n\np 2 1\n# mid\ne 0 1 2.5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if w, ok := g.HasEdge(0, 1); !ok || w != 2.5 {
		t.Fatalf("edge wrong: %v %v", w, ok)
	}
}
