package graph

import (
	"bytes"
	"os"
	"strconv"
	"strings"
	"testing"
)

// maxFuzzVertices bounds the vertex count FuzzRead lets Read build. A legal
// p line claiming more vertices makes Read allocate in proportion to the
// claim, which is not a defect, but would spend the fuzzing budget (and
// memory) on allocation instead of on parsing.
const maxFuzzVertices = 1 << 20

// FuzzRead checks that Read never panics on arbitrary text, that a graph
// it accepts has the vertex and edge counts its p line declares, and that
// Write followed by Read reproduces the same edge list.
func FuzzRead(f *testing.F) {
	grid, err := os.ReadFile("../../examples/grid8.txt")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(grid))
	for _, c := range readErrorCases {
		f.Add(c)
	}
	var w bytes.Buffer
	if err := Write(&w, FromEdges(3, []Edge{{0, 1, 1.5}, {1, 2, -2}, {2, 0, 0}, {0, 2, 1e300}})); err != nil {
		f.Fatal(err)
	}
	f.Add(w.String())

	f.Fuzz(func(t *testing.T, in string) {
		n, m, ok := pLine(in)
		if ok && n > maxFuzzVertices {
			t.Skip("p line claims more vertices than the harness builds")
		}
		g, err := Read(strings.NewReader(in))
		if err != nil {
			return
		}
		if !ok || g.N() != n || g.M() != m {
			t.Fatalf("Read built N=%d M=%d from p line n=%d m=%d (found %v)", g.N(), g.M(), n, m, ok)
		}
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, err := Read(&buf)
		if err != nil {
			t.Fatalf("Read of Write output: %v", err)
		}
		if g2.N() != g.N() {
			t.Fatalf("round trip N=%d, want %d", g2.N(), g.N())
		}
		want, got := edgeList(g), edgeList(g2)
		if len(got) != len(want) {
			t.Fatalf("round trip has %d edges, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round trip edge %d = %v, want %v", i, got[i], want[i])
			}
		}
	})
}

// pLine returns the sizes on the first record line of in when that line is
// a well-formed p line, tokenized the way Read tokenizes it.
func pLine(in string) (n, m int, ok bool) {
	for _, line := range strings.Split(in, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 || fields[0] != "p" {
			return 0, 0, false
		}
		n, errN := strconv.Atoi(fields[1])
		m, errM := strconv.Atoi(fields[2])
		return n, m, errN == nil && errM == nil
	}
	return 0, 0, false
}

func edgeList(g *Digraph) []Edge {
	var out []Edge
	g.Edges(func(from, to int, w float64) bool {
		out = append(out, Edge{from, to, w})
		return true
	})
	return out
}
