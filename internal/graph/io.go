package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// The text format is a minimal DIMACS-like format:
//
//	# comment
//	p <n> <m>
//	e <from> <to> <weight>
//
// The "p" line must come first (comments excepted); exactly m "e" lines must
// follow. n and m must fit the CSR's int32 indices. Weights are parsed with
// strconv.ParseFloat; NaN and -Inf are rejected, +Inf (an absent edge) is
// legal, and -0 is stored as 0 (see FromEdges).

// Write serializes g in the text format.
func Write(w io.Writer, g *Digraph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "p %d %d\n", g.N(), g.M()); err != nil {
		return err
	}
	var werr error
	g.Edges(func(from, to int, wt float64) bool {
		if _, err := fmt.Fprintf(bw, "e %d %d %g\n", from, to, wt); err != nil {
			werr = err
			return false
		}
		return true
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

// Read parses the text format produced by Write.
func Read(r io.Reader) (*Digraph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	var (
		n, m    int
		sawP    bool
		edges   []Edge
		lineNum int
	)
	for sc.Scan() {
		lineNum++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "p":
			if sawP {
				return nil, fmt.Errorf("graph: line %d: duplicate p line", lineNum)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("graph: line %d: want 'p n m'", lineNum)
			}
			var err error
			if n, err = strconv.Atoi(fields[1]); err != nil {
				return nil, fmt.Errorf("graph: line %d: bad n: %v", lineNum, err)
			}
			if m, err = strconv.Atoi(fields[2]); err != nil {
				return nil, fmt.Errorf("graph: line %d: bad m: %v", lineNum, err)
			}
			if n < 0 || m < 0 {
				return nil, fmt.Errorf("graph: line %d: negative size", lineNum)
			}
			if n > math.MaxInt32 || m > math.MaxInt32 {
				return nil, fmt.Errorf("graph: line %d: size exceeds %d", lineNum, math.MaxInt32)
			}
			sawP = true
		case "e":
			if !sawP {
				return nil, fmt.Errorf("graph: line %d: e before p", lineNum)
			}
			if len(fields) != 4 {
				return nil, fmt.Errorf("graph: line %d: want 'e from to w'", lineNum)
			}
			from, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad from: %v", lineNum, err)
			}
			to, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad to: %v", lineNum, err)
			}
			w, err := strconv.ParseFloat(fields[3], 64)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad weight: %v", lineNum, err)
			}
			if math.IsNaN(w) || math.IsInf(w, -1) {
				return nil, fmt.Errorf("graph: line %d: invalid weight %v", lineNum, w)
			}
			if from < 0 || from >= n || to < 0 || to >= n {
				return nil, fmt.Errorf("graph: line %d: endpoint out of range", lineNum)
			}
			edges = append(edges, Edge{from, to, w})
		default:
			return nil, fmt.Errorf("graph: line %d: unknown record %q", lineNum, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawP {
		return nil, fmt.Errorf("graph: missing p line")
	}
	if len(edges) != m {
		return nil, fmt.Errorf("graph: p line promised %d edges, got %d", m, len(edges))
	}
	return FromEdges(n, edges), nil
}
