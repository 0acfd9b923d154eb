package graph

// SCC computes the strongly connected components of g with Tarjan's
// algorithm (iterative, so deep graphs cannot overflow the goroutine
// stack). It returns the component id of every vertex; ids are assigned in
// reverse topological order of the condensation (if u's component can reach
// v's component and they differ, then comp[u] > comp[v]).
//
// The paper's reachability context: Kao–Shannon's ˜O(n)-work planar
// reachability (cited in Section 1) is built on strongly connected
// components; here SCC serves as an independent validation baseline for the
// boolean separator engine.
func SCC(g *Digraph) (comp []int, count int) {
	n := g.N()
	comp = make([]int, n)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
		comp[i] = -1
	}
	var stack []int
	next := 0

	// Iterative Tarjan: frame carries the vertex and its out-edge cursor.
	type frame struct {
		v   int
		ei  int32
		out []int32
	}
	outOf := func(v int) []int32 {
		return g.outTo[g.outHead[v]:g.outHead[v+1]]
	}
	var call []frame
	for root := 0; root < n; root++ {
		if index[root] != -1 {
			continue
		}
		call = append(call[:0], frame{v: root, out: outOf(root)})
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(call) > 0 {
			f := &call[len(call)-1]
			if int(f.ei) < len(f.out) {
				w := int(f.out[f.ei])
				f.ei++
				if index[w] == -1 {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					call = append(call, frame{v: w, out: outOf(w)})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			// Post-order: close the component if v is a root.
			v := f.v
			call = call[:len(call)-1]
			if len(call) > 0 {
				if p := &call[len(call)-1]; low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = count
					if w == v {
						break
					}
				}
				count++
			}
		}
	}
	return comp, count
}
