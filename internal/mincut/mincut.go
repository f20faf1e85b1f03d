// Package mincut implements the application the paper motivates its
// kernels with (Sections I-C and V: treefix sums and LCA "are
// subroutines for other graph algorithms, such as the computation of
// minimum cuts [Karger]"): 1-respecting minimum cuts.
//
// Given a weighted graph G and a rooted spanning tree T of G, a cut
// 1-respects T if it cuts exactly one tree edge; Karger's minimum-cut
// algorithm reduces global minimum cut to 1- and 2-respecting cuts over
// O(log n) sampled trees. The weight of the cut that removes v's parent
// edge is
//
//	cut(v) = D(v) − 2·I(v)
//
// where D(v) is the total weighted degree of v's subtree and I(v) the
// total weight of graph edges with both endpoints inside the subtree.
// Both are treefix sums: D from per-vertex weighted degrees, and I from
// per-vertex values w(e) summed over the edges whose LCA is that vertex
// — so the whole computation is exactly one batched-LCA run plus two
// bottom-up treefix runs on the spatial computer.
package mincut

import (
	"errors"
	"fmt"

	"spatialtree/internal/lca"
	"spatialtree/internal/machine"
	"spatialtree/internal/rng"
	"spatialtree/internal/tree"
	"spatialtree/internal/treefix"
)

// Edge is a weighted undirected graph edge.
type Edge struct {
	U, V int
	W    int64
}

// Result reports a 1-respecting minimum cut.
type Result struct {
	// MinWeight is the weight of the lightest 1-respecting cut.
	MinWeight int64
	// ArgVertex is the vertex whose parent edge realizes it.
	ArgVertex int
	// Cuts holds cut(v) for every non-root vertex (root entry is 0 and
	// meaningless).
	Cuts []int64
	// LCAStats carries the statistics of the batched LCA run.
	LCAStats lca.Stats
}

// OneRespecting computes all 1-respecting cut weights of edges against
// the rooted spanning tree t on the spatial computer. rank must be the
// light-first placement of t (the LCA precondition). All edge weights
// must be non-negative.
func OneRespecting(s *machine.Sim, t *tree.Tree, rank []int, edges []Edge, r *rng.RNG) (Result, error) {
	if err := validate(t, edges); err != nil {
		return Result{}, err
	}
	n := t.N()

	// Weighted degrees, then D(v) by treefix.
	wdeg := make([]int64, n)
	for _, e := range edges {
		if e.U == e.V {
			continue // self-loops never cross a cut
		}
		wdeg[e.U] += e.W
		wdeg[e.V] += e.W
	}
	dSums, _ := treefix.BottomUp(s, t, rank, wdeg, treefix.Add, r)

	// LCA of every edge, batched.
	queries := make([]lca.Query, 0, len(edges))
	idx := make([]int, 0, len(edges))
	for i, e := range edges {
		if e.U == e.V {
			continue
		}
		queries = append(queries, lca.Query{U: e.U, V: e.V})
		idx = append(idx, i)
	}
	answers, lcaStats := lca.Batched(s, t, rank, queries, r)

	// Per-vertex internal-edge weight: val(u) = Σ w(e) over edges with
	// lca(e) = u, then I(v) by treefix. Many edges can share an LCA
	// (e.g. the root of a well-connected graph), so the deposits are
	// folded through per-target binary combining trees rather than
	// direct fan-in — depth O(log m) instead of Θ(max edges per LCA).
	// The groups fold in vertex order, so the send order, and with it the
	// run's Depth, is the same on every run.
	val := make([]int64, n)
	groups := make([][]int, n) // lca vertex -> contributing procs
	for qi, a := range answers {
		e := edges[idx[qi]]
		val[a] += e.W
		groups[a] = append(groups[a], rank[e.U])
	}
	var pairs [][2]int
	for {
		pairs = pairs[:0]
		active := false
		for a, procs := range groups {
			if len(procs) <= 1 {
				continue
			}
			active = true
			half := (len(procs) + 1) / 2
			for i := half; i < len(procs); i++ {
				pairs = append(pairs, [2]int{procs[i], procs[i-half]})
			}
			groups[a] = procs[:half]
		}
		if !active {
			break
		}
		s.SendBatch(pairs)
	}
	pairs = pairs[:0]
	for a, procs := range groups {
		if len(procs) == 1 {
			pairs = append(pairs, [2]int{procs[0], rank[a]})
		}
	}
	s.SendBatch(pairs)
	iSums, _ := treefix.BottomUp(s, t, rank, val, treefix.Add, r)

	res := Result{Cuts: make([]int64, n), ArgVertex: -1}
	for v := 0; v < n; v++ {
		if v == t.Root() {
			continue
		}
		cut := dSums[v] - 2*iSums[v]
		res.Cuts[v] = cut
		if res.ArgVertex == -1 || cut < res.MinWeight {
			res.MinWeight = cut
			res.ArgVertex = v
		}
	}
	res.LCAStats = lcaStats
	return res, nil
}

// validate checks the shared preconditions of every executor, so the
// spatial and parallel paths reject exactly the same inputs with
// identical messages.
// ErrInvalid marks input-validation failures (degenerate tree,
// out-of-range endpoint, negative weight), so serving layers can
// classify them as client faults with errors.Is without matching
// message text. Matching errors keep their specific messages.
var ErrInvalid = errors.New("mincut: invalid input")

type invalidError struct{ error }

func (invalidError) Is(target error) bool { return target == ErrInvalid }

func validate(t *tree.Tree, edges []Edge) error {
	n := t.N()
	if n < 2 {
		return invalidError{fmt.Errorf("mincut: tree with %d vertices has no cuts", n)}
	}
	for _, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return invalidError{fmt.Errorf("mincut: edge %v out of range", e)}
		}
		if e.W < 0 {
			return invalidError{fmt.Errorf("mincut: negative weight on %v", e)}
		}
	}
	return nil
}

// OneRespectingSequential is the host oracle: O(n·m) brute force.
func OneRespectingSequential(t *tree.Tree, edges []Edge) Result {
	n := t.N()
	res := Result{Cuts: make([]int64, n), ArgVertex: -1}
	// inSub[v][u]: is u in the subtree of v? Computed per v by DFS.
	for v := 0; v < n; v++ {
		if v == t.Root() {
			continue
		}
		in := make([]bool, n)
		stack := []int{v}
		in[v] = true
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, c := range t.Children(x) {
				in[c] = true
				stack = append(stack, c)
			}
		}
		var cut int64
		for _, e := range edges {
			if e.U != e.V && in[e.U] != in[e.V] {
				cut += e.W
			}
		}
		res.Cuts[v] = cut
		if res.ArgVertex == -1 || cut < res.MinWeight {
			res.MinWeight = cut
			res.ArgVertex = v
		}
	}
	return res
}

// RandomGraph builds a connected weighted graph: the given spanning tree's
// edges (weight 1..maxW) plus extra random edges. Useful for tests,
// benchmarks and the example.
func RandomGraph(t *tree.Tree, extraEdges, maxW int, r *rng.RNG) []Edge {
	var edges []Edge
	for v := 0; v < t.N(); v++ {
		if p := t.Parent(v); p != -1 {
			edges = append(edges, Edge{U: p, V: v, W: int64(1 + r.Intn(maxW))})
		}
	}
	for i := 0; i < extraEdges; i++ {
		u, v := r.Intn(t.N()), r.Intn(t.N())
		if u != v {
			edges = append(edges, Edge{U: u, V: v, W: int64(1 + r.Intn(maxW))})
		}
	}
	return edges
}
