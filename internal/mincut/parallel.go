package mincut

import (
	"sync"

	"spatialtree/internal/lca"
	"spatialtree/internal/tree"
	"spatialtree/internal/treefix"
)

// Parallel is the native executor of the 1-respecting minimum cut: the
// same D(v) − 2·I(v) decomposition as OneRespecting, with the two
// subtree sums on the treefix Engine and the edge LCAs on the native
// LCA engine built from that engine's preorder — no simulator, no model
// accounting. It is the native serving backend's min-cut kernel.
//
// The preprocessing (one preorder, the LCA table over it) is built once
// per tree and amortized across calls, mirroring how OneRespecting
// amortizes the light-first layout; OneRespecting answers the same
// queries with exact spatial-model costs, and OneRespectingSequential
// remains the brute-force oracle both are tested against.
type Parallel struct {
	t  *tree.Tree
	tf *treefix.Engine
	le LCAIndex
	// scratch recycles a call's working arrays, so that Result.Cuts is
	// the only per-call allocation that grows with the input. Each call
	// takes its own *workspace, so concurrent calls never share one.
	scratch sync.Pool
}

// workspace holds one call's working arrays: weighted degrees (then
// D(v) in place), internal edge weights (then I(v) in place), and the
// LCA queries, their edge indices and answers.
type workspace struct {
	wdeg, val []int64
	queries   []lca.Query
	idx, ans  []int
}

// LCAIndex answers batched LCA queries on a tree into dst, reusing its
// storage when it has room. *lca.Engine is one.
type LCAIndex interface {
	BatchLCAInto(dst []int, queries []lca.Query) []int
}

// NewParallel builds the executor for t. tf and le may be shared,
// already-built indexes over the same tree (the exec backend passes its
// own); nil builds private ones, le an lca.Engine over tf. workers <= 0
// means par.Workers().
func NewParallel(t *tree.Tree, tf *treefix.Engine, le LCAIndex, workers int) *Parallel {
	if tf == nil {
		tf = treefix.NewEngine(t, workers)
	}
	if le == nil {
		le = lca.NewEngine(tf, workers)
	}
	return &Parallel{t: t, tf: tf, le: le}
}

// OneRespecting computes all 1-respecting cut weights of edges against
// the executor's tree. Identical semantics and validation to the
// spatial OneRespecting (Result.LCAStats is zero: there is no spatial
// run to report).
func (p *Parallel) OneRespecting(edges []Edge) (Result, error) {
	if err := validate(p.t, edges); err != nil {
		return Result{}, err
	}
	n := p.t.N()
	ws, _ := p.scratch.Get().(*workspace)
	if ws == nil {
		ws = new(workspace)
	}
	defer p.scratch.Put(ws)

	// Weighted degrees, then D(v) by treefix.
	ws.wdeg = zeroed(ws.wdeg, n)
	ws.queries, ws.idx = ws.queries[:0], ws.idx[:0]
	for i, e := range edges {
		if e.U == e.V {
			continue // self-loops never cross a cut
		}
		ws.wdeg[e.U] += e.W
		ws.wdeg[e.V] += e.W
		ws.queries = append(ws.queries, lca.Query{U: e.U, V: e.V})
		ws.idx = append(ws.idx, i)
	}
	p.tf.BottomUpSumInPlace(ws.wdeg)

	// LCA of every edge, batched over the query list in parallel; then
	// the per-vertex internal-edge weight val(u) = Σ w(e) over edges with
	// lca(e) = u, and I(v) by treefix.
	ws.ans = p.le.BatchLCAInto(ws.ans, ws.queries)
	ws.val = zeroed(ws.val, n)
	for qi, a := range ws.ans {
		ws.val[a] += edges[ws.idx[qi]].W
	}
	p.tf.BottomUpSumInPlace(ws.val)

	// cut(v) = D(v) − 2·I(v); the ascending scan with a strict < keeps the
	// smallest vertex achieving the minimum, as OneRespectingSequential
	// does.
	res := Result{Cuts: make([]int64, n), ArgVertex: -1}
	root := p.t.Root()
	for v := range res.Cuts {
		if v == root {
			continue
		}
		cut := ws.wdeg[v] - 2*ws.val[v]
		res.Cuts[v] = cut
		if res.ArgVertex == -1 || cut < res.MinWeight {
			res.MinWeight, res.ArgVertex = cut, v
		}
	}
	return res, nil
}

// zeroed returns s resized to n zeroed entries, reusing its storage
// when it has room.
func zeroed(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	s = s[:n]
	clear(s)
	return s
}
