package lca

import (
	"math/bits"

	"spatialtree/internal/par"
	"spatialtree/internal/treefix"
)

// Engine is the native LCA executor: the native serving backend's LCA
// kernel (and the wall-clock arm of experiment E12). It reads the
// preorder its treefix engine recorded, so the native backend walks
// each tree once for every kernel, and keeps a sparse table of minima
// over the n−1 non-root preorder positions: row 0 holds the preorder
// position of each vertex's parent, and row k the minimum of 2^k
// consecutive row-0 entries. For u ≠ v with pos[u] < pos[v], the
// vertices at positions pos[u]+1 … pos[v] all lie below LCA(u, v), and
// one of them is its child on the path to v, so the LCA is the vertex
// at the minimum of their parent positions. The table is O(n log n)
// int32 words, built in O(n log n) time with each row split across the
// workers; a query is O(1).
type Engine struct {
	pre     []int32   // the treefix engine's preorder
	pos     []int32   // pos[v] is the position of v in pre
	table   [][]int32 // table[k][i]: min of row-0 entries i … i+2^k−1
	workers int
}

// NewEngine builds the table over tf's preorder. workers <= 0 means
// par.Workers().
func NewEngine(tf *treefix.Engine, workers int) *Engine {
	if workers <= 0 {
		workers = par.Workers()
	}
	pre, parent := tf.Preorder()
	n := len(pre)
	e := &Engine{pre: pre, pos: make([]int32, n), workers: workers}
	if n < 2 {
		return e // the only vertex, if any, sits at position 0
	}
	// Row 0, entry i-1 for position i: a parent precedes its child in
	// pre, so its position is set by the time the child reads it.
	m := n - 1
	row := make([]int32, m)
	for i := 1; i < n; i++ {
		e.pos[pre[i]] = int32(i)
		row[i-1] = e.pos[parent[i]]
	}
	e.table = make([][]int32, bits.Len(uint(m)))
	e.table[0] = row
	for k := 1; k < len(e.table); k++ {
		prev, half := e.table[k-1], 1<<(k-1)
		row := make([]int32, m-(1<<k)+1)
		par.For(len(row), workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				row[i] = min(prev[i], prev[i+half])
			}
		})
		e.table[k] = row
	}
	return e
}

func (e *Engine) query(u, v int) int {
	a, b := e.pos[u], e.pos[v]
	if a == b {
		return u
	}
	if a > b {
		a, b = b, a
	}
	// Positions a+1 … b are row-0 entries a … b-1: two windows of 2^k
	// entries cover them.
	k := bits.Len32(uint32(b-a)) - 1
	row := e.table[k]
	return int(e.pre[min(row[a], row[b-(1<<k)])])
}

// BatchLCA answers all queries in parallel.
func (e *Engine) BatchLCA(queries []Query) []int {
	return e.BatchLCAInto(nil, queries)
}

// BatchLCAInto answers all queries in parallel into dst, reusing its
// storage when it has room, and returns dst resized to len(queries).
func (e *Engine) BatchLCAInto(dst []int, queries []Query) []int {
	if cap(dst) < len(queries) {
		dst = make([]int, len(queries))
	}
	dst = dst[:len(queries)]
	if e.workers == 1 {
		e.answer(dst, queries) // no fork-join closure to allocate
		return dst
	}
	par.For(len(queries), e.workers, func(lo, hi int) {
		e.answer(dst[lo:hi], queries[lo:hi])
	})
	return dst
}

func (e *Engine) answer(dst []int, queries []Query) {
	for i, q := range queries {
		dst[i] = e.query(q.U, q.V)
	}
}
