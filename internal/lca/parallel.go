package lca

import (
	"spatialtree/internal/par"
	"spatialtree/internal/tree"
)

// Engine answers LCA query batches on the CPU with goroutine
// parallelism: an Euler vertex tour plus a sparse table over depths
// (O(n log n) construction parallelized over table rows, O(1) per
// query). Used by the wall-clock benchmarks (experiment E12) as the
// shared-memory counterpart of the spatial algorithm.
type Engine struct {
	first  []int32 // first occurrence of each vertex in the tour
	tourV  []int32 // tour vertex ids
	depths []int   // vertex depths
	table  [][]int32
	logs   []uint8
	work   int
}

// NewEngine preprocesses t with the given worker count.
func NewEngine(t *tree.Tree, workers int) *Engine {
	n := t.N()
	e := &Engine{work: workers}
	if n == 0 {
		return e
	}
	tour := t.EulerTour(nil) // 2n-1 vertex visits
	m := len(tour)
	e.tourV = make([]int32, m)
	e.first = make([]int32, n)
	for i := range e.first {
		e.first[i] = -1
	}
	depth := t.Depths()
	for i, v := range tour {
		e.tourV[i] = int32(v)
		if e.first[v] == -1 {
			e.first[v] = int32(i)
		}
	}
	// Sparse table of argmin-depth over tour windows.
	levels := 1
	for 1<<levels <= m {
		levels++
	}
	e.table = make([][]int32, levels)
	base := make([]int32, m)
	for i := 0; i < m; i++ {
		base[i] = int32(i)
	}
	e.table[0] = base
	for k := 1; k < levels; k++ {
		width := 1 << k
		rows := m - width + 1
		if rows <= 0 {
			e.table = e.table[:k]
			break
		}
		row := make([]int32, rows)
		prev := e.table[k-1]
		half := width / 2
		par.For(rows, workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				a, b := prev[i], prev[i+half]
				if depth[e.tourV[a]] <= depth[e.tourV[b]] {
					row[i] = a
				} else {
					row[i] = b
				}
			}
		})
		e.table[k] = row
	}
	e.logs = make([]uint8, m+1)
	for i := 2; i <= m; i++ {
		e.logs[i] = e.logs[i/2] + 1
	}
	e.depths = depth
	return e
}

func (e *Engine) query(u, v int) int {
	a, b := e.first[u], e.first[v]
	if a > b {
		a, b = b, a
	}
	k := e.logs[b-a+1]
	i, j := e.table[k][a], e.table[k][b-(1<<k)+1]
	if e.depths[e.tourV[i]] <= e.depths[e.tourV[j]] {
		return int(e.tourV[i])
	}
	return int(e.tourV[j])
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
	if e.work == 1 {
		e.answer(dst, queries) // no fork-join closure to allocate
		return dst
	}
	par.For(len(queries), e.work, func(lo, hi int) {
		e.answer(dst[lo:hi], queries[lo:hi])
	})
	return dst
}

func (e *Engine) answer(dst []int, queries []Query) {
	for i, q := range queries {
		dst[i] = e.query(q.U, q.V)
	}
}
