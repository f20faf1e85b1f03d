// Package lca implements the paper's batched lowest-common-ancestor
// algorithm (Section VI): given a tree stored in light-first order and a
// batch of queries, answer all of them with O(n log n) energy and
// O(log² n) depth w.h.p. using the treefix machinery, a heavy-light path
// decomposition derived from the light-first order (Section VI-A), and a
// subtree cover with per-layer range broadcasts (Sections VI-B/C).
//
// The package also provides a sequential binary-lifting oracle (the test
// reference) and the native engine: a sparse table over the preorder a
// treefix engine recorded, which the native serving backend and the
// wall-clock benchmarks use.
package lca

import "spatialtree/internal/tree"

// Oracle answers single LCA queries in O(log n) time after O(n log n)
// preprocessing (binary lifting). It is the sequential reference the
// spatial algorithm is tested against.
type Oracle struct {
	t     *tree.Tree
	depth []int
	up    [][]int32 // up[k][v] = 2^k-th ancestor (or -1)
}

// NewOracle preprocesses t.
func NewOracle(t *tree.Tree) *Oracle {
	n := t.N()
	o := &Oracle{t: t, depth: t.Depths()}
	levels := 1
	for 1<<levels < n {
		levels++
	}
	if levels == 0 {
		levels = 1
	}
	o.up = make([][]int32, levels)
	o.up[0] = make([]int32, n)
	for v := 0; v < n; v++ {
		o.up[0][v] = int32(t.Parent(v))
	}
	for k := 1; k < levels; k++ {
		o.up[k] = make([]int32, n)
		for v := 0; v < n; v++ {
			mid := o.up[k-1][v]
			if mid == -1 {
				o.up[k][v] = -1
			} else {
				o.up[k][v] = o.up[k-1][mid]
			}
		}
	}
	return o
}

// LCA returns the lowest common ancestor of u and v.
func (o *Oracle) LCA(u, v int) int {
	if o.depth[u] < o.depth[v] {
		u, v = v, u
	}
	diff := o.depth[u] - o.depth[v]
	for k := 0; diff > 0; k++ {
		if diff&1 == 1 {
			u = int(o.up[k][u])
		}
		diff >>= 1
	}
	if u == v {
		return u
	}
	for k := len(o.up) - 1; k >= 0; k-- {
		if o.up[k][u] != o.up[k][v] {
			u = int(o.up[k][u])
			v = int(o.up[k][v])
		}
	}
	return int(o.up[0][u])
}
