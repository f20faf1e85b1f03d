package exec

import (
	"math/bits"

	"spatialtree/internal/lca"
	"spatialtree/internal/par"
)

// Overlay carries a native dyn shard's LCA table across mutations. The
// shard keeps the table it last built (the base) and records every
// applied mutation here in O(1), so an epoch that serves only LCA needs
// no new tree, preorder or table. It rests on two facts: deleting a
// leaf never changes the ancestry of the vertices that remain, and
// inserting one never changes anyone else's. So every vertex keeps a
// stable id: a base vertex its base id, the k-th vertex inserted since
// the base the id n0+k. Two maps absorb DeleteLeaf's swap-last
// renumbering between current and stable ids, and each inserted vertex
// records its parent, its nearest base ancestor (its anchor) and its
// depth below the anchor.
//
// Endpoints with different anchors meet where their anchors meet in the
// base table: no inserted vertex lies above both. Endpoints with the
// same anchor meet by a walk up inserted parents. Once the overlay has
// absorbed more than ε·n mutations (n at most), or an inserted chain
// grows deeper than ⌈log₂ n⌉ (which bounds that walk), the overlay
// drops its base and the next LCA builds a fresh one; a shard that has
// built no table keeps no overlay state at all.
//
// An Overlay is not safe for concurrent use. The dyn shard updates it
// only behind its engine's Quiesce barrier, and a native epoch reads
// it, after rebasing it at most once, only while no mutation can run.
type Overlay struct {
	eps       float64
	base      *lca.Engine // nil: no table yet, nothing tracked
	n0        int32       // the base tree's vertex count
	stable    []int32     // current id → stable id
	current   []int32     // stable id → current id, -1 once deleted
	inserted  []grafted   // stable id n0+k → the k-th vertex inserted since the base
	mutations int         // mutations absorbed since the base
}

// grafted describes one vertex inserted since the base.
type grafted struct {
	parent int32 // stable id of its parent
	anchor int32 // base id of its nearest base ancestor
	depth  int32 // edges from the anchor down to it, at least 1
}

// NewOverlay returns an empty overlay for a shard whose drift budget is
// eps: it absorbs at most min(eps, 1)·n mutations before its base is
// rebuilt.
func NewOverlay(eps float64) *Overlay { return &Overlay{eps: eps} }

// Insert records that leaf v was inserted under parent (current ids).
func (o *Overlay) Insert(parent, v int) {
	if o.base == nil {
		return
	}
	sp := o.stable[parent]
	g := grafted{parent: sp, anchor: sp, depth: 1}
	if sp >= o.n0 {
		up := o.inserted[sp-o.n0]
		g.anchor, g.depth = up.anchor, up.depth+1
	}
	s := o.n0 + int32(len(o.inserted))
	o.inserted = append(o.inserted, g)
	o.stable = append(o.stable, s)
	o.current = append(o.current, int32(v))
	o.absorbed(int(g.depth))
}

// Delete records that leaf v was deleted and the vertex last took over
// its id (last == v when v was the last id).
func (o *Overlay) Delete(v, last int) {
	if o.base == nil {
		return
	}
	o.current[o.stable[v]] = -1
	if last != v {
		s := o.stable[last]
		o.stable[v] = s
		o.current[s] = int32(v)
	}
	o.stable = o.stable[:last]
	o.absorbed(0)
}

// absorbed counts one mutation and drops the base once the overlay is
// over its budget: more than min(eps, 1)·n mutations, or an inserted
// vertex (at the given depth below its anchor) deeper than ⌈log₂ n⌉.
// Capping the budget at n keeps the overlay's arrays O(n) and its
// stable ids below 3n whatever eps is: without the cap, a shard with a
// large eps would absorb shallow churn without bound.
func (o *Overlay) absorbed(depth int) {
	o.mutations++
	n := len(o.stable)
	if float64(o.mutations) > min(o.eps, 1)*float64(n) || depth > bits.Len(uint(n-1)) {
		*o = Overlay{eps: o.eps}
	}
}

// rebase makes e, the table of the current n-vertex tree, the base.
func (o *Overlay) rebase(e *lca.Engine, n int) {
	*o = Overlay{eps: o.eps, base: e, n0: int32(n), stable: make([]int32, n), current: make([]int32, n)}
	for v := range o.stable {
		o.stable[v] = int32(v)
		o.current[v] = int32(v)
	}
}

// BatchLCAInto answers queries (current ids) in parallel into dst,
// reusing its storage when it has room, like lca.Engine.BatchLCAInto.
// The overlay must have a base.
func (o *Overlay) BatchLCAInto(dst []int, queries []lca.Query) []int {
	if cap(dst) < len(queries) {
		dst = make([]int, len(queries))
	}
	dst = dst[:len(queries)]
	par.For(len(queries), 0, func(lo, hi int) {
		for i, q := range queries[lo:hi] {
			dst[lo+i] = o.lca(q.U, q.V)
		}
	})
	return dst
}

func (o *Overlay) lca(u, v int) int {
	su, sv := o.stable[u], o.stable[v]
	au, du := o.anchor(su)
	av, dv := o.anchor(sv)
	if au != av {
		return int(o.current[o.base.LCA(int(au), int(av))])
	}
	for ; du > dv; du-- {
		su = o.inserted[su-o.n0].parent
	}
	for ; dv > du; dv-- {
		sv = o.inserted[sv-o.n0].parent
	}
	for su != sv { // equal depths: at depth 0 both are the anchor
		su, sv = o.inserted[su-o.n0].parent, o.inserted[sv-o.n0].parent
	}
	return int(o.current[su])
}

// anchor returns stable id s's nearest base ancestor and its depth
// below it (s itself at depth 0 for a base vertex).
func (o *Overlay) anchor(s int32) (a, depth int32) {
	if s < o.n0 {
		return s, 0
	}
	g := o.inserted[s-o.n0]
	return g.anchor, g.depth
}
