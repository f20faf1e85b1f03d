package treefix

import (
	"errors"
	"fmt"
	"slices"

	"spatialtree/internal/par"
	"spatialtree/internal/tree"
)

// ErrUnsupportedOp reports an operator the Engine cannot execute (no
// Combine function): a malformed operator is a typed error instead of
// wrong sums.
var ErrUnsupportedOp = errors.New("treefix: operator not executable by the parallel engine")

// ErrInvalid marks caller mistakes — a request the engine rejects on
// its face (unknown operator name, vals length mismatch) rather than an
// execution failure. The serving layer maps it to HTTP 400 / wire
// status invalid, the same contract as engine.ErrInvalid.
var ErrInvalid = errors.New("treefix: invalid request")

type invalidError struct{ error }

func (e invalidError) Is(target error) bool { return target == ErrInvalid }
func (e invalidError) Unwrap() error        { return e.error }

// invalid classifies err as a caller mistake (errors.Is(..., ErrInvalid)
// holds) while preserving its message verbatim.
func invalid(err error) error { return invalidError{err} }

// ParallelMin is the vertex count from which an engine with more than
// one worker splits BottomUp and TopDown across goroutines.
// BenchmarkEnginePaths sets it. On a 2-vCPU host (nproc = 2, two
// workers, RandomAttachment trees, median of 5) the split pass first
// beats the one-pass under every operator in both directions at 2^19
// (0.70–0.96× the one-pass's time; 0.55–0.76× at 2^20). Top-down alone
// already wins from 2^17 (0.74–0.86×), but bottom-up still loses at
// 2^17 (1.55–1.89×) and is even at 2^18 (0.89–1.05×): below 2^19 the
// workers contend for the cache lines of the shared output.
// BottomUpSum and TopDownSum never split: their one-pass, with + inlined,
// beats add's split pass at every size up to 2^20 (13.8 vs 16.3 ms
// bottom-up and 12.8 vs 13.6 ms top-down at 2^20).
const ParallelMin = 1 << 19

// Engine is the native treefix executor: the native serving backend's
// treefix kernel (and the wall-clock arm of experiment E12). NewEngine
// walks the tree once and records its preorder (the paper amortizes
// preprocessing across iterations, Section I-D); every call after that
// is one pass over the preorder, O(n) work for any operator whose only
// allocation is the output. The same preorder is the only walk the
// native backend makes of a tree: its LCA table and expression kernel
// read it through Preorder.
//
// From ParallelMin vertices, an engine with more than one worker cuts
// the preorder into one contiguous range per worker for BottomUp and
// TopDown. Each worker runs the pass over its range; the vertices whose
// fold crosses a range boundary — ancestors of a later range's first
// vertex, and vertices whose parent lies in an earlier range — are
// folded sequentially, after the ranges bottom-up and before them
// top-down. The work stays O(n) and the output stays the only
// allocation besides the goroutines.
type Engine struct {
	t *tree.Tree
	// pre lists the vertices in DFS preorder, so every parent precedes
	// its children; preParent[i] is the parent of pre[i] (preParent[0],
	// the root's, is -1).
	pre, preParent []int32
	// bounds cuts positions 1..n-1 of pre into ranges, range r being
	// [bounds[r], bounds[r+1]); cross lists in increasing order the
	// positions whose fold crosses a range boundary, and
	// cross[crossAt[r]:crossAt[r+1]] are those inside range r. A one-pass
	// engine has one range and nothing crossing.
	bounds, crossAt []int
	cross           []int32
}

// NewEngine records the preorder with one host DFS. workers <= 0 means
// par.Workers().
func NewEngine(t *tree.Tree, workers int) *Engine {
	if workers <= 0 {
		workers = par.Workers()
	}
	if t.N() < ParallelMin {
		workers = 1
	}
	return newEngine(t, workers)
}

// newEngine builds the engine with one range per worker, whatever the
// tree's size.
func newEngine(t *tree.Tree, workers int) *Engine {
	n := t.N()
	e := &Engine{t: t}
	if n == 0 {
		return e
	}
	e.pre = make([]int32, 0, n)
	e.preParent = make([]int32, 0, n)
	type frame struct {
		v    int
		next int
	}
	root := t.Root()
	e.pre = append(e.pre, int32(root))
	e.preParent = append(e.preParent, -1)
	stack := []frame{{root, 0}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		ch := t.Children(f.v)
		if f.next < len(ch) {
			c := ch[f.next]
			f.next++
			e.pre = append(e.pre, int32(c))
			e.preParent = append(e.preParent, int32(f.v))
			stack = append(stack, frame{c, 0})
			continue
		}
		stack = stack[:len(stack)-1]
	}
	e.split(min(workers, n))
	return e
}

// Preorder returns the recorded preorder: pre lists the vertices so
// that every parent precedes its children, and parent[i] is the parent
// of pre[i] (-1 for the root at position 0). The slices belong to the
// engine and must not be modified.
func (e *Engine) Preorder() (pre, parent []int32) { return e.pre, e.preParent }

// split cuts positions 1..n-1 of the preorder into k equal ranges and
// records the positions whose fold crosses a range boundary.
func (e *Engine) split(k int) {
	n := len(e.pre)
	e.bounds = make([]int, k+1)
	for r := range e.bounds {
		e.bounds[r] = 1 + r*(n-1)/k
	}
	e.crossAt = make([]int, k+1)
	if k == 1 {
		return
	}
	rank := make([]int32, n)
	for i, v := range e.pre {
		rank[v] = int32(i)
	}
	crosses := make([]bool, n)
	for r := 1; r < k; r++ {
		// An ancestor of a range's first vertex still has children in a
		// later range when its own range finishes.
		for v := e.preParent[e.bounds[r]]; v != -1 && !crosses[rank[v]]; v = int32(e.t.Parent(int(v))) {
			crosses[rank[v]] = true
		}
	}
	r := 0
	for i := 1; i < n; i++ {
		for i >= e.bounds[r+1] {
			r++
		}
		// A vertex whose parent lies in an earlier range folds across it.
		if int(rank[e.preParent[i]]) < e.bounds[r] || crosses[i] {
			e.cross = append(e.cross, int32(i))
		}
	}
	for r := range e.crossAt {
		e.crossAt[r], _ = slices.BinarySearch(e.cross, int32(e.bounds[r]))
	}
}

// BottomUp returns the subtree folds of vals under op. op must be
// commutative (as everywhere in this package); a nil Combine or a vals
// slice of the wrong length returns an error (wrapping ErrUnsupportedOp
// for the former) instead of wrong sums.
//
//spatialvet:errclass
func (e *Engine) BottomUp(vals []int64, op Op) ([]int64, error) {
	if err := e.check(vals, op); err != nil {
		return nil, err
	}
	out := slices.Clone(vals)
	e.up(out, op.Combine)
	return out, nil
}

// TopDown returns the root-path folds of vals under op (associative;
// folded in root-to-vertex order). Same error contract as BottomUp.
//
//spatialvet:errclass
func (e *Engine) TopDown(vals []int64, op Op) ([]int64, error) {
	if err := e.check(vals, op); err != nil {
		return nil, err
	}
	out := make([]int64, len(vals))
	e.down(out, vals, op.Combine)
	return out, nil
}

//spatialvet:errclass
func (e *Engine) check(vals []int64, op Op) error {
	if n := e.t.N(); len(vals) != n {
		return invalid(fmt.Errorf("treefix: vals has %d entries for %d vertices", len(vals), n))
	}
	if op.Combine == nil {
		return fmt.Errorf("%w: op %q has no Combine", ErrUnsupportedOp, op.Name)
	}
	return nil
}

// BottomUpSum returns the subtree sums of vals under +.
func (e *Engine) BottomUpSum(vals []int64) []int64 {
	out := slices.Clone(vals)
	e.BottomUpSumInPlace(out)
	return out
}

// BottomUpSumInPlace replaces vals with its subtree sums under +,
// allocating nothing.
func (e *Engine) BottomUpSumInPlace(vals []int64) {
	for i := len(e.pre) - 1; i > 0; i-- {
		vals[e.preParent[i]] += vals[e.pre[i]]
	}
}

// TopDownSum returns the root-path sums of vals under +.
func (e *Engine) TopDownSum(vals []int64) []int64 {
	out := make([]int64, len(vals))
	if len(e.pre) == 0 {
		return out
	}
	out[e.pre[0]] = vals[e.pre[0]]
	for i := 1; i < len(e.pre); i++ {
		v := e.pre[i]
		out[v] = out[e.preParent[i]] + vals[v]
	}
	return out
}

// up folds every vertex's subtree into its entry of out: each range in
// its own goroutine, then the boundary-crossing positions in reverse
// preorder, once everything below them is final.
func (e *Engine) up(out []int64, combine func(a, b int64) int64) {
	if k := len(e.bounds) - 1; k > 1 {
		par.For(k, k, func(lo, hi int) {
			for r := lo; r < hi; r++ {
				e.upRange(out, r, combine)
			}
		})
	} else if k == 1 {
		e.upRange(out, 0, combine) // no fork-join closure to allocate
	}
	for j := len(e.cross) - 1; j >= 0; j-- {
		i := e.cross[j]
		p := e.preParent[i]
		out[p] = combine(out[p], out[e.pre[i]])
	}
}

// upRange folds range r's positions into their parents in reverse
// preorder, so each vertex is final before it is folded; it skips the
// positions that cross a range boundary.
func (e *Engine) upRange(out []int64, r int, combine func(a, b int64) int64) {
	cross := e.cross[e.crossAt[r]:e.crossAt[r+1]]
	next := len(cross) - 1
	for i := e.bounds[r+1] - 1; i >= e.bounds[r]; i-- {
		if next >= 0 && int(cross[next]) == i {
			next--
			continue
		}
		p := e.preParent[i]
		out[p] = combine(out[p], out[e.pre[i]])
	}
}

// down writes every vertex's root-path fold to out: the root and the
// boundary-crossing positions first, in preorder, then each range in
// its own goroutine.
func (e *Engine) down(out, vals []int64, combine func(a, b int64) int64) {
	if len(e.pre) == 0 {
		return
	}
	root := e.pre[0]
	out[root] = vals[root]
	for _, i := range e.cross {
		v := e.pre[i]
		out[v] = combine(out[e.preParent[i]], vals[v])
	}
	if k := len(e.bounds) - 1; k > 1 {
		par.For(k, k, func(lo, hi int) {
			for r := lo; r < hi; r++ {
				e.downRange(out, vals, r, combine)
			}
		})
	} else {
		e.downRange(out, vals, 0, combine)
	}
}

// downRange computes range r's positions in preorder, so each parent is
// final before its children read it; it skips the positions that cross
// a range boundary.
func (e *Engine) downRange(out, vals []int64, r int, combine func(a, b int64) int64) {
	cross := e.cross[e.crossAt[r]:e.crossAt[r+1]]
	next := 0
	for i := e.bounds[r]; i < e.bounds[r+1]; i++ {
		if next < len(cross) && int(cross[next]) == i {
			next++
			continue
		}
		v := e.pre[i]
		out[v] = combine(out[e.preParent[i]], vals[v])
	}
}
