// Package treefix implements the paper's treefix sum algorithms
// (Section V): given a rooted tree with a value per vertex, compute for
// every vertex the fold of the values in its subtree (bottom-up treefix)
// or along its root path (top-down treefix, Section V-D), under any
// associative operator.
//
// Three executors share the same semantics:
//
//   - SequentialBottomUp / SequentialTopDown: host oracles.
//   - BottomUp / TopDown / Both: the paper's Las Vegas rake-and-compress
//     supervertex contraction on the spatial computer simulator, with
//     O(1) algorithm state per processor and every message charged
//     (Lemmas 10-12: O(n log n) energy; O(log n) depth for bounded
//     degree, O(log² n) otherwise, with high probability).
//   - Engine.BottomUp / TopDown: the native serving backend's treefix
//     kernel. One pass over a preorder recorded once per tree: O(n)
//     work for any operator, and the output is the only allocation.
//     From ParallelMin vertices, an engine with more than one worker
//     splits the pass into one preorder range per goroutine.
//     BottomUpSum / TopDownSum are the + versions, always one pass.
package treefix

import "fmt"

// Op is the associative operator of a treefix sum. Bottom-up treefix
// folds children in unspecified order, so Combine must be commutative
// (the paper's examples: sum, maximum). Identity must satisfy
// Combine(Identity, x) == x. Every executor needs only Combine; Name
// labels the operator and selects no code path.
type Op struct {
	Name     string
	Identity int64
	Combine  func(a, b int64) int64
}

// Add is the + operator (the paper's subtree-size and prefix use cases).
var Add = Op{Name: "add", Identity: 0, Combine: func(a, b int64) int64 { return a + b }}

// Max folds to the maximum value.
var Max = Op{Name: "max", Identity: -1 << 62, Combine: func(a, b int64) int64 { return max(a, b) }}

// Min folds to the minimum value.
var Min = Op{Name: "min", Identity: 1 << 62, Combine: func(a, b int64) int64 { return min(a, b) }}

// Xor folds with exclusive-or; useful in tests because it is its own
// inverse.
var Xor = Op{Name: "xor", Identity: 0, Combine: func(a, b int64) int64 { return a ^ b }}

// OpByName returns a registered operator. An unknown name is a caller
// mistake: the error satisfies errors.Is(err, ErrInvalid) so the
// serving layer can map it to HTTP 400 / wire status invalid.
//
//spatialvet:errclass
func OpByName(name string) (Op, error) {
	switch name {
	case "add":
		return Add, nil
	case "max":
		return Max, nil
	case "min":
		return Min, nil
	case "xor":
		return Xor, nil
	}
	return Op{}, invalid(fmt.Errorf("treefix: unknown op %q", name))
}
