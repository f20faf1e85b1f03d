// Package exec is the execution-backend layer between the batch engine
// and the kernels: one batch-serving abstraction, many pluggable
// executors — the shape of Curtin et al.'s tree-independent dual-tree
// framework (one traversal, many kernels), applied to the serving path.
//
// A Backend serves one tree and hands out per-batch Runs. Two
// implementations ship:
//
//   - Sim ("sim"): the spatial-computer simulator. Every kernel runs
//     through machine.Sim with exact Energy/Messages/Depth accounting
//     and per-processor dependency clocks — the paper's cost model,
//     byte-for-byte the engine's historical serving path. This is the
//     metering and validation backend: use it when the model costs ARE
//     the product (experiments, /metrics energy accounting, the
//     backend-differential tests), not for wall-clock throughput.
//
//   - Native ("native"): CPU kernels with zero simulator bookkeeping —
//     treefix as one O(n) pass over a recorded preorder (internal/treefix
//     Engine, any operator; split across goroutines from
//     treefix.ParallelMin vertices), LCA via a sparse table of minima
//     over that preorder, min-cut via the D−2I decomposition over those
//     two, expression evaluation as one reverse pass over the preorder.
//     The preorder is the only walk of the tree, and each kernel's
//     per-tree preprocessing is built on its first use and amortized
//     across batches, the way the paper amortizes layout construction
//     (Section I-D). This is the serving default: as fast as the
//     hardware allows. A dyn shard's epoch (NewDynNative) carries the
//     amortization across mutations: it builds its tree on first need
//     and answers LCA from the shard's last built table through an
//     Overlay that each mutation updates in O(1).
//
// Both backends compute identical results on identical inputs (the
// backend-differential suite pins this; an expression value can differ
// by exprtree.Mod when leaf constants are negative, and the batch
// engine serves its canonical residue); they differ only in cost —
// wall-clock versus model. Run.Cost reports the model counters consumed
// so far in the batch: exact for sim, zero for native (a tree whose
// model costs are wanted is served on sim).
package exec

import (
	"fmt"

	"spatialtree/internal/exprtree"
	"spatialtree/internal/layout"
	"spatialtree/internal/lca"
	"spatialtree/internal/machine"
	"spatialtree/internal/mincut"
	"spatialtree/internal/tree"
	"spatialtree/internal/treefix"
)

// Backend names.
const (
	// Sim is the spatial-computer simulator backend: exact model-cost
	// metering, validation oracle.
	Sim = "sim"
	// Native is the goroutine-parallel backend: no simulator
	// bookkeeping, wall-clock serving speed.
	Native = "native"
)

// Names lists the registered backends, serving default first.
func Names() []string { return []string{Native, Sim} }

// Normalize resolves the empty backend name to Sim (the conservative,
// fully-metered default for direct engine users; the serving layer
// passes Native explicitly).
func Normalize(name string) string {
	if name == "" {
		return Sim
	}
	return name
}

// Valid reports whether name (after Normalize) is a registered backend.
func Valid(name string) bool {
	switch Normalize(name) {
	case Sim, Native:
		return true
	}
	return false
}

// Config carries what a backend needs to serve one tree.
type Config struct {
	// Tree is the served tree (required).
	Tree *tree.Tree
	// Placement is the tree's grid placement: the sim backend's state
	// (simulator sizing, message endpoints) and required by it. Native
	// ignores it; the batch engine builds none for a native engine.
	Placement *layout.Placement
	// OrderRank supplies the dense light-first rank the sim backend's
	// order-dependent kernels (LCA, min-cut) run on; nil means the
	// placement's own order. The sim backend calls it at most once, on
	// first need. Ignored by native, whose LCA/min-cut kernels are
	// order-free.
	OrderRank func() []int
}

// Backend serves one tree through per-batch Runs. Implementations are
// safe for concurrent use; distinct Runs may execute concurrently.
type Backend interface {
	// Name returns the backend's registered name.
	Name() string
	// Tree returns the served tree. A dyn shard's native epoch builds
	// it on first need, so only there can it fail.
	Tree() (*tree.Tree, error)
	// Run opens an execution context for one batch. seed drives any Las
	// Vegas coins (the sim contraction's random mates); native kernels
	// are deterministic and ignore it.
	Run(seed uint64) Run
}

// Run executes one batch's requests. Methods are called sequentially by
// one goroutine (the engine's batch runner); Cost reports the model
// counters the run has consumed so far, so callers can attribute
// per-request shares by differencing snapshots (zero throughout for
// native runs).
type Run interface {
	BottomUp(vals []int64, op treefix.Op) ([]int64, error)
	TopDown(vals []int64, op treefix.Op) ([]int64, error)
	LCA(queries []lca.Query) ([]int, error)
	MinCut(edges []mincut.Edge) (mincut.Result, error)
	// Expr evaluates x, whose tree must have the served tree's parent
	// array (engine.SubmitExpr checks it).
	Expr(x *exprtree.Expr) (int64, error)
	Cost() machine.Cost
}

// New builds the named backend ("" means Sim, see Normalize).
func New(name string, cfg Config) (Backend, error) {
	if cfg.Tree == nil {
		return nil, fmt.Errorf("exec: nil tree")
	}
	switch Normalize(name) {
	case Sim:
		return newSim(cfg)
	case Native:
		return newNative(cfg), nil
	}
	return nil, fmt.Errorf("exec: unknown backend %q (want %q or %q)", name, Native, Sim)
}
