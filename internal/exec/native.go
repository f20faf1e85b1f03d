package exec

import (
	"sync"

	"spatialtree/internal/exprtree"
	"spatialtree/internal/lca"
	"spatialtree/internal/machine"
	"spatialtree/internal/mincut"
	"spatialtree/internal/tree"
	"spatialtree/internal/treefix"
)

// nativeBackend is the goroutine-parallel backend: per-tree
// preprocessing shared by every batch, kernels executed with no
// simulator bookkeeping. The treefix engine's recorded preorder is the
// backend's only walk of the tree: treefix folds over it, the LCA
// table is built from it, and the expression kernel is one reverse
// pass over it. Each kernel's preprocessing — the preorder, the LCA
// table over it, the min-cut executor on top of both — is built on its
// first use, so a shard pays only for the kernels it serves: a
// treefix-only shard never builds the LCA table, and an LCA-only shard
// never builds the min-cut executor. Every kernel sizes its goroutine
// parallelism from par.Workers() (a worker count of 0).
type nativeBackend struct {
	t *tree.Tree
	// run is the pre-boxed Run value: Run() sits on the per-batch hot
	// path and reboxing nativeRun into the interface there would cost an
	// allocation per batch.
	run Run

	tfOnce  sync.Once
	tfEng   *treefix.Engine
	lcaOnce sync.Once
	lcaEng  *lca.Engine
	mcOnce  sync.Once
	mc      *mincut.Parallel
}

func newNative(cfg Config) *nativeBackend {
	b := &nativeBackend{t: cfg.Tree}
	b.run = nativeRun{b}
	return b
}

func (b *nativeBackend) Name() string { return Native }

func (b *nativeBackend) treefix() *treefix.Engine {
	b.tfOnce.Do(func() { b.tfEng = treefix.NewEngine(b.t, 0) })
	return b.tfEng
}

func (b *nativeBackend) lca() *lca.Engine {
	b.lcaOnce.Do(func() { b.lcaEng = lca.NewEngine(b.treefix(), 0) })
	return b.lcaEng
}

func (b *nativeBackend) mincut() *mincut.Parallel {
	b.mcOnce.Do(func() { b.mc = mincut.NewParallel(b.t, b.treefix(), b.lca(), 0) })
	return b.mc
}

// Run opens a batch context. Native kernels are deterministic, so the
// seed is ignored and the "run" is just a view of the shared
// preprocessed state — safe for concurrent batches, since kernels only
// read it and allocate their own (exactly pre-sized) outputs.
func (b *nativeBackend) Run(uint64) Run { return b.run }

type nativeRun struct{ b *nativeBackend }

func (run nativeRun) BottomUp(vals []int64, op treefix.Op) ([]int64, error) {
	return run.b.treefix().BottomUp(vals, op)
}

func (run nativeRun) TopDown(vals []int64, op treefix.Op) ([]int64, error) {
	return run.b.treefix().TopDown(vals, op)
}

func (run nativeRun) LCA(queries []lca.Query) ([]int, error) {
	return run.b.lca().BatchLCA(queries), nil
}

func (run nativeRun) MinCut(edges []mincut.Edge) (mincut.Result, error) {
	return run.b.mincut().OneRespecting(edges)
}

func (run nativeRun) Expr(x *exprtree.Expr) (int64, error) {
	return x.EvalPreorder(run.b.treefix()), nil
}

// Cost is identically zero: native execution does no model accounting.
// A tree whose model costs are wanted is served on a sim backend.
func (nativeRun) Cost() machine.Cost { return machine.Cost{} }
