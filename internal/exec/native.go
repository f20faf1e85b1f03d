package exec

import (
	"fmt"
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
//
// On a dyn shard's epoch (NewDynNative) the tree itself is built on
// first use too, and LCA, min-cut's included, goes through the shard's
// Overlay: only an overlay without a base table makes the epoch build
// one.
type nativeBackend struct {
	// run is the pre-boxed Run value: Run() sits on the per-batch hot
	// path and reboxing nativeRun into the interface there would cost an
	// allocation per batch.
	run Run

	n     int
	build func() (*tree.Tree, error) // a dyn epoch's tree; nil when t is given
	ov    *Overlay                   // a dyn epoch's overlay; nil on a static tree

	tOnce    sync.Once
	t        *tree.Tree
	tErr     error
	tfOnce   sync.Once
	tfEng    *treefix.Engine
	lcaOnce  sync.Once
	lcaEng   *lca.Engine
	mcOnce   sync.Once
	mc       *mincut.Parallel
	baseOnce sync.Once
	baseErr  error
}

// NewDynNative builds the native backend for one epoch of a dyn shard:
// an n-vertex tree that build validates on first need, and LCA through
// ov. Construction is O(1). The caller must leave what build reads
// unchanged while the epoch serves, and apply to ov only mutations made
// after the epoch's last batch.
func NewDynNative(n int, build func() (*tree.Tree, error), ov *Overlay) Backend {
	b := &nativeBackend{n: n, build: build, ov: ov}
	b.run = nativeRun{b}
	return b
}

func newNative(cfg Config) *nativeBackend {
	b := &nativeBackend{n: cfg.Tree.N(), t: cfg.Tree}
	b.run = nativeRun{b}
	return b
}

func (b *nativeBackend) Name() string { return Native }

func (b *nativeBackend) Tree() (*tree.Tree, error) {
	if b.build != nil {
		b.tOnce.Do(func() {
			b.t, b.tErr = b.build()
			if b.tErr == nil && b.t.N() != b.n {
				b.t, b.tErr = nil, fmt.Errorf("exec: built a %d-vertex tree for a %d-vertex epoch", b.t.N(), b.n)
			}
		})
	}
	return b.t, b.tErr
}

func (b *nativeBackend) treefix() (*treefix.Engine, error) {
	t, err := b.Tree()
	if err != nil {
		return nil, err
	}
	b.tfOnce.Do(func() { b.tfEng = treefix.NewEngine(t, 0) })
	return b.tfEng, nil
}

func (b *nativeBackend) lca() (*lca.Engine, error) {
	tf, err := b.treefix()
	if err != nil {
		return nil, err
	}
	b.lcaOnce.Do(func() { b.lcaEng = lca.NewEngine(tf, 0) })
	return b.lcaEng, nil
}

func (b *nativeBackend) mincut() (*mincut.Parallel, error) {
	tf, err := b.treefix()
	if err != nil {
		return nil, err
	}
	le, err := b.lcaIndex()
	if err != nil {
		return nil, err
	}
	b.mcOnce.Do(func() { b.mc = mincut.NewParallel(b.t, tf, le, 0) })
	return b.mc, nil
}

// lcaIndex returns what answers the backend's LCA queries, min-cut's
// included: the tree's own table or, on a dyn epoch, the shard's
// overlay, so a dyn shard never holds two tables.
func (b *nativeBackend) lcaIndex() (mincut.LCAIndex, error) {
	if b.ov != nil {
		return b.ov, b.based()
	}
	return b.lca()
}

// based gives a dyn epoch's overlay a base, this epoch's LCA table,
// when it holds none; the epoch's first LCA or min-cut batch decides.
func (b *nativeBackend) based() error {
	b.baseOnce.Do(func() {
		if b.ov.base != nil {
			return
		}
		le, err := b.lca()
		if err != nil {
			b.baseErr = err
			return
		}
		b.ov.rebase(le, b.n)
	})
	return b.baseErr
}

// Run opens a batch context. Native kernels are deterministic, so the
// seed is ignored and the "run" is just a view of the shared
// preprocessed state — safe for concurrent batches, since kernels only
// read it and allocate their own (exactly pre-sized) outputs.
func (b *nativeBackend) Run(uint64) Run { return b.run }

type nativeRun struct{ b *nativeBackend }

func (run nativeRun) BottomUp(vals []int64, op treefix.Op) ([]int64, error) {
	tf, err := run.b.treefix()
	if err != nil {
		return nil, err
	}
	return tf.BottomUp(vals, op)
}

func (run nativeRun) TopDown(vals []int64, op treefix.Op) ([]int64, error) {
	tf, err := run.b.treefix()
	if err != nil {
		return nil, err
	}
	return tf.TopDown(vals, op)
}

func (run nativeRun) LCA(queries []lca.Query) ([]int, error) {
	le, err := run.b.lcaIndex()
	if err != nil {
		return nil, err
	}
	return le.BatchLCAInto(nil, queries), nil
}

func (run nativeRun) MinCut(edges []mincut.Edge) (mincut.Result, error) {
	mc, err := run.b.mincut()
	if err != nil {
		return mincut.Result{}, err
	}
	return mc.OneRespecting(edges)
}

func (run nativeRun) Expr(x *exprtree.Expr) (int64, error) {
	tf, err := run.b.treefix()
	if err != nil {
		return 0, err
	}
	return x.EvalPreorder(tf), nil
}

// Cost is identically zero: native execution does no model accounting.
// A tree whose model costs are wanted is served on a sim backend.
func (nativeRun) Cost() machine.Cost { return machine.Cost{} }
