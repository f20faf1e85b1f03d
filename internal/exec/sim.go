package exec

import (
	"fmt"
	"sync"

	"spatialtree/internal/exprtree"
	"spatialtree/internal/layout"
	"spatialtree/internal/lca"
	"spatialtree/internal/machine"
	"spatialtree/internal/mincut"
	"spatialtree/internal/rng"
	"spatialtree/internal/tree"
	"spatialtree/internal/treefix"
)

// simBackend is the spatial-computer simulator backend: the engine's
// historical serving path, preserved exactly — a fresh simulator per
// batch sized by the placement's grid, the placement's ranks as message
// endpoints, and the dense light-first rank for the order-dependent
// kernels. Its Runs record the exact model cost of every message.
type simBackend struct {
	t *tree.Tree
	p *layout.Placement
	// orderRank memoizes Config.OrderRank: computed on the first LCA or
	// min-cut request, shared by every later batch.
	orderRank func() []int
}

func newSim(cfg Config) (Backend, error) {
	if cfg.Placement == nil {
		return nil, fmt.Errorf("exec: sim backend requires a placement")
	}
	orderRank := cfg.OrderRank
	if orderRank == nil {
		orderRank = func() []int { return cfg.Placement.Order.Rank }
	}
	return &simBackend{t: cfg.Tree, p: cfg.Placement, orderRank: sync.OnceValue(orderRank)}, nil
}

func (b *simBackend) Name() string { return Sim }

func (b *simBackend) Tree() (*tree.Tree, error) { return b.t, nil }

// Run opens a batch context on a fresh simulator. The simulator is
// sized by the placement's grid, not the vertex count: for standard
// placements these coincide (Side == Curve.Side(n)), but a dynamic
// layout's spread positions occupy ranks up to Side².
func (b *simBackend) Run(seed uint64) Run {
	return &simRun{
		b: b,
		s: machine.New(b.p.Side*b.p.Side, b.p.Curve),
		r: rng.New(seed),
	}
}

// simRun executes one batch's kernels against a shared simulator, so
// per-run setup is paid once per batch and requests' costs accumulate
// on one set of counters.
type simRun struct {
	b *simBackend
	s *machine.Sim
	r *rng.RNG
}

func (run *simRun) BottomUp(vals []int64, op treefix.Op) ([]int64, error) {
	sums, _ := treefix.BottomUp(run.s, run.b.t, run.b.p.Order.Rank, vals, op, run.r)
	return sums, nil
}

func (run *simRun) TopDown(vals []int64, op treefix.Op) ([]int64, error) {
	sums, _ := treefix.TopDown(run.s, run.b.t, run.b.p.Order.Rank, vals, op, run.r)
	return sums, nil
}

func (run *simRun) LCA(queries []lca.Query) ([]int, error) {
	answers, _ := lca.Batched(run.s, run.b.t, run.b.orderRank(), queries, run.r)
	return answers, nil
}

func (run *simRun) MinCut(edges []mincut.Edge) (mincut.Result, error) {
	return mincut.OneRespecting(run.s, run.b.t, run.b.orderRank(), edges, run.r)
}

func (run *simRun) Expr(x *exprtree.Expr) (int64, error) {
	v, _ := exprtree.EvalSpatial(run.s, x, run.b.p.Order.Rank)
	return v, nil
}

func (run *simRun) Cost() machine.Cost { return run.s.Cost() }
