// Package spatialtree is a Go implementation of the spatial tree
// algorithms of Baumann, Ben-Nun, Besta, Gianinazzi, Hoefler and
// Luczynski, "Low-Depth Spatial Tree Algorithms" (IPDPS 2024,
// arXiv:2404.12953).
//
// The library targets the spatial computer model: a √n × √n grid of
// processors with O(1) words of memory each, where a message costs
// energy equal to the Manhattan distance it travels and the depth of a
// computation is its longest chain of dependent messages. It provides:
//
//   - space-filling curves (Hilbert, Moore, Peano, Z/Morton, plus
//     baselines) and the light-first tree order, whose composition is
//     the paper's energy-bound tree layout (Theorems 1 and 2);
//   - a spatial-computer simulator with exact energy/depth accounting
//     and collectives built from real message patterns;
//   - the layout-construction pipeline (Euler tours + random-mate list
//     ranking, Theorems 4 and 5);
//   - the virtual-tree transform for unbounded-degree trees (Theorem 3);
//   - treefix sums (bottom-up and top-down, any commutative monoid) via
//     rake/compress tree contraction (Lemmas 10-12);
//   - batched lowest common ancestors via subtree covers (Theorem 6);
//   - goroutine-parallel executors of the same operations for wall-clock
//     use, and PRAM baselines for comparison;
//   - a batched query engine (Engine, EnginePool) that amortizes one
//     cached layout across many request batches and coalesces
//     concurrently submitted work into shared runs: an idle engine
//     runs a waited request at once, work that arrives while a batch
//     runs joins the next one, and an optional autoflush deadline
//     (EngineOptions.FlushDelay) lingers instead;
//   - pluggable execution backends (EngineOptions.Backend): "sim" runs
//     every batch on the spatial-computer simulator with exact model
//     costs (the default for direct engine users), "native" serves the
//     same kernels with goroutine parallelism and no simulator
//     bookkeeping (the serving daemon's default; >10x on wall clock);
//   - a mutable serving path (DynEngine) wiring the §VII dynamic layout
//     into the engine: leaf inserts/deletes between batches, with
//     epoch-versioned serving state instead of rebuild-per-mutation;
//   - a network serving daemon (cmd/spatialtreed over internal/server)
//     exposing both engine kinds over HTTP/JSON with adaptive batching,
//     bounded-queue admission control and graceful drain;
//   - a durability subsystem (internal/persist): CRC-checked snapshots
//     (parents-only for registered trees; SaveSnapshot/LoadSnapshot for
//     placements) plus a mutation WAL for dynamic shards, giving the
//     daemon warm restarts that replay surviving mutations (-data-dir).
//
// Quick start:
//
//	t := spatialtree.RandomTree(1<<16, 42)
//	pl, _ := spatialtree.Layout(t, "hilbert")        // light-first layout
//	sum := spatialtree.TreefixSum(t, pl, vals)        // subtree sums + costs
//	fmt.Println(sum.Cost.Energy, sum.Cost.Depth)
//
// Serving repeated batches on the same tree (layout built once, requests
// coalesced — see internal/engine for the full semantics):
//
//	eng, _ := spatialtree.NewEngine(t, spatialtree.EngineOptions{})
//	fut := eng.SubmitLCA(queries)       // queued; coalesces with others
//	res := fut.Wait()                   // flushes and resolves
//	fmt.Println(res.Answers, eng.Stats().Cache.HitRate())
//
// The cmd/spatialbench binary regenerates the paper's experiments
// (`go run ./cmd/spatialbench -list` names them with the claims they
// check; docs/bench.md covers the serving benchmarks); examples/
// contains runnable end-to-end programs.
package spatialtree

import (
	"fmt"
	"io"

	"spatialtree/internal/dynlayout"
	"spatialtree/internal/engine"
	"spatialtree/internal/eulertour"
	"spatialtree/internal/exprtree"
	"spatialtree/internal/layout"
	"spatialtree/internal/lca"
	"spatialtree/internal/machine"
	"spatialtree/internal/mincut"
	"spatialtree/internal/order"
	"spatialtree/internal/persist"
	"spatialtree/internal/rng"
	"spatialtree/internal/sfc"
	"spatialtree/internal/tree"
	"spatialtree/internal/treefix"
)

// Tree is a rooted tree over vertices 0..N-1 (see NewTree).
type Tree = tree.Tree

// Curve is a space-filling curve mapping linear ranks to grid points.
type Curve = sfc.Curve

// Placement embeds an ordered tree on the processor grid.
type Placement = layout.Placement

// Cost is a simulator cost snapshot: total energy (distance-weighted
// communication volume), message count, and depth (critical path).
type Cost = machine.Cost

// Query asks for the lowest common ancestor of U and V.
type Query = lca.Query

// Op is an associative (and, for bottom-up treefix, commutative)
// operator with identity. Predefined: OpAdd, OpMax, OpMin, OpXor.
type Op = treefix.Op

// Predefined treefix operators.
var (
	OpAdd = treefix.Add
	OpMax = treefix.Max
	OpMin = treefix.Min
	OpXor = treefix.Xor
)

// NewTree builds a tree from a parent array (parent[root] = -1) and
// validates it.
func NewTree(parents []int) (*Tree, error) { return tree.FromParents(parents) }

// RandomTree returns a random recursive tree with n vertices
// (deterministic per seed).
func RandomTree(n int, seed uint64) *Tree {
	return tree.RandomAttachment(n, rng.New(seed))
}

// RandomBinaryTree returns a random tree with at most two children per
// vertex.
func RandomBinaryTree(n int, seed uint64) *Tree {
	return tree.RandomBoundedDegree(n, 2, rng.New(seed))
}

// PhylogeneticTree returns a Yule-process tree with the given number of
// leaf taxa (2·leaves-1 vertices).
func PhylogeneticTree(leaves int, seed uint64) *Tree {
	return tree.Yule(leaves, rng.New(seed))
}

// Curves lists the available space-filling curves. The distance-bound
// curves (hilbert, moore, peano) and the Z curve yield energy-bound
// light-first layouts; snake, rowmajor and scatter are baselines.
func Curves() []Curve { return sfc.Registry() }

// CurveByName returns the named curve ("hilbert", "moore", "peano",
// "zorder", "snake", "rowmajor", "scatter").
func CurveByName(name string) (Curve, error) { return sfc.ByName(name) }

// Layout computes the paper's layout: light-first order placed on the
// named space-filling curve.
func Layout(t *Tree, curveName string) (*Placement, error) {
	c, err := sfc.ByName(curveName)
	if err != nil {
		return nil, err
	}
	return layout.LightFirst(t, c), nil
}

// LayoutWithOrder places t under an arbitrary named order
// ("light-first", "heavy-first", "dfs", "bfs", "random", "identity") —
// the baselines of the paper's Section III.
func LayoutWithOrder(t *Tree, orderName, curveName string, seed uint64) (*Placement, error) {
	c, err := sfc.ByName(curveName)
	if err != nil {
		return nil, err
	}
	o, ok := order.ByName(orderName, t, rng.New(seed))
	if !ok {
		return nil, fmt.Errorf("spatialtree: unknown order %q", orderName)
	}
	return layout.New(t, o, c), nil
}

// SaveSnapshot writes p — tree, order, curve and grid — to w in the
// versioned binary snapshot format of internal/persist (length-prefixed
// and CRC-checked; see docs/persistence.md for the wire layout). A
// loaded snapshot reconstructs the placement in O(n), skipping the
// O(n log n) layout pipeline. cmd/spatialtreed does not use it: the
// daemon persists a registered tree's parents only, and a sim shard
// rebuilds its placement after a restart.
func SaveSnapshot(w io.Writer, p *Placement) error {
	_, err := w.Write(persist.EncodePlacement(persist.PlacementSnapshot{
		Parents: append([]int(nil), p.Tree.Parents()...),
		Curve:   p.Curve.Name(),
		Order:   p.Order.Name,
		Side:    p.Side,
		Ranks:   append([]int(nil), p.Order.Rank...),
	}))
	return err
}

// LoadSnapshot reads a placement snapshot written by SaveSnapshot. The
// tree, the curve and every rank are validated; corrupt or truncated
// input returns an error wrapping persist.ErrCorrupt (and a newer
// format version one wrapping persist.ErrVersion) — never a panic.
func LoadSnapshot(r io.Reader) (*Placement, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	snap, err := persist.DecodePlacement(raw)
	if err != nil {
		return nil, err
	}
	t, err := tree.FromParents(snap.Parents)
	if err != nil {
		return nil, fmt.Errorf("spatialtree: snapshot tree: %w", err)
	}
	c, err := sfc.ByName(snap.Curve)
	if err != nil {
		return nil, fmt.Errorf("spatialtree: snapshot curve: %w", err)
	}
	return layout.FromRanks(t, snap.Order, snap.Ranks, c, snap.Side)
}

// SnapshotErrors exposes the typed decode failures of the snapshot
// format, so callers can distinguish corruption from version skew:
// errors.Is(err, ErrSnapshotCorrupt) / errors.Is(err, ErrSnapshotVersion).
var (
	ErrSnapshotCorrupt = persist.ErrCorrupt
	ErrSnapshotVersion = persist.ErrVersion
)

// KernelEnergy measures the local messaging kernel on a placement:
// every vertex sends one message to each child. Theorems 1 and 2 bound
// its Energy by O(n) for light-first placements on the shipped curves.
func KernelEnergy(p *Placement) layout.KernelCost { return layout.ParentChildEnergy(p) }

// BuildLayoutOnMachine runs the full spatial layout-construction
// pipeline (Theorem 4: Euler tours + list ranking + permutation) on a
// simulator and returns the light-first ranks together with the exact
// model cost.
func BuildLayoutOnMachine(t *Tree, curveName string, seed uint64) (ranks []int, cost Cost, err error) {
	c, err := sfc.ByName(curveName)
	if err != nil {
		return nil, Cost{}, err
	}
	s := machine.New(2*t.N()+2, c)
	res := eulertour.LightFirstLayout(s, t, rng.New(seed))
	return res.Order.Rank, s.Cost(), nil
}

// TreefixResult is the outcome of a treefix sum on the simulator.
type TreefixResult struct {
	// Sums holds the per-vertex folds.
	Sums []int64
	// Cost is the exact spatial-model cost of the run.
	Cost Cost
	// Rounds is the number of contraction rounds (O(log n) w.h.p.).
	Rounds int
}

// TreefixSum computes, for every vertex, the sum of the values in its
// subtree (bottom-up treefix, Section V) on the simulator, using the
// placement's positions. Deterministic per seed; the default seed 1 is
// used.
func TreefixSum(t *Tree, p *Placement, vals []int64) TreefixResult {
	return TreefixOp(t, p, vals, OpAdd, 1)
}

// TreefixOp is TreefixSum under an arbitrary commutative operator and
// explicit coin seed.
func TreefixOp(t *Tree, p *Placement, vals []int64, op Op, seed uint64) TreefixResult {
	s := machine.New(t.N(), p.Curve)
	sums, st := treefix.BottomUp(s, t, p.Order.Rank, vals, op, rng.New(seed))
	return TreefixResult{Sums: sums, Cost: s.Cost(), Rounds: st.Rounds}
}

// TopDownTreefix computes, for every vertex, the fold of the values
// along its root path (Section V-D).
func TopDownTreefix(t *Tree, p *Placement, vals []int64, op Op, seed uint64) TreefixResult {
	s := machine.New(t.N(), p.Curve)
	sums, st := treefix.TopDown(s, t, p.Order.Rank, vals, op, rng.New(seed))
	return TreefixResult{Sums: sums, Cost: s.Cost(), Rounds: st.Rounds}
}

// LCAResult is the outcome of a batched LCA run.
type LCAResult struct {
	// Answers holds one LCA per query.
	Answers []int
	// Cost is the exact spatial-model cost.
	Cost Cost
	// Layers is the number of subtree-cover layers (O(log n)).
	Layers int
}

// BatchedLCA answers LCA queries on a light-first placement
// (Section VI, Theorem 6). For the paper's bounds each vertex should
// appear in O(1) queries.
func BatchedLCA(t *Tree, p *Placement, queries []Query, seed uint64) LCAResult {
	s := machine.New(t.N(), p.Curve)
	ans, st := lca.Batched(s, t, p.Order.Rank, queries, rng.New(seed))
	return LCAResult{Answers: ans, Cost: s.Cost(), Layers: st.Layers}
}

// SequentialTreefix is the host reference for TreefixSum (test oracle;
// also the fastest single-core implementation).
func SequentialTreefix(t *Tree, vals []int64, op Op) []int64 {
	return treefix.SequentialBottomUp(t, vals, op)
}

// LCAOracle returns a sequential binary-lifting LCA oracle.
func LCAOracle(t *Tree) *lca.Oracle { return lca.NewOracle(t) }

// GraphEdge is a weighted undirected edge for the minimum-cut
// application.
type GraphEdge = mincut.Edge

// MinCutResult reports a 1-respecting minimum cut.
type MinCutResult = mincut.Result

// OneRespectingMinCut computes, for a graph given by edges and a rooted
// spanning tree t in light-first placement p, the minimum cut among cuts
// removing exactly one tree edge (Karger's 1-respecting cuts — the
// application the paper cites for its kernels). It runs one batched LCA
// and two treefix sums on the simulator and returns the result with the
// exact model cost.
func OneRespectingMinCut(t *Tree, p *Placement, edges []GraphEdge, seed uint64) (MinCutResult, Cost, error) {
	s := machine.New(t.N(), p.Curve)
	res, err := mincut.OneRespecting(s, t, p.Order.Rank, edges, rng.New(seed))
	return res, s.Cost(), err
}

// Expression is an arithmetic expression tree (leaves hold constants
// mod exprtree.Mod; internal nodes hold + or ×).
type Expression = exprtree.Expr

// RandomExpression returns a random full-binary expression with the
// given number of leaves.
func RandomExpression(leaves int, seed uint64) *Expression {
	return exprtree.Random(leaves, rng.New(seed))
}

// EvaluateExpression evaluates the expression's root on the simulator by
// Miller-Reif rake contraction (the §V-cited application) and returns
// the value together with the exact model cost.
func EvaluateExpression(e *Expression, p *Placement) (int64, Cost) {
	s := machine.New(e.Tree.N(), p.Curve)
	v, _ := exprtree.EvalSpatial(s, e, p.Order.Rank)
	return v, s.Cost()
}

// DynamicLayout is a dynamically maintained light-first layout
// supporting leaf insertions and deletions (the paper's §VII
// future-work direction): a gap-spread placement with amortized
// rebuilds and a grid that grows and shrinks with the tree. DeleteLeaf
// keeps vertex ids contiguous by renumbering the last id into the hole;
// see its documentation. All methods report failures as errors — no
// panics are reachable on valid inputs.
type DynamicLayout = dynlayout.Dyn

// NewDynamicLayout creates a dynamic layout for t on the named curve.
// epsilon is the drift budget before a rebuild (e.g. 0.2).
func NewDynamicLayout(t *Tree, curveName string, epsilon float64) (*DynamicLayout, error) {
	c, err := sfc.ByName(curveName)
	if err != nil {
		return nil, err
	}
	return dynlayout.New(t, c, epsilon)
}

// Engine is a concurrency-safe batch server for one tree: it owns the
// tree (on the sim backend, also a cached light-first placement),
// coalesces requests submitted within a window into shared backend runs
// (Submit*/Flush), and demultiplexes the results to per-request
// futures. See the internal/engine package documentation for batching
// semantics, cache keys, and when Flush blocks.
type Engine = engine.Engine

// EngineOptions configures NewEngine: curve, auto-flush window, Las
// Vegas seed, an optional shared LayoutCache, the execution backend,
// and an optional linger, the autoflush scheduler's deadline
// (FlushDelay; Engine.StopAutoFlush disarms it). Without one, an idle
// engine dispatches at once.
type EngineOptions = engine.Options

// EngineStats snapshots an engine's lifetime counters: batches,
// requests, coalesced LCA traffic, scheduler trigger counts (size,
// deadline and idle flushes; the rest were explicit), accumulated
// model cost, and layout-cache hits/misses/evictions.
type EngineStats = engine.Stats

// EngineResult is the resolved outcome of one submitted request.
type EngineResult = engine.Result

// LayoutCache is an LRU cache of light-first placements keyed by tree
// fingerprint × curve. Share one cache across sim engines (or use an
// EnginePool) so repeated workloads on structurally identical trees
// skip the O(n log n) layout pipeline.
type LayoutCache = engine.LayoutCache

// NewLayoutCache returns a cache holding at most capacity placements.
func NewLayoutCache(capacity int) *LayoutCache { return engine.NewLayoutCache(capacity) }

// NewEngine builds a batched query engine for t. On the sim backend the
// placement comes from the layout cache, so re-creating an engine for an
// already-seen tree skips layout construction; a native engine builds
// no layout.
func NewEngine(t *Tree, opts EngineOptions) (*Engine, error) { return engine.New(t, opts) }

// EnginePool shards engines by tree fingerprint over one shared layout
// cache — one engine per tree, which Shard switches between
// backends in place — and flushes independent shards in parallel.
type EnginePool = engine.Pool

// NewEnginePool returns a pool whose engines take opts.
func NewEnginePool(opts EngineOptions) *EnginePool {
	return engine.NewPool(opts)
}

// TreeFingerprint returns the structural hash of t used in layout-cache
// keys: equal parent arrays hash equally.
func TreeFingerprint(t *Tree) uint64 { return engine.Fingerprint(t) }

// DynEngine is the mutable-tree counterpart of Engine: it owns a
// DynamicLayout, serves the same Submit*/Flush batching protocol, and
// accepts InsertLeaf/DeleteLeaf between batches. A mutation drains the
// pending batch first (futures resolve against the tree they were
// submitted to) and bumps the epoch; the next submission refreshes the
// serving state from the dynamic layout instead of rebuilding it from
// scratch (on native in O(1), answering LCA from the last built table
// through an id overlay; on sim from the tree and its parked
// positions), and installs it on the one engine that serves every
// epoch, so a stale epoch can never serve a mutated tree. See
// internal/engine's DynEngine documentation for the full semantics.
type DynEngine = engine.DynEngine

// DynEngineOptions configures NewDynEngine: the embedded EngineOptions
// plus the dynamic layout's rebuild threshold Epsilon.
type DynEngineOptions = engine.DynOptions

// DynEngineStats snapshots a dynamic engine's counters: mutation side
// (epoch, inserts, deletes, layout rebuilds, parking and migration
// energy), serving side (refreshes plus the EngineStats of its engine
// across all epochs).
type DynEngineStats = engine.DynStats

// NewDynEngine builds a mutable batched query engine for t.
func NewDynEngine(t *Tree, opts DynEngineOptions) (*DynEngine, error) {
	return engine.NewDyn(t, opts)
}

// ParallelTreefixEngine returns the native treefix executor for
// wall-clock use: one O(n) pass per call under any Op, split across
// workers from treefix.ParallelMin vertices; workers <= 0 means
// GOMAXPROCS.
func ParallelTreefixEngine(t *Tree, workers int) *treefix.Engine {
	return treefix.NewEngine(t, workers)
}

// ParallelLCAEngine returns the native LCA executor: a sparse table of
// minima over the tree's preorder, O(1) per query, answering batches
// across workers; workers <= 0 means GOMAXPROCS.
func ParallelLCAEngine(t *Tree, workers int) *lca.Engine {
	// The table needs only the preorder; one worker skips the split.
	return lca.NewEngine(treefix.NewEngine(t, 1), workers)
}
