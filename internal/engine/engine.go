// Package engine serves the repository's batch kernels — bottom-up and
// top-down treefix sums under any Op, batched LCA, 1-respecting minimum
// cuts, and expression evaluation — from a long-lived, concurrency-safe
// SpatialEngine that amortizes layout construction across requests, the
// way the paper amortizes preprocessing across iterations (Section I-D)
// and dual-tree libraries amortize one built index across all lookups.
//
// # Usage
//
//	eng, _ := engine.New(t, engine.Options{Curve: "hilbert", Window: 16})
//	futA := eng.SubmitTreefix(valsA, treefix.Add) // queued, returns at once
//	futB := eng.SubmitLCA(queries)                // queued with futA
//	resB := futB.Wait()                           // flushes, then blocks
//	resA := futA.Wait()                           // already resolved
//
// # Batching semantics
//
// Submit* methods enqueue a request and return a Future without running
// any simulator work — except that the submission which fills the
// window (see below) flushes inline, so that Submit call returns only
// after the whole batch has run. A pending batch is executed
// ("flushed") when any of the following happens:
//
//   - the number of pending requests reaches Options.Window (the
//     filling submitter runs the batch on its own goroutine);
//   - a caller invokes Flush explicitly;
//   - with no autoflush deadline armed (the default), the engine is
//     idle: Future.Wait on a pending request runs the batch on the
//     caller's goroutine when no batch of the engine is running, and
//     the last running batch, once its futures have resolved, hands
//     whatever became pending meanwhile to a new goroutine as the next
//     batch;
//   - with a deadline armed, it expires (see below).
//
// Without a deadline, dispatch is work-conserving, like a group commit:
// an idle engine never makes a request wait, and requests that arrive
// while a batch runs coalesce into the next one. Submitting N requests
// to an otherwise quiet engine and then calling Flush still runs them as
// one batch, because Submit itself dispatches only on the window.
//
// # Autoflush scheduler
//
// Options.FlushDelay arms, at construction, a background batch
// scheduler with two triggers: a batch is dispatched when it reaches
// Window pending requests or when its oldest request has waited
// FlushDelay, whichever comes first. The deadline is an opt-in linger:
// Future.Wait no longer dispatches — it simply blocks, because the
// deadline guarantees progress — and a running batch hands nothing off,
// so concurrently submitted requests keep coalescing for up to
// FlushDelay even while every submitter is already waiting. Under heavy
// traffic batches fill to Window and the deadline never fires; under
// trickle traffic every request waits out FlushDelay. Deadline batches
// do not wait for each other, so one engine's batches may overlap
// across cores, where work-conserving dispatch runs one idle-dispatched
// batch at a time. StopAutoFlush disarms the scheduler.
// Stats.SizeFlushes, Stats.DeadlineFlushes and Stats.IdleFlushes count
// how often each trigger dispatched a batch.
//
// # Execution backends
//
// All requests of one flush run against a single execution-backend run
// (internal/exec) sharing the engine's placement, so per-run setup is
// paid once per batch instead of once per call. Options.Backend picks
// the backend: "sim" (the default here — the spatial-computer simulator
// with exact model-cost accounting, the metering and validation path)
// or "native" (goroutine-parallel kernels with zero simulator
// bookkeeping — the serving default in internal/server, typically an
// order of magnitude faster on wall clock). Both backends produce
// identical results; only the cost accounting differs. A caller that
// needs the model cost of a tree's traffic serves it on a sim engine;
// the repository's differential tests check offline that the backends
// agree.
//
// LCA requests in the same batch are additionally coalesced: their
// query slices are concatenated into one batched run (whose fixed cost
// — two treefix sums and the cover sweep — is independent of the query
// count) and the answers are demultiplexed back to the individual
// futures.
//
// # Blocking
//
// Flush blocks the calling goroutine until every request it picked up
// has resolved; submissions racing with a Flush land in the next batch.
// Future.Wait blocks until its own batch has run, running it itself
// when the engine is idle (see above). Concurrent Flush calls run
// disjoint batches in parallel on independent simulators.
//
// # Layout cache
//
// Placements are obtained from a LayoutCache keyed by (tree fingerprint,
// curve, order) — see Fingerprint. Engines created with a shared cache
// (directly via Options.Cache or through a Pool) skip the O(n log n)
// light-first pipeline whenever any engine has already laid out a
// structurally identical tree on the same curve. CacheStats reports
// hits, misses and evictions; Stats folds them into EngineStats.
package engine

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"spatialtree/internal/exec"
	"spatialtree/internal/exprtree"
	"spatialtree/internal/layout"
	"spatialtree/internal/lca"
	"spatialtree/internal/machine"
	"spatialtree/internal/mincut"
	"spatialtree/internal/sfc"
	"spatialtree/internal/tree"
	"spatialtree/internal/treefix"
)

// Options configures an Engine.
type Options struct {
	// Curve names the space-filling curve of the placement ("" means
	// "hilbert").
	Curve string
	// Window is the pending-request count that triggers an automatic
	// flush (<= 0 means DefaultWindow).
	Window int
	// Seed drives the Las Vegas coins of the simulator runs; batches are
	// deterministic given (Seed, batch index).
	Seed uint64
	// Cache supplies the layout cache; nil means a fresh private cache
	// of DefaultCacheCapacity placements. Share one cache across engines
	// to amortize layouts across trees and engine lifetimes.
	Cache *LayoutCache
	// FlushDelay, when positive, arms the background autoflush
	// scheduler at construction: a pending batch lingers until its
	// oldest request has waited FlushDelay, unless the window fills
	// first. StopAutoFlush disarms it. Zero leaves the scheduler off: an
	// idle engine dispatches at once (see the package documentation's
	// "Batching semantics").
	FlushDelay time.Duration
	// Backend names the execution backend batches run on: exec.Sim
	// ("sim", exact model-cost metering — the default here) or
	// exec.Native ("native", goroutine-parallel kernels, no simulator
	// bookkeeping — the serving layer's default). See the package
	// documentation's "Execution backends" section.
	Backend string
	// Deprecated: ignored. Serve on Backend "sim" for model costs.
	ShadowMeter int
}

// DefaultWindow is the automatic-flush threshold used when
// Options.Window is not positive.
const DefaultWindow = 64

// Stats is a snapshot of an engine's lifetime counters.
type Stats struct {
	// Batches counts dispatched batches (flushes that had work).
	// Batches, Requests, LCAQueries and LCARuns are counted when a batch
	// is dispatched, before any of its futures resolves, so a caller
	// holding a reply always finds its request counted.
	Batches uint64
	// Requests counts dispatched submissions.
	Requests uint64
	// LCAQueries counts individual LCA queries dispatched.
	LCAQueries uint64
	// LCARuns counts dispatched coalesced lca.Batched invocations;
	// LCARuns < number of LCA requests means coalescing saved whole runs.
	LCARuns uint64
	// SizeFlushes counts batches dispatched because the pending count
	// reached the window (the scheduler's MaxBatch trigger).
	SizeFlushes uint64
	// DeadlineFlushes counts batches dispatched by the autoflusher's
	// MaxDelay deadline.
	DeadlineFlushes uint64
	// IdleFlushes counts batches dispatched because no batch of the
	// engine was running and no deadline was armed: by Future.Wait on
	// the caller's goroutine, or handed off by the last running batch
	// once its futures resolved. Batches - SizeFlushes -
	// DeadlineFlushes - IdleFlushes is the number of explicit flushes
	// (Flush, Quiesce, StopAutoFlush) that had work.
	IdleFlushes uint64
	// Cost accumulates the exact spatial-model cost of every batch a sim
	// engine ran; zero on native. Depths add as if the batches ran back
	// to back. Cost is folded in once a batch has finished running.
	Cost machine.Cost
	// Cache is the layout cache's traffic (shared counters if the cache
	// is shared).
	Cache CacheStats
}

// Add folds another engine's counters into s. Cost components sum via
// machine.Cost.Plus; the Cache field is left untouched, because cache
// counters live on the (usually shared) cache itself.
func (s *Stats) Add(o Stats) {
	s.Batches += o.Batches
	s.Requests += o.Requests
	s.LCAQueries += o.LCAQueries
	s.LCARuns += o.LCARuns
	s.SizeFlushes += o.SizeFlushes
	s.DeadlineFlushes += o.DeadlineFlushes
	s.IdleFlushes += o.IdleFlushes
	s.Cost = s.Cost.Plus(o.Cost)
}

// BatchProfile describes one dispatched batch to an installed profile
// observer.
type BatchProfile struct {
	// Elapsed is the batch's backend-run wall-clock.
	Elapsed time.Duration
}

// ProfileFunc observes dispatched batches. It is invoked after the
// batch's futures have resolved and its stats are recorded, outside any
// engine lock, from the goroutine that ran the batch — implementations
// must be safe for concurrent calls and should return quickly.
type ProfileFunc func(BatchProfile)

// Result is the outcome of one submitted request. Exactly the fields
// relevant to the request kind are populated.
type Result struct {
	// Sums holds treefix outputs (bottom-up or top-down).
	Sums []int64
	// Answers holds LCA answers, one per submitted query.
	Answers []int
	// MinCut holds the 1-respecting minimum-cut result.
	MinCut mincut.Result
	// Value holds the expression value, reduced into [0, exprtree.Mod).
	Value int64
	// Cost is the spatial-model cost attributed to this request: its
	// incremental share of the batch's metered run (identically zero on
	// a native engine). Coalesced LCA requests report a
	// per-query-proportional share of their shared run's Energy and
	// Messages — shares sum exactly to the run's totals, so summing
	// per-request costs never over-counts — and the full run Depth (the
	// critical path is genuinely shared, not divisible).
	Cost machine.Cost
	// Err reports validation or execution failure.
	Err error
}

// Future is the pending result of a submitted request.
type Future struct {
	e    *Engine
	done chan struct{}
	res  Result
}

// Done reports whether the result is available without blocking.
func (f *Future) Done() bool {
	select {
	case <-f.done:
		return true
	default:
		return false
	}
}

// Wait returns the result. If the request is still pending and the
// engine is idle — no batch running, no autoflush deadline armed — Wait
// runs the pending batch on the caller's goroutine. Otherwise it just
// blocks: the running batch's hand-off or the armed deadline dispatches
// the request, so Wait never deadlocks.
func (f *Future) Wait() Result {
	if !f.Done() {
		if f.e != nil {
			f.e.runIfIdle(f)
		}
		<-f.done
	}
	return f.res
}

func (f *Future) resolve(res Result) {
	f.res = res
	close(f.done)
}

// ErrInvalid marks request-validation failures: the submission itself
// was malformed (wrong vals length, out-of-range query, mismatched
// expression tree). Callers serving remote clients branch on it with
// errors.Is to separate client faults (HTTP 400) from engine-side
// failures (HTTP 500). Matching errors keep their original, specific
// messages — ErrInvalid is a classification, not a message.
var ErrInvalid = errors.New("engine: invalid request")

// invalidError classifies an error as ErrInvalid without changing its
// message (tests and clients rely on the exact validation text).
type invalidError struct{ error }

func (invalidError) Is(target error) bool { return target == ErrInvalid }

// invalid wraps a validation error so errors.Is(err, ErrInvalid) holds.
func invalid(err error) error { return invalidError{err} }

type kind uint8

const (
	kindBottomUp kind = iota
	kindTopDown
	kindLCA
	kindMinCut
	kindExpr
)

type request struct {
	kind    kind
	op      treefix.Op
	vals    []int64
	queries []lca.Query
	edges   []mincut.Edge
	expr    *exprtree.Expr
	fut     *Future
}

// Request structs and batch slices are pooled: the serving hot path
// submits thousands of short-lived requests per second, and their
// headers were the engine's dominant steady-state allocation. A request
// is recycled only at the very end of runBatch, after its future has
// resolved, so no live reference survives the Put. The caller-owned
// payload slices (vals, queries, edges) are only unreferenced, never
// reused, and runBatch reads a request's inputs only before resolving
// its future, so a caller may reuse its buffers the moment Wait
// returns.
var requestPool = sync.Pool{New: func() any { return new(request) }}

func newRequest() *request { return requestPool.Get().(*request) }

// batchPool recycles the pending-batch slices detached by
// takeBatchLocked.
var batchPool = sync.Pool{New: func() any {
	s := make([]*request, 0, DefaultWindow)
	return &s
}}

// recycleBatch returns a finished batch's requests and backing slice to
// their pools; the batch must have no live references (every future
// resolved).
func recycleBatch(batch []*request) {
	for i, req := range batch {
		*req = request{}
		requestPool.Put(req)
		batch[i] = nil
	}
	batch = batch[:0]
	batchPool.Put(&batch)
}

// Engine is a concurrency-safe batch server for one tree: it owns the
// tree and its light-first placement and coalesces submitted requests
// into shared simulator runs. See the package documentation for the
// batching semantics. The zero value is not usable; construct with New.
type Engine struct {
	t      *tree.Tree
	fp     uint64
	p      *layout.Placement
	window int
	seed   uint64
	cache  *LayoutCache

	// backend executes batches; backendName is its resolved name.
	backendName string
	backend     exec.Backend

	// profileFn, when non-nil, observes every dispatched batch (see
	// ProfileFunc). Atomic so SetProfile never races runBatch.
	profileFn atomic.Pointer[ProfileFunc]

	// Order-dependent kernels (batched LCA and min-cut) require a dense
	// light-first rank — their correctness depends on subtrees being
	// contiguous ranges, which a dynamic layout's parked placement does
	// not guarantee. orderRankFn supplies that rank lazily on first
	// need; when nil the placement's own order is used (the static
	// case, where they coincide).
	orderRankFn func() []int
	orderOnce   sync.Once
	orderRanks  []int

	mu       sync.Mutex
	pending  []*request
	batchSeq uint64
	stats    Stats
	// running counts detached batches whose runBatch has not finished;
	// idle (on mu) is broadcast when it returns to zero. Work-conserving
	// dispatch gates on it, and Quiesce waits on it so callers can
	// observe a moment with no backend work in flight — not just no
	// pending requests.
	running int
	idle    sync.Cond
	// beforeRun, when non-nil, is called at the top of every runBatch;
	// tests set it before any submission to hold a batch running.
	beforeRun func()
	// Autoflush scheduler state, all under mu. afDelay > 0 means the
	// scheduler is armed; afTimer is non-nil exactly while a pending
	// batch awaits its deadline.
	afDelay time.Duration
	afTimer *time.Timer
}

// New builds an engine for t. The placement comes from the layout cache
// (opts.Cache or a fresh private one), so constructing an engine for an
// already-seen tree×curve costs O(n) for the fingerprint instead of the
// full O(n log n) layout pipeline.
func New(t *tree.Tree, opts Options) (*Engine, error) {
	name := opts.Curve
	if name == "" {
		name = "hilbert"
	}
	c, err := sfc.ByName(name)
	if err != nil {
		return nil, err
	}
	cache := opts.Cache
	if cache == nil {
		cache = NewLayoutCache(DefaultCacheCapacity)
	}
	window := opts.Window
	if window <= 0 {
		window = DefaultWindow
	}
	fp := Fingerprint(t)
	e := &Engine{
		t:      t,
		fp:     fp,
		p:      cache.GetOrBuild(t, fp, c),
		window: window,
		seed:   opts.Seed,
		cache:  cache,
	}
	if opts.FlushDelay > 0 {
		e.afDelay = opts.FlushDelay
	}
	e.idle.L = &e.mu
	if err := e.initBackend(opts.Backend); err != nil {
		return nil, err
	}
	return e, nil
}

// initBackend resolves the backend name (Options.Backend) and builds the
// execution backend on the engine's placement. It must run after the
// placement and orderRank machinery are in place.
func (e *Engine) initBackend(name string) error {
	e.backendName = exec.Normalize(name)
	be, err := exec.New(e.backendName, exec.Config{Tree: e.t, Placement: e.p, OrderRank: e.orderRank})
	if err != nil {
		return err
	}
	e.backend = be
	return nil
}

// Backend returns the engine's resolved execution-backend name.
func (e *Engine) Backend() string { return e.backendName }

// SetProfile installs (or, with nil, removes) the batch profile
// observer. Safe to call concurrently with serving.
func (e *Engine) SetProfile(fn ProfileFunc) {
	if fn == nil {
		e.profileFn.Store(nil)
		return
	}
	e.profileFn.Store(&fn)
}

// newWithPlacement builds an engine serving t on an explicit placement
// (p.Tree must be t) instead of a cached light-first one. This is the
// constructor DynEngine uses: a dynamic layout's placement holds parked,
// spread-out positions that no cache key describes. Callers whose
// placement is not a light-first order must also set orderRankFn, or
// LCA and min-cut results are undefined. opts.Curve is ignored — the
// placement's curve governs; opts.Cache only feeds the Stats snapshot
// (nil means a fresh private cache, as in New).
func newWithPlacement(t *tree.Tree, p *layout.Placement, opts Options) (*Engine, error) {
	if p == nil || p.Tree != t {
		return nil, fmt.Errorf("engine: placement was not built for this tree")
	}
	cache := opts.Cache
	if cache == nil {
		cache = NewLayoutCache(DefaultCacheCapacity)
	}
	window := opts.Window
	if window <= 0 {
		window = DefaultWindow
	}
	e := &Engine{
		t:      t,
		fp:     Fingerprint(t),
		p:      p,
		window: window,
		seed:   opts.Seed,
		cache:  cache,
	}
	if opts.FlushDelay > 0 {
		e.afDelay = opts.FlushDelay
	}
	e.idle.L = &e.mu
	if err := e.initBackend(opts.Backend); err != nil {
		return nil, err
	}
	return e, nil
}

// Tree returns the engine's tree.
func (e *Engine) Tree() *tree.Tree { return e.t }

// Placement returns the engine's (cached) placement.
func (e *Engine) Placement() *layout.Placement { return e.p }

// Fingerprint returns the structural fingerprint of the engine's tree.
func (e *Engine) Fingerprint() uint64 { return e.fp }

// orderRank returns the dense light-first rank the order-dependent
// kernels run on, computing it at most once per engine.
func (e *Engine) orderRank() []int {
	e.orderOnce.Do(func() {
		if e.orderRankFn != nil {
			e.orderRanks = e.orderRankFn()
		} else {
			e.orderRanks = e.p.Order.Rank
		}
	})
	return e.orderRanks
}

// Stats returns a snapshot of the engine counters plus the layout
// cache's.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	st := e.stats
	e.mu.Unlock()
	st.Cache = e.cache.Stats()
	return st
}

// Pending returns the number of queued, unflushed requests.
func (e *Engine) Pending() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.pending)
}

// failedFuture returns an already-resolved future carrying err. Its
// engine pointer may be nil: Wait sees a closed done channel and never
// dereferences it.
func failedFuture(err error) *Future {
	f := &Future{done: make(chan struct{})}
	f.resolve(Result{Err: err})
	return f
}

// failed returns an already-resolved future carrying err.
func (e *Engine) failed(err error) *Future {
	f := failedFuture(err)
	f.e = e
	return f
}

// SubmitTreefix enqueues a bottom-up treefix sum of vals under op (the
// fold over every subtree). vals must have one entry per vertex and must
// not be mutated until the future resolves.
//
//spatialvet:errclass
func (e *Engine) SubmitTreefix(vals []int64, op treefix.Op) *Future {
	if len(vals) != e.t.N() {
		return e.failed(invalid(fmt.Errorf("engine: treefix vals has %d entries for %d vertices", len(vals), e.t.N())))
	}
	req := newRequest()
	req.kind, req.op, req.vals = kindBottomUp, op, vals
	return e.submit(req)
}

// SubmitTopDown enqueues a top-down treefix sum of vals under op (the
// fold along every root path).
//
//spatialvet:errclass
func (e *Engine) SubmitTopDown(vals []int64, op treefix.Op) *Future {
	if len(vals) != e.t.N() {
		return e.failed(invalid(fmt.Errorf("engine: treefix vals has %d entries for %d vertices", len(vals), e.t.N())))
	}
	req := newRequest()
	req.kind, req.op, req.vals = kindTopDown, op, vals
	return e.submit(req)
}

// SubmitLCA enqueues a batch of LCA queries. All LCA requests flushed
// together are coalesced into a single spatial run; answers come back in
// query order.
//
//spatialvet:errclass
func (e *Engine) SubmitLCA(queries []lca.Query) *Future {
	n := e.t.N()
	for i, q := range queries {
		if q.U < 0 || q.U >= n || q.V < 0 || q.V >= n {
			return e.failed(invalid(fmt.Errorf("engine: LCA query %d out of range: %+v", i, q)))
		}
	}
	req := newRequest()
	req.kind, req.queries = kindLCA, queries
	return e.submit(req)
}

// SubmitMinCut enqueues a 1-respecting minimum-cut computation of the
// given graph edges against the engine's tree.
//
//spatialvet:errclass
func (e *Engine) SubmitMinCut(edges []mincut.Edge) *Future {
	req := newRequest()
	req.kind, req.edges = kindMinCut, edges
	return e.submit(req)
}

// SubmitExpr enqueues evaluation of an expression whose tree is
// structurally identical to the engine's (same parent array), so the
// engine's placement is valid for it.
//
//spatialvet:errclass
func (e *Engine) SubmitExpr(x *exprtree.Expr) *Future {
	if x.Tree != e.t && !slices.Equal(x.Tree.Parents(), e.t.Parents()) {
		return e.failed(invalid(fmt.Errorf("engine: expression tree does not match engine tree")))
	}
	if err := x.Validate(); err != nil {
		return e.failed(invalid(err))
	}
	req := newRequest()
	req.kind, req.expr = kindExpr, x
	return e.submit(req)
}

func (e *Engine) submit(req *request) *Future {
	fut := &Future{e: e, done: make(chan struct{})}
	req.fut = fut
	var batch []*request
	var seq uint64
	e.mu.Lock()
	if e.pending == nil {
		//spatialvet:ignore poolescape -- pending is the batch accumulator by design; takeBatchLocked nils the field before recycleBatch returns the slice
		e.pending = *batchPool.Get().(*[]*request)
	}
	e.pending = append(e.pending, req)
	if len(e.pending) >= e.window {
		batch, seq = e.takeBatchLocked()
		e.stats.SizeFlushes++
	} else if e.afDelay > 0 && e.afTimer == nil {
		e.armTimerLocked()
	}
	e.mu.Unlock()
	if batch != nil {
		e.runBatch(batch, seq)
	}
	return fut
}

// takeBatchLocked detaches the pending batch and disarms the autoflush
// timer, if any; e.mu must be held. A non-empty batch is counted as
// dispatched here, before runBatch resolves any of its futures, and as
// running until runBatch retires it — every non-empty take must be
// followed by exactly one runBatch call.
func (e *Engine) takeBatchLocked() ([]*request, uint64) {
	if e.afTimer != nil {
		e.afTimer.Stop()
		e.afTimer = nil
	}
	batch := e.pending
	e.pending = nil
	seq := e.batchSeq
	e.batchSeq++
	if len(batch) > 0 {
		e.running++
		e.stats.Batches++
		e.stats.Requests += uint64(len(batch))
		lcaRuns := uint64(0)
		for _, req := range batch {
			if req.kind == kindLCA {
				lcaRuns = 1 // every LCA request of a batch shares one run
				e.stats.LCAQueries += uint64(len(req.queries))
			}
		}
		e.stats.LCARuns += lcaRuns
	}
	return batch, seq
}

// armTimerLocked schedules a deadline flush for the batch currently
// accumulating (sequence e.batchSeq); e.mu must be held. The sequence
// guard in flushDeadline makes a stale timer — one whose batch was
// already taken by a size trigger or an explicit Flush — a no-op
// instead of an early flush of the next batch.
func (e *Engine) armTimerLocked() {
	seq := e.batchSeq
	e.afTimer = time.AfterFunc(e.afDelay, func() { e.flushDeadline(seq) })
}

// flushDeadline runs the batch with the given sequence if it is still
// pending; it is the autoflush timer's fire path.
func (e *Engine) flushDeadline(seq uint64) {
	e.mu.Lock()
	if e.batchSeq != seq || len(e.pending) == 0 {
		e.mu.Unlock()
		return
	}
	batch, s := e.takeBatchLocked()
	e.stats.DeadlineFlushes++
	e.mu.Unlock()
	e.runBatch(batch, s)
}

// runIfIdle is Wait's dispatch: when no deadline is armed and no batch
// of e is running, f's unresolved request can only be pending, so the
// pending batch runs on the caller's goroutine.
func (e *Engine) runIfIdle(f *Future) {
	e.mu.Lock()
	if e.afDelay > 0 || e.running > 0 || f.Done() {
		e.mu.Unlock()
		return
	}
	batch, seq := e.takeBatchLocked()
	e.stats.IdleFlushes++
	e.mu.Unlock()
	e.runBatch(batch, seq)
}

// StopAutoFlush disarms the scheduler and flushes whatever is pending,
// so no future submitted under the scheduler is ever stranded waiting
// for a deadline that will no longer fire. The engine reverts to
// work-conserving dispatch (see the package documentation).
func (e *Engine) StopAutoFlush() {
	e.mu.Lock()
	e.afDelay = 0
	batch, seq := e.takeBatchLocked()
	e.mu.Unlock()
	if len(batch) > 0 {
		e.runBatch(batch, seq)
	}
}

// Flush runs every pending request in one shared simulator run and
// blocks until all of their futures have resolved. Flushing an idle
// engine is a no-op.
func (e *Engine) Flush() {
	e.mu.Lock()
	batch, seq := e.takeBatchLocked()
	e.mu.Unlock()
	if len(batch) > 0 {
		e.runBatch(batch, seq)
	}
}

// Quiesce flushes pending work and then blocks until every in-flight
// batch — including ones another goroutine, the autoflush timer or a
// running batch's hand-off dispatched — has finished running and
// recorded its stats. After Quiesce returns (and absent concurrent
// submissions) the engine is fully idle; DynEngine uses this as its
// pre-mutation barrier so no batch counters are lost when an epoch's
// engine is retired.
func (e *Engine) Quiesce() {
	e.Flush()
	e.mu.Lock()
	for e.running > 0 {
		e.idle.Wait()
	}
	e.mu.Unlock()
}

// batchSeed derives the per-batch Las Vegas seed: deterministic per
// (engine seed, batch index).
func (e *Engine) batchSeed(seq uint64) uint64 {
	return e.seed ^ (seq+1)*0x9e3779b97f4a7c15
}

// runBatch executes one detached batch on a fresh backend run. It is
// called without e.mu held; distinct batches may run concurrently on
// independent runs. With no deadline armed, the last running batch,
// once its own futures have resolved, hands the requests that became
// pending meanwhile to a new goroutine as the next batch. That
// goroutine runs this same function and exits, and Quiesce waits for it
// through the running count, which never reads zero between the two
// batches.
func (e *Engine) runBatch(batch []*request, seq uint64) {
	if e.beforeRun != nil {
		e.beforeRun()
	}
	pf := e.profileFn.Load()
	start := time.Now()
	run := e.backend.Run(e.batchSeed(seq))

	var lcaReqs []*request
	for _, req := range batch {
		mark := run.Cost()
		switch req.kind {
		case kindBottomUp:
			sums, err := run.BottomUp(req.vals, req.op)
			req.fut.resolve(Result{Sums: sums, Cost: run.Cost().Minus(mark), Err: err})
		case kindTopDown:
			sums, err := run.TopDown(req.vals, req.op)
			req.fut.resolve(Result{Sums: sums, Cost: run.Cost().Minus(mark), Err: err})
		case kindMinCut:
			res, err := run.MinCut(req.edges)
			req.fut.resolve(Result{MinCut: res, Cost: run.Cost().Minus(mark), Err: err})
		case kindExpr:
			v, err := run.Expr(req.expr)
			req.fut.resolve(Result{Value: exprtree.Canonical(v), Cost: run.Cost().Minus(mark), Err: err})
		case kindLCA:
			lcaReqs = append(lcaReqs, req) // coalesced below
		}
	}

	if len(lcaReqs) > 0 {
		total := 0
		for _, req := range lcaReqs {
			total += len(req.queries)
		}
		all := make([]lca.Query, 0, total)
		for _, req := range lcaReqs {
			all = append(all, req.queries...)
		}
		mark := run.Cost()
		answers, err := run.LCA(all)
		cost := run.Cost().Minus(mark)
		resolveLCA(lcaReqs, answers, cost, err)
	}
	elapsed := time.Since(start)

	// The dispatch counters were folded in by takeBatchLocked; only the
	// run's cost is known now. A hand-off takes the pending work in the
	// same critical section that retires this batch, so running goes
	// straight back to 1 and Quiesce never sees zero between the two.
	var next []*request
	var nextSeq uint64
	e.mu.Lock()
	e.stats.Cost = e.stats.Cost.Plus(run.Cost())
	e.running--
	if e.running == 0 && e.afDelay == 0 && len(e.pending) > 0 {
		next, nextSeq = e.takeBatchLocked()
		e.stats.IdleFlushes++
	} else if e.running == 0 {
		e.idle.Broadcast()
	}
	e.mu.Unlock()
	if next != nil {
		// A new goroutine, so this batch's own caller is not delayed.
		go e.runBatch(next, nextSeq)
	}

	if pf != nil {
		(*pf)(BatchProfile{Elapsed: elapsed})
	}

	// Every future is resolved, so the batch can be recycled.
	recycleBatch(batch)
}

// resolveLCA demultiplexes a coalesced LCA run back to its futures,
// apportioning the run's Energy and Messages by each request's query
// share (cumulative rounding, so the shares sum exactly to the run's
// totals) while every request reports the full, genuinely shared Depth.
func resolveLCA(lcaReqs []*request, answers []int, cost machine.Cost, err error) {
	total := 0
	for _, req := range lcaReqs {
		total += len(req.queries)
	}
	off := 0
	var doneQ int
	var doneE, doneM int64
	for _, req := range lcaReqs {
		m := len(req.queries)
		share := machine.Cost{Depth: cost.Depth}
		if total > 0 {
			doneQ += m
			cumE := cost.Energy * int64(doneQ) / int64(total)
			cumM := cost.Messages * int64(doneQ) / int64(total)
			share.Energy, share.Messages = cumE-doneE, cumM-doneM
			doneE, doneM = cumE, cumM
		}
		res := Result{Cost: share, Err: err}
		if err == nil {
			res.Answers = answers[off : off+m : off+m]
		}
		req.fut.resolve(res)
		off += m
	}
}
