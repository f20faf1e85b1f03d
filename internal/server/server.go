// Package server exposes the batched query engines to clients: the
// serving subsystem behind cmd/spatialtreed. Two codecs — HTTP/JSON
// (this file and jsonquery.go) and the binary protocol (tcp.go) —
// decode requests onto one query path: every query becomes a
// wire.Query, passes one admission check and runs through serveQuery,
// and its wire.Result is encoded back by the codec it came from. The server separates request
// arrival from batch execution the way the paper separates layout
// construction from kernel runs — handlers enqueue work and wait on
// futures while each shard's engine decides when kernel runs actually
// happen. By default dispatch is work-conserving: an idle shard runs a
// request at once, and requests that arrive while a batch runs coalesce
// into the next one, up to MaxBatch. A positive MaxDelay opts into a
// linger instead: a batch waits until its oldest request has waited
// MaxDelay or MaxBatch fills it, whichever comes first.
//
// HTTP endpoints:
//
//	POST /v1/trees          register an immutable tree → tree_id
//	POST /v1/query          run treefix|topdown|lca|mincut on a tree
//	POST /v1/dyn            create a mutable shard → shard_id
//	GET  /v1/dyn/{id}       shard status: epoch + layout config
//	POST /v1/dyn/{id}/mutate  insert/delete a leaf
//	POST /v1/dyn/{id}/query   query the mutable shard's current tree
//	GET  /metrics           server + scheduler + engine + cache stats
//	GET  /healthz           liveness (503 while draining)
//
// Immutable traffic is routed per tenant by tree fingerprint through an
// engine.Pool: structurally identical trees share a shard and therefore
// a batch window, on whichever backend the tree's latest registration
// chose. Mutable shards are routed by id through the server's own
// table. Admission control is
// a bounded in-flight queue: when QueueLimit requests are already being
// served, further work is rejected with 429 rather than queued without
// bound. Drain stops admission, waits for in-flight requests and
// flushes every shard, so shutdown never strands a future.
package server

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"spatialtree/internal/engine"
	"spatialtree/internal/exec"
	"spatialtree/internal/exprtree"
	"spatialtree/internal/lca"
	"spatialtree/internal/mincut"
	"spatialtree/internal/tree"
	"spatialtree/internal/treefix"
	"spatialtree/internal/wire"
)

// Server serves the engines over HTTP/JSON and the binary protocol.
// Construct with New; the zero value is not usable.
type Server struct {
	cfg  Config
	pool *engine.Pool
	mux  *http.ServeMux

	// ephem folds the counters of ephemeral engines (ad-hoc query
	// trees served beyond the shard budget), which would otherwise
	// vanish from /metrics.
	ephemMu sync.Mutex
	ephem   engine.Stats

	sem      chan struct{}
	draining atomic.Bool
	accepted atomic.Uint64
	rejected atomic.Uint64

	// flightMu serializes request admission against Drain: admit checks
	// the draining flag and bumps inflight under it, so Drain can set
	// the flag and wait for a moment when inflight is provably zero.
	flightMu  sync.Mutex
	inflight  int
	drainDone chan struct{} // non-nil while a Drain waits; closed at inflight 0

	// cluster holds the installed ClusterHooks (see cluster_hooks.go);
	// nil means single-node serving.
	cluster atomic.Pointer[ClusterHooks]

	// Binary-protocol listener state (tcp.go). wireEnabled flips once
	// ServeBinary runs, making the Wire block appear in /metrics.
	wireEnabled   atomic.Bool
	wireTotal     atomic.Uint64
	wireQueries   atomic.Uint64
	wireErrors    atomic.Uint64
	wireMu        sync.Mutex
	wireConns     map[net.Conn]struct{}
	wireListeners map[net.Listener]struct{}

	mu        sync.Mutex                   //spatialvet:lockclass routing
	trees     map[string]*engine.Engine    // registered tree id -> the pool shard serving it
	dyns      map[string]*engine.DynEngine // the dyn shards this node serves
	adhoc     map[uint64]struct{}          // fingerprints of pool shards auto-created for ad-hoc query trees
	nextDyn   int
	recovered RecoveryStats
}

// New builds a server; all zero Config fields take the documented
// defaults.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	opts := engine.Options{
		Curve:      cfg.Curve,
		Window:     cfg.Scheduler.MaxBatch,
		Seed:       cfg.Seed,
		Cache:      engine.NewLayoutCache(cfg.Limits.CacheCapacity),
		FlushDelay: cfg.Scheduler.MaxDelay,
		Backend:    cfg.Backend,
	}
	s := &Server{
		cfg:   cfg,
		pool:  engine.NewPool(opts),
		sem:   make(chan struct{}, cfg.Limits.QueueLimit),
		trees: make(map[string]*engine.Engine),
		dyns:  make(map[string]*engine.DynEngine),
		adhoc: make(map[uint64]struct{}),

		wireConns:     make(map[net.Conn]struct{}),
		wireListeners: make(map[net.Listener]struct{}),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/trees", s.admitted(s.handleRegister))
	s.mux.HandleFunc("POST /v1/query", s.admitted(s.handleQuery))
	s.mux.HandleFunc("POST /v1/dyn", s.admitted(s.handleDynCreate))
	s.mux.HandleFunc("GET /v1/dyn/{id}", s.handleDynStatus)
	s.mux.HandleFunc("POST /v1/dyn/{id}/mutate", s.admitted(s.handleDynMutate))
	s.mux.HandleFunc("POST /v1/dyn/{id}/query", s.admitted(s.handleQuery))
	s.mux.HandleFunc("GET /v1/cluster/status", s.handleClusterStatus)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Pool returns the underlying engine pool (exposed for the daemon's
// preloading and for tests).
func (s *Server) Pool() *engine.Pool { return s.pool }

// drainFlushEvery is how often Drain flushes every shard while it waits
// for in-flight requests.
const drainFlushEvery = 5 * time.Millisecond

// Drain performs a graceful shutdown of the serving layer: new requests
// are rejected with 503, and in-flight requests are waited for (bounded
// by ctx). While it waits it flushes every shard each drainFlushEvery,
// so a request lingering in a MaxDelay batch window resolves at once
// instead of at its deadline, and a last flush leaves no submitted
// future pending. The HTTP listener itself is the caller's to close
// (see cmd/spatialtreed).
func (s *Server) Drain(ctx context.Context) error {
	s.flightMu.Lock()
	s.draining.Store(true)
	var done chan struct{}
	if s.inflight > 0 {
		done = make(chan struct{})
		s.drainDone = done
	}
	s.flightMu.Unlock()
	for done != nil {
		s.flushAll()
		select {
		case <-done:
			done = nil
		case <-ctx.Done():
			return errors.New("server: drain interrupted with requests in flight")
		case <-time.After(drainFlushEvery):
		}
	}
	s.flushAll()
	return nil
}

// flushAll flushes every shard: the pool's, then each dyn shard.
func (s *Server) flushAll() {
	s.pool.FlushAll()
	for _, de := range s.dynList() {
		de.Flush()
	}
}

// dynList snapshots the served dyn shards, so callers can block on them
// without holding s.mu.
func (s *Server) dynList() []*engine.DynEngine {
	s.mu.Lock()
	defer s.mu.Unlock()
	list := make([]*engine.DynEngine, 0, len(s.dyns))
	for _, de := range s.dyns {
		list = append(list, de)
	}
	return list
}

// shardCount is the retained per-tree serving state MaxShards bounds:
// pool shards plus dyn shards. The pool is sampled before s.mu is
// taken, because routing locks do not nest.
func (s *Server) shardCount() int {
	n := s.pool.Size()
	s.mu.Lock()
	defer s.mu.Unlock()
	return n + len(s.dyns)
}

// The refusals admit classifies.
var (
	errQueueFull = statusErr(StatusTooMany, errors.New("request queue full"))
	errDraining  = statusErr(StatusUnavailable, errors.New("server is draining"))
)

// admit is the bounded-queue admission every client-originated request
// passes — an HTTP request before its body is read, a binary frame one
// by one — so /metrics reports one serving truth for both listeners.
// Beyond QueueLimit it refuses with errQueueFull (StatusTooMany:
// backpressure the client can see); once Drain has started, with
// errDraining (StatusUnavailable). An admitted request is tracked for
// Drain and must be retired with release.
//
//spatialvet:errclass
func (s *Server) admit() error {
	select {
	case s.sem <- struct{}{}:
	default:
		s.rejected.Add(1)
		return errQueueFull
	}
	s.flightMu.Lock()
	if s.draining.Load() {
		s.flightMu.Unlock()
		<-s.sem
		return errDraining
	}
	s.inflight++
	s.flightMu.Unlock()
	s.accepted.Add(1)
	return nil
}

// release retires an admitted request, waking a waiting Drain when the
// last one leaves.
func (s *Server) release() {
	<-s.sem
	s.flightMu.Lock()
	s.inflight--
	if s.inflight == 0 && s.drainDone != nil {
		close(s.drainDone)
		s.drainDone = nil
	}
	s.flightMu.Unlock()
}

// admitted wraps a handler with admit. Only HTTP refusals carry
// Retry-After.
func (s *Server) admitted(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if err := s.admit(); err != nil {
			if err == errQueueFull {
				w.Header().Set("Retry-After", "1")
			}
			writeErr(w, err)
			return
		}
		defer s.release()
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.Limits.BodyLimit)
		h(w, r)
	}
}

// errShardLimit reports that MaxShards worth of per-tree serving state
// is already retained.
var errShardLimit = errors.New("shard limit reached (MaxShards): delete load or raise the limit")

// RegisterTree registers t on the server's default backend and returns
// its id, warming the shard. A sim shard takes its placement from the
// layout cache; a native one takes none. With a durability store, the
// first registration saves the tree's parent array, and nothing else.
// The id is stable across servers: it is derived from the structural
// fingerprint. Registration beyond the MaxShards budget fails with
// errShardLimit — unless the tree is already registered, which retains
// nothing new. (The budget check and the shard creation are not atomic;
// concurrent registrations can overshoot by their own count, which is
// why this is a memory admission bound, not an exact quota.)
func (s *Server) RegisterTree(t *tree.Tree) (string, error) {
	return s.registerTree(t, engine.Fingerprint(t), true, "")
}

// registerTree is RegisterTree for a tree whose fingerprint fp the
// caller already holds, with the persistence side controllable: Recover
// re-registers trees that are already on disk (and were admitted when
// first registered, so the budget does not re-apply). A different tree
// holding fp's shard fails the registration with StatusInternal, and
// nothing is retained. backend "" means the server default.
// Re-registering an existing tree with a different backend switches its
// one shard to that backend in place: the shard keeps its counters and
// its batch window, batches already dispatched finish on the old
// backend, and no budget is spent (only a sim shard holds a placement,
// from the shared layout cache).
//
//spatialvet:errclass
func (s *Server) registerTree(t *tree.Tree, fp uint64, save bool, backend string) (string, error) {
	if backend == "" {
		backend = s.cfg.Backend
	}
	if !exec.Valid(backend) {
		return "", badRequest(fmt.Errorf("unknown backend %q (want %q or %q)", backend, exec.Native, exec.Sim))
	}
	id := treeID(fp)
	s.mu.Lock()
	_, registered := s.trees[id]
	// A registered structure, or one whose ad-hoc traffic was given a
	// shard, already has its one pool shard: registering it again, on
	// either backend, retains only the id mapping.
	_, adhoc := s.adhoc[fp]
	s.mu.Unlock()
	if save && !registered && !adhoc && s.shardCount() >= s.cfg.Limits.MaxShards {
		return "", errShardLimit
	}
	eng, err := s.pool.Shard(t, fp, backend)
	if errors.Is(err, engine.ErrCollision) {
		return "", statusErr(StatusInternal, fmt.Errorf("registering tree %s: %w", id, err))
	}
	if err != nil {
		return "", err
	}
	// Persist on first registration — including the promotion of an
	// ad-hoc shard, which was never saved when it was auto-created.
	if save && !registered {
		if err := s.persistTree(id, t); err != nil {
			return "", err
		}
	}
	s.mu.Lock()
	s.trees[id] = eng
	// A promoted ad-hoc shard is now accounted as registered; free its
	// slot in the ad-hoc half of the budget.
	delete(s.adhoc, fp)
	s.mu.Unlock()
	return id, nil
}

func treeID(fp uint64) string {
	return "t" + strconv.FormatUint(fp, 16)
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !decode(w, r, &req) {
		return
	}
	t, err := tree.FromParents(req.Parents)
	if err != nil {
		writeStatus(w, StatusBadRequest, err.Error())
		return
	}
	id, err := s.registerTree(t, engine.Fingerprint(t), true, req.Backend)
	if err != nil {
		writeErr(w, err)
		return
	}
	s.mu.Lock()
	be := s.trees[id].Backend()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, RegisterResponse{ID: id, N: t.N(), Backend: be})
}

// submitter is the Submit surface Engine and DynEngine share; the
// query path is identical for both shard kinds.
type submitter interface {
	SubmitTreefix([]int64, treefix.Op) *engine.Future
	SubmitTopDown([]int64, treefix.Op) *engine.Future
	SubmitLCA([]lca.Query) *engine.Future
	SubmitMinCut([]mincut.Edge) *engine.Future
	SubmitExpr(*exprtree.Expr) *engine.Future
}

// wireScratch holds the kernel-typed slices a wire.Query converts into.
// A binary connection reuses one frame to frame, and an HTTP request
// borrows one from the pooled httpQuery state — safe because each
// serves one query at a time and the engine releases its view of a
// request's inputs when the batch retires.
type wireScratch struct {
	queries []lca.Query
	edges   []mincut.Edge
	kinds   []exprtree.NodeKind
}

// checkQuery validates the tree-independent parts of a query — kind and
// treefix/topdown operator — and resolves the operator. serveQuery runs
// it before routing, so a request fault answers bad request whether or
// not the addressed tree or shard exists, and before any shard state is
// created or budget consumed.
//
//spatialvet:errclass
func checkQuery(q *wire.Query) (treefix.Op, error) {
	if wire.KindName(q.Kind) == "" {
		return treefix.Op{}, badRequest(fmt.Errorf("unknown query kind %d", q.Kind))
	}
	if q.Kind != wire.KindTreefix && q.Kind != wire.KindTopDown {
		return treefix.Op{}, nil
	}
	return treefix.OpByName(cmp.Or(q.Op, "add"))
}

// serveQuery is the one query path: binary query frames, both HTTP
// query endpoints (through handleQuery's JSON codec) and queries the
// cluster tier hands back as local all run through it. It validates,
// routes, submits, waits for the scheduler to dispatch the batch, and
// fills res. Admission is the caller's: HTTP admits before reading the
// body, the binary listener per frame. Errors classify through Classify:
// the client's faults are bad requests, the server's internal.
//
//spatialvet:errclass
func (s *Server) serveQuery(q *wire.Query, res *wire.Result, scratch *wireScratch) error {
	op, err := checkQuery(q)
	if err != nil {
		return err
	}

	// Route. A shard id resolves in the local table, then through the
	// cluster tier; a tree id in the registration table; ad-hoc parents
	// in the pool, or through engineFor on first sight.
	var (
		sh  submitter
		de  *engine.DynEngine
		eng *engine.Engine
	)
	switch {
	case q.ShardID != "":
		de, _ = s.DynShard(q.ShardID)
		if h := s.clusterHooks(); de == nil && h != nil {
			r, err := h.ShardQuery(q)
			if err != nil {
				return err
			}
			if r != nil {
				*res = *r
				res.ID = q.ID
				return nil
			}
			// Handed back as local — possibly promoted from a replica
			// just now — so look again.
			de, _ = s.DynShard(q.ShardID)
		}
		if de == nil {
			return statusErrf(StatusNotFound, "unknown shard_id %s", q.ShardID)
		}
		sh = de
	case q.TreeID != "":
		s.mu.Lock()
		eng = s.trees[q.TreeID]
		s.mu.Unlock()
		if eng == nil {
			return statusErrf(StatusNotFound, "unknown tree_id %s", q.TreeID)
		}
		sh = eng
	case len(q.Parents) > 0:
		// A parents array some pool shard (registered or ad-hoc) already
		// serves was validated when that shard was built: only a
		// structure the pool does not hold is validated and routed.
		fp := engine.FingerprintParents(q.Parents)
		if eng = s.pool.Lookup(fp, q.Parents); eng == nil {
			t, err := tree.FromParents(q.Parents)
			if err != nil {
				return badRequest(err)
			}
			var retire func()
			if eng, retire, err = s.engineFor(t, fp); err != nil {
				return err
			}
			defer retire()
		}
		sh = eng
	default:
		return badRequest(errors.New("shard_id, tree_id or parents required"))
	}

	// Submit: the one conversion of a query into kernel types. It never
	// runs kernel work itself (beyond the size-trigger dispatch the
	// scheduler may hand the calling goroutine) — the future resolves
	// when the shard's scheduler flushes the batch.
	var fut *engine.Future
	switch q.Kind {
	case wire.KindTreefix:
		fut = sh.SubmitTreefix(q.Vals, op)
	case wire.KindTopDown:
		fut = sh.SubmitTopDown(q.Vals, op)
	case wire.KindLCA:
		scratch.queries = scratch.queries[:0]
		for _, lq := range q.Queries {
			scratch.queries = append(scratch.queries, lca.Query(lq))
		}
		fut = sh.SubmitLCA(scratch.queries)
	case wire.KindMinCut:
		scratch.edges = scratch.edges[:0]
		for _, e := range q.Edges {
			scratch.edges = append(scratch.edges, mincut.Edge(e))
		}
		fut = sh.SubmitMinCut(scratch.edges)
	case wire.KindExpr:
		var t *tree.Tree
		if de != nil {
			// A dyn shard's tree changes with mutations: snapshot the
			// current one. Failing to is the server's fault.
			if t, err = de.Tree(); err != nil {
				return err
			}
		} else {
			t = eng.Tree()
		}
		scratch.kinds = scratch.kinds[:0]
		for i, k := range q.ExprKinds {
			if k > uint8(exprtree.Mul) {
				return badRequest(fmt.Errorf("expr_kinds[%d] = %d (want 0=leaf, 1=add or 2=mul)", i, k))
			}
			scratch.kinds = append(scratch.kinds, exprtree.NodeKind(k))
		}
		// Length and shape invariants (full binary tree, leaf labeling)
		// are SubmitExpr's validation, classified ErrInvalid there.
		fut = sh.SubmitExpr(&exprtree.Expr{Tree: t, Kind: scratch.kinds, Val: q.Vals})
	}
	r := fut.Wait()
	if r.Err != nil {
		return r.Err
	}
	*res = wire.Result{
		ID:        q.ID,
		Kind:      q.Kind,
		Sums:      r.Sums,
		Answers:   r.Answers,
		MinWeight: r.MinCut.MinWeight,
		ArgVertex: r.MinCut.ArgVertex,
		Value:     r.Value,
		Cost:      wire.Cost(r.Cost),
	}
	return nil
}

// handleQuery is the HTTP/JSON codec onto serveQuery, serving both
// POST /v1/query and POST /v1/dyn/{id}/query (there the path's id
// routes and tree_id/parents are ignored). A canonical body decodes
// straight into pooled state (decodeQuery); any other goes through
// encoding/json and queryFromJSON, which decide its errors.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	hq := httpQueries.Get().(*httpQuery)
	defer hq.release()
	var ok bool
	if hq.body, ok = readBody(w, r, hq.body); !ok {
		return
	}
	q := &hq.q
	if !decodeQuery(hq.body, r.PathValue("id"), q) {
		var req QueryRequest
		if !decodeBody(w, hq.body, &req) {
			return
		}
		var err error
		if q, err = queryFromJSON(&req, r.PathValue("id")); err != nil {
			writeErr(w, err)
			return
		}
	}
	var res wire.Result
	if err := s.serveQuery(q, &res, &hq.scratch); err != nil {
		writeErr(w, err)
		return
	}
	resp := QueryResponse{Sums: res.Sums, Answers: res.Answers, Cost: Cost(res.Cost)}
	switch res.Kind {
	case wire.KindMinCut:
		resp.MinCut = &MinCutResult{MinWeight: res.MinWeight, ArgVertex: res.ArgVertex}
	case wire.KindExpr:
		v := res.Value
		resp.Value = &v
	}
	writeJSON(w, http.StatusOK, resp)
}

// queryFromJSON converts a decoded JSON query into a wire.Query; shardID
// is the dyn endpoint's path id ("" on /v1/query). It owns only the
// checks the JSON schema adds — a kind name outside the vocabulary,
// both tree_id and parents set, an expr_kinds entry outside a byte —
// and leaves every other check to serveQuery, so both protocols reject
// a query identically.
//
//spatialvet:errclass
func queryFromJSON(req *QueryRequest, shardID string) (*wire.Query, error) {
	kind, ok := wire.KindByName(req.Kind)
	if !ok {
		return nil, badRequest(fmt.Errorf("unknown kind %q (want treefix, topdown, lca, mincut or expr)", req.Kind))
	}
	q := &wire.Query{
		Kind:      kind,
		ShardID:   shardID,
		Op:        req.Op,
		Vals:      req.Vals,
		Queries:   make([]wire.LCAQuery, len(req.Queries)),
		Edges:     make([]wire.Edge, len(req.Edges)),
		ExprKinds: make([]uint8, len(req.ExprKinds)),
	}
	if shardID == "" {
		// The API contract is "exactly one of tree_id / parents";
		// silently preferring one would mask a client bug where the two
		// disagree.
		if req.TreeID != "" && len(req.Parents) > 0 {
			return nil, badRequest(errors.New("exactly one of tree_id and parents may be set"))
		}
		q.TreeID, q.Parents = req.TreeID, req.Parents
	}
	for i, lq := range req.Queries {
		q.Queries[i] = wire.LCAQuery(lq)
	}
	for i, e := range req.Edges {
		q.Edges[i] = wire.Edge(e)
	}
	for i, k := range req.ExprKinds {
		if k < 0 || k > 255 {
			return nil, badRequest(fmt.Errorf("expr_kinds[%d] = %d (want 0=leaf, 1=add or 2=mul)", i, k))
		}
		q.ExprKinds[i] = uint8(k)
	}
	return q, nil
}

// engineFor resolves the shard serving an ad-hoc query tree t, whose
// fingerprint is fp. Known trees (registered, or ad-hoc structures
// already given a shard) join their pooled shard — equal trees coalesce
// into one batch window, and the shard serves on the backend the
// structure's latest registration chose (ad-hoc structures use the
// server default; ad-hoc routing never switches a shard's backend). New
// ad-hoc structures get a pooled shard only while the ad-hoc half of
// the MaxShards budget lasts; the other half stays reserved for
// explicit registration, so unauthenticated one-off traffic can bound
// neither memory nor the registration API. Beyond the budget, or when a
// different tree already holds fp's shard, the tree is served from an
// ephemeral engine (on sim, the shared layout cache still catches
// repeated structures; a native one builds no layout).
// retire must run after the request's future resolves — for an
// ephemeral engine it folds the counters into /metrics.
func (s *Server) engineFor(t *tree.Tree, fp uint64) (*engine.Engine, func(), error) {
	// Sample the pool size before taking the routing lock: Size takes
	// the pool's own routing lock, and s.mu must never nest over
	// another lock (the /metrics deadlock class). The value is a budget
	// heuristic — concurrent registrations already race it regardless
	// of where it is read.
	poolSize := s.pool.Size()
	s.mu.Lock()
	_, registered := s.trees[treeID(fp)]
	_, known := s.adhoc[fp]
	claim := !registered && !known && len(s.adhoc) < s.cfg.Limits.MaxShards/2 && poolSize+len(s.dyns) < s.cfg.Limits.MaxShards
	if claim {
		s.adhoc[fp] = struct{}{}
	}
	s.mu.Unlock()
	if registered || known || claim {
		eng, err := s.pool.Shard(t, fp, "")
		if err == nil {
			return eng, func() {}, nil
		}
		if claim {
			s.mu.Lock()
			delete(s.adhoc, fp)
			s.mu.Unlock()
		}
		if !errors.Is(err, engine.ErrCollision) {
			return nil, nil, err
		}
	}
	opts := s.pool.Options()
	// No linger on a single-request engine: nothing can ever join its
	// batch, so Wait should run it at once even when MaxDelay is set.
	opts.FlushDelay = 0
	eng, err := engine.New(t, opts)
	if err != nil {
		return nil, nil, err
	}
	return eng, func() {
		st := eng.Stats()
		st.Cache = engine.CacheStats{} // shared-cache counters stay with the pool's
		s.ephemMu.Lock()
		s.ephem.Add(st)
		s.ephemMu.Unlock()
	}, nil
}

func (s *Server) handleDynCreate(w http.ResponseWriter, r *http.Request) {
	var req DynCreateRequest
	if !decode(w, r, &req) {
		return
	}
	res, err := s.dynCreate(req.Parents, req.Epsilon, req.Backend)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, DynCreateResponse{ID: res.ID, N: res.N, Backend: res.Backend})
}

func (s *Server) handleDynMutate(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req MutateRequest
	if !decode(w, r, &req) {
		return
	}
	var op uint8
	var arg int
	switch req.Op {
	case "insert":
		op, arg = wire.OpInsert, req.Parent
	case "delete":
		op, arg = wire.OpDelete, req.Leaf
	default:
		writeStatus(w, StatusBadRequest, "unknown op "+strconv.Quote(req.Op)+" (want insert or delete)")
		return
	}
	res, err := s.mutate(id, op, arg)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, MutateResponse{Vertex: res.Vertex, Moved: res.Moved, Epoch: res.Epoch, N: res.N})
}

// handleDynStatus reports a locally served shard's size, epoch and
// layout configuration. It is a local view: in cluster mode non-owners
// answer 404 rather than proxy — status is an operator surface, not a
// routed data path.
func (s *Server) handleDynStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	de := s.dyns[id]
	s.mu.Unlock()
	if de == nil {
		writeStatus(w, StatusNotFound, "unknown shard_id "+id)
		return
	}
	writeJSON(w, http.StatusOK, DynStatusResponse{
		ID:      id,
		N:       de.N(),
		Epoch:   de.Epoch(),
		Backend: de.Backend(),
		Curve:   de.Curve(),
		Epsilon: de.Epsilon(),
	})
}

// Metrics snapshots every layer's counters (also served as /metrics).
func (s *Server) Metrics() MetricsResponse {
	st := s.pool.Stats()
	s.ephemMu.Lock()
	st.Add(s.ephem)
	s.ephemMu.Unlock()
	// Copy the shard list under s.mu, then aggregate without it:
	// DynEngine.Stats blocks on the shard's mutation lock, which a slow
	// mutation can hold through a drain and a layout rebuild — routing
	// must not queue behind a metrics scrape for that long.
	dynList := s.dynList()
	s.mu.Lock()
	trees := len(s.trees)
	recovered := s.recovered
	backendShards := map[string]int{}
	for _, eng := range s.trees {
		backendShards[eng.Backend()]++
	}
	// Ad-hoc pool shards serve on the default backend.
	backendShards[s.cfg.Backend] += len(s.adhoc)
	s.mu.Unlock()
	var pm *PersistMetrics
	if s.cfg.Durability.Store != nil {
		pm = &PersistMetrics{
			Enabled:         true,
			RecoveredTrees:  recovered.Trees,
			RecoveredShards: recovered.DynShards,
			ReplayedRecords: recovered.Records,
		}
		for _, de := range dynList {
			if l := de.Journal(); l != nil {
				pm.JournalRecords += l.Appends()
				pm.Compactions += l.Compactions()
				pm.WALRecords += l.RecordsSinceSnapshot()
			}
		}
	}
	// Each dyn shard's engine counters fold into the serving totals
	// here, once; the pool holds only the immutable shards.
	var dyn DynMetrics
	dyn.Shards = len(dynList)
	for _, de := range dynList {
		ds := de.Stats()
		st.Add(ds.Engine)
		backendShards[de.Backend()]++
		dyn.Epoch += ds.Epoch
		dyn.Inserts += ds.Inserts
		dyn.Deletes += ds.Deletes
		dyn.Rebuilds += ds.Rebuilds
		dyn.Refreshes += ds.Refreshes
	}
	batches := st.Batches
	perBatch := 0.0
	if batches > 0 {
		perBatch = float64(st.Requests) / float64(batches)
	}
	var wm *WireMetrics
	if s.wireEnabled.Load() {
		s.wireMu.Lock()
		active := len(s.wireConns)
		s.wireMu.Unlock()
		wm = &WireMetrics{
			Conns:       s.wireTotal.Load(),
			ActiveConns: active,
			Queries:     s.wireQueries.Load(),
			Errors:      s.wireErrors.Load(),
		}
	}
	return MetricsResponse{
		Server: ServerMetrics{
			Accepted:  s.accepted.Load(),
			Rejected:  s.rejected.Load(),
			InFlight:  len(s.sem),
			Draining:  s.draining.Load(),
			Trees:     trees,
			DynShards: len(dynList),
		},
		Scheduler: SchedulerMetrics{
			MaxBatch:         s.cfg.Scheduler.MaxBatch,
			MaxDelayMillis:   float64(s.cfg.Scheduler.MaxDelay) / float64(time.Millisecond),
			Batches:          st.Batches,
			Requests:         st.Requests,
			SizeFlushes:      st.SizeFlushes,
			DeadlineFlushes:  st.DeadlineFlushes,
			IdleFlushes:      st.IdleFlushes,
			RequestsPerBatch: perBatch,
		},
		Engine: EngineMetrics{
			LCAQueries: st.LCAQueries,
			LCARuns:    st.LCARuns,
			Cost:       Cost{Energy: st.Cost.Energy, Messages: st.Cost.Messages, Depth: st.Cost.Depth},
		},
		Cache: CacheMetrics{
			Hits:      st.Cache.Hits,
			Misses:    st.Cache.Misses,
			Evictions: st.Cache.Evictions,
			Builds:    st.Cache.Builds,
			Coalesced: st.Cache.Coalesced,
			Size:      st.Cache.Size,
			Capacity:  st.Cache.Capacity,
			HitRate:   st.Cache.HitRate(),
		},
		Backends: BackendMetrics{
			Default: s.cfg.Backend,
			Shards:  backendShards,
		},
		Dyn:     dyn,
		Wire:    wm,
		Persist: pm,
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, HealthResponse{OK: false, Draining: true})
		return
	}
	writeJSON(w, http.StatusOK, HealthResponse{OK: true})
}

// decode reads the whole body and parses it into v, replying itself on
// failure (see readBody and decodeBody).
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	body, ok := readBody(w, r, nil)
	return ok && decodeBody(w, body, v)
}

// readBody reads r's whole body into buf[:0]. Reading it whole makes the
// limit admitted sets (http.MaxBytesReader) count every byte: a body
// past it answers 413 whatever it holds. Any other read failure answers
// 400. ok is false when readBody has replied.
func readBody(w http.ResponseWriter, r *http.Request, buf []byte) (_ []byte, ok bool) {
	buf = buf[:0]
	// Pre-size from the declared length, but only up to the pooled cap:
	// a client's Content-Length is a hint, not a promise of bytes.
	if n := r.ContentLength; n >= int64(cap(buf)) && n < maxPooledBody {
		buf = make([]byte, 0, n+1)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		switch {
		case err == io.EOF:
			return buf, true
		case err == nil:
		default:
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				writeStatus(w, StatusTooLarge, err.Error())
			} else {
				writeStatus(w, StatusBadRequest, "invalid request body: "+err.Error())
			}
			return buf, false
		}
	}
}

// decodeBody parses body into v with encoding/json, rejecting unknown
// fields and anything but whitespace after the value, and replies 400
// itself on failure.
func decodeBody(w http.ResponseWriter, body []byte, v any) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeStatus(w, StatusBadRequest, "invalid request body: "+err.Error())
		return false
	}
	if len(bytes.TrimLeft(body[dec.InputOffset():], " \t\n\r")) > 0 {
		writeStatus(w, StatusBadRequest, "trailing data after request body")
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
