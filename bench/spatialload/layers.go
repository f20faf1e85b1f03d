package main

// The traced run: one set-up, the open loop untraced at rate lo (the
// overhead baseline), then traced at lo and hi, then direct replays of
// the same pooled requests through each layer's public functions. Every
// replayed call is a span carrying the request id it replays.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"spatialtree/internal/dynlayout"
	"spatialtree/internal/engine"
	"spatialtree/internal/exec"
	"spatialtree/internal/layout"
	"spatialtree/internal/persist"
	"spatialtree/internal/server"
	"spatialtree/internal/sfc"
	"spatialtree/internal/tree"
	"spatialtree/internal/treefix"
	"spatialtree/internal/wire"
)

// Replay sizes: enough calls for a stable median, few enough that the
// whole traced run stays close to an untraced one.
const (
	codecSample   = 256
	handlerSample = 128
	kernelSample  = 32
	replayTrees   = 4
	replayMuts    = 48
	appendsPlain  = 256
	appendsFsync  = 32
)

type layers struct {
	cfg     runConfig
	s       *system
	p       *pool
	tr      *tracer
	m       map[string]float64
	log     *errLog
	entries []entry
	kind    map[int64]kind // request id → kind, for per-kind span statistics
	// snap is the dyn replay shard's final state, the persist replay's
	// snapshot.
	snap persist.DynSnapshot

	mu                     sync.Mutex
	replayed, replayFailed int
}

func us(d int64) float64 { return float64(d) / 1e3 }

func runTraced(cfg runConfig) (*report, error) {
	w := cfg.w
	p, err := newPool(w, cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	// The two lo phases (the untraced overhead baseline and its traced
	// twin) run for half the untraced run's lo each, so a traced run
	// takes about as long as an untraced one.
	sh := newShape(cfg.seconds)
	sh.lo /= 2
	sc := newScheduler(p, cfg.seed)
	var entries []entry
	entries = sc.poisson(entries, phWarm, w.lo, 0, sh.warm)
	entries = sc.poisson(entries, phLo, w.lo, sh.warm, sh.lo)
	entries = sc.poisson(entries, phTracedLo, w.lo, sh.warm+sh.lo, sh.lo)
	entries = sc.poisson(entries, phTracedHi, w.hi, sh.warm+2*sh.lo, sh.hi)

	r := &report{Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Traced: true, Metrics: map[string]float64{}}
	s, setupCPU, setupWall, err := bringUp(cfg, p, 1)
	if err != nil {
		return nil, err
	}
	r.SetupsS, r.SetupsWallS = setupCPU, setupWall
	L := &layers{cfg: cfg, s: s, p: p, tr: newTracer(4*len(entries) + 1<<16), m: r.Metrics, log: &errLog{},
		entries: entries, kind: map[int64]kind{}}
	for _, e := range entries {
		L.kind[e.id] = e.kind
	}

	var m0 server.MetricsResponse
	var mem0, mem1 runtime.MemStats
	unwatch := func() {}
	smp := openLoop(s, entries, L.tr, func(ph phase) bool { return ph >= phTracedLo }, func(ph phase) {
		switch ph {
		case phTracedLo:
			m0 = s.metrics()
			unwatch = L.watchServed()
		case phTracedHi:
			runtime.ReadMemStats(&mem0)
		}
	}, L.log)
	runtime.ReadMemStats(&mem1)
	unwatch()
	m1 := s.metrics()

	lo := smp.summary(phLo, w.lo, sh.lo)
	tlo, thi := smp.summary(phTracedLo, w.lo, sh.lo), smp.summary(phTracedHi, w.hi, sh.hi)
	r.Phases = []phaseSummary{smp.summary(phWarm, w.lo, sh.warm), lo, tlo, thi}
	for _, ps := range r.Phases {
		r.Attempted += ps.Sent
		r.Failed += ps.Failed
	}
	L.generator(smp, tlo, thi)
	L.process(mem0, mem1, thi.Sent)
	L.served(m0, m1)
	L.m["trace.overhead_pct"] = (tlo.P50ms - lo.P50ms) / lo.P50ms * 100

	sample := L.sample(phTracedLo)
	L.wireCodec(sample)
	L.httpCodec(sample)
	L.trees(sample)
	L.handler(sample)
	L.engineReplay(sh.lo * 2 / 3)
	L.exec(sample)
	L.layout()
	L.dyn()
	L.persist()
	if w.cluster {
		L.cluster()
	}
	finish(s, r)

	spans := L.tr.recorded()
	self := selfTimes(spans)
	var wait []float64
	for i, sp := range spans {
		if sp.Name == "engine.replay.request" {
			wait = append(wait, self[i])
		}
	}
	L.m["engine.wait_us"] = median(wait)
	L.path(lo.P50ms * 1000)
	r.Spans = summarizeWith(spans, self)
	r.Dropped = L.tr.dropped.Load()
	r.Attempted += L.replayed
	r.Failed += L.replayFailed
	r.absorb(L.log)
	if cfg.tracePath != "" {
		if err := L.tr.write(cfg.tracePath); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		r.TraceFile = cfg.tracePath
	}
	for _, m := range perLayer {
		if _, ok := r.Metrics[m.name]; !ok && m.gated {
			return nil, fmt.Errorf("traced run did not measure %s", m.name)
		}
	}
	return r, nil
}

// sample returns up to codecSample queries (no mutations) of a phase.
func (L *layers) sample(ph phase) []entry {
	var out []entry
	for _, e := range L.entries {
		if e.phase == ph && e.kind != kMutate && len(out) < codecSample {
			out = append(out, e)
		}
	}
	return out
}

// record counts one replayed call toward the run's attempted and failed
// totals.
func (L *layers) record(err error) {
	L.mu.Lock()
	L.replayed++
	if err != nil {
		L.replayFailed++
	}
	L.mu.Unlock()
	if err != nil {
		L.log.add(err)
	}
}

// generator reports the dispatcher's lateness and the per-phase counts
// of the traced phases.
func (L *layers) generator(smp *samples, lo, hi phaseSummary) {
	var late []float64
	for i, e := range smp.entries {
		if e.phase == phTracedLo || e.phase == phTracedHi {
			late = append(late, smp.lateMs[i])
		}
	}
	L.m["gen.late_p50_ms"], L.m["gen.late_p99_ms"] = percentile(late, 0.5), percentile(late, 0.99)
	L.m["gen.sent_lo"], L.m["gen.succeeded_lo"], L.m["gen.failed_lo"] = float64(lo.Sent), float64(lo.Succeeded), float64(lo.Failed)
	L.m["gen.sent_hi"], L.m["gen.succeeded_hi"], L.m["gen.failed_hi"] = float64(hi.Sent), float64(hi.Succeeded), float64(hi.Failed)
}

// process reports the Go runtime's allocation and GC work over the
// traced hi phase, per request sent in it.
func (L *layers) process(a, b runtime.MemStats, reqs int) {
	n := float64(max(reqs, 1))
	L.m["process.allocs_per_req"] = float64(b.Mallocs-a.Mallocs) / n
	L.m["process.bytes_per_req"] = float64(b.TotalAlloc-a.TotalAlloc) / n
	L.m["process.gc_cycles_per_kreq"] = float64(b.NumGC-a.NumGC) / n * 1000
	var pauses []float64
	for g := b.NumGC; g > a.NumGC && b.NumGC-g < uint32(len(b.PauseNs)); g-- {
		pauses = append(pauses, float64(b.PauseNs[(g+255)%256])/1e3)
	}
	L.m["process.gc_pause_p99_us"] = 0
	if len(pauses) > 0 {
		L.m["process.gc_pause_p99_us"] = percentile(pauses, 0.99)
	}
}

// served reports the serving counters over the traced phases.
func (L *layers) served(a, b server.MetricsResponse) {
	ratio := func(x, y uint64) float64 {
		if y == 0 {
			return 0
		}
		return float64(x) / float64(y)
	}
	L.m["server.accepted"] = float64(b.Server.Accepted - a.Server.Accepted)
	L.m["server.rejected"] = float64(b.Server.Rejected - a.Server.Rejected)
	batches := b.Scheduler.Batches - a.Scheduler.Batches
	L.m["engine.req_per_batch"] = ratio(b.Scheduler.Requests-a.Scheduler.Requests, batches)
	L.m["engine.deadline_flush_share"] = ratio(b.Scheduler.DeadlineFlushes-a.Scheduler.DeadlineFlushes, batches)
	L.m["engine.lca_queries_per_run"] = ratio(b.Engine.LCAQueries-a.Engine.LCAQueries, b.Engine.LCARuns-a.Engine.LCARuns)
	L.m["engine.cache_hit_rate"] = ratio(b.Cache.Hits, b.Cache.Hits+b.Cache.Misses)
	var batch []float64
	for _, sp := range L.tr.recorded() {
		if sp.Name == "engine.batch" {
			batch = append(batch, us(sp.End-sp.Start))
		}
	}
	L.m["engine.batch_us_p50"], L.m["engine.batch_us_p99"] = percentile(batch, 0.5), percentile(batch, 0.99)
	if L.s.w.cluster {
		// Refreshes happen on the owners' served shards, queries are the
		// traced phases' LCA requests.
		L.m["dyn.refreshes_per_query"] = ratio(b.Dyn.Refreshes-a.Dyn.Refreshes, L.tracedCount(kLCA))
		L.m["dyn.rebuilds"] = float64(b.Dyn.Rebuilds)
	}
}

func (L *layers) tracedCount(k kind) uint64 {
	var n uint64
	for _, e := range L.entries {
		if e.kind == k && (e.phase == phTracedLo || e.phase == phTracedHi) {
			n++
		}
	}
	return n
}

// batchHooks records engine batch profiles as spans. The engine calls a
// profile observer after the batch's futures resolved, so a caller that
// has every reply may still race the last callbacks: stop refuses new
// ones and waits for those in flight, after which the spans are safe
// to read.
type batchHooks struct {
	tr   *tracer
	name string

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup
}

func (h *batchHooks) observer(shard int32) engine.ProfileFunc {
	return func(bp engine.BatchProfile) {
		h.mu.Lock()
		if h.closed {
			h.mu.Unlock()
			return
		}
		h.wg.Add(1)
		h.mu.Unlock()
		defer h.wg.Done()
		end := h.tr.now()
		h.tr.add(h.name, end-int64(bp.Elapsed), end, -1, -1, shard)
	}
}

func (h *batchHooks) stop() {
	h.mu.Lock()
	h.closed = true
	h.mu.Unlock()
	h.wg.Wait()
}

// watchServed installs batch observers on the served shards, recording
// an engine.batch span per dispatched batch, and returns their stop.
func (L *layers) watchServed() func() {
	h := &batchHooks{tr: L.tr, name: "engine.batch"}
	engines, err := L.s.engines()
	if err != nil {
		L.log.add(err)
	}
	dyns := L.s.dynShards()
	for i, e := range engines {
		e.SetProfile(h.observer(int32(i)))
	}
	for i, de := range dyns {
		de.SetProfile(h.observer(int32(i)))
	}
	return func() {
		for _, e := range engines {
			e.SetProfile(nil)
		}
		for _, de := range dyns {
			de.SetProfile(nil)
		}
		h.stop()
	}
}

// wireCodec times the binary codec on the sampled requests: the client's
// query encode and the server's decode, the server's result encode and
// the client's decode.
func (L *layers) wireCodec(sample []entry) {
	var enc, dec, reqB, respB []float64
	var qb, rb []byte
	for i := range sample {
		e := &sample[i]
		q := L.s.wireQuery(e)
		res := L.p.result(e)
		t0 := L.tr.now()
		qb = wire.AppendQuery(qb[:0], &q)
		t1 := L.tr.now()
		var dq wire.Query
		err := dq.Decode(qb[wire.HeaderLen:])
		t2 := L.tr.now()
		rb = wire.AppendResult(rb[:0], &res)
		t3 := L.tr.now()
		var dr wire.Result
		if derr := dr.Decode(rb[wire.HeaderLen:]); err == nil {
			err = derr
		}
		t4 := L.tr.now()
		if err == nil {
			err = L.p.check(e, dr.Answers, dr.Sums, dr.MinWeight, dr.ArgVertex)
		}
		L.record(err)
		L.tr.add("wire.encode_query", t0, t1, -1, e.id, -1)
		L.tr.add("wire.decode_query", t1, t2, -1, e.id, -1)
		L.tr.add("wire.encode_result", t2, t3, -1, e.id, -1)
		L.tr.add("wire.decode_result", t3, t4, -1, e.id, -1)
		enc, dec = append(enc, us(t1-t0+t3-t2)), append(dec, us(t2-t1+t4-t3))
		reqB, respB = append(reqB, float64(len(qb))), append(respB, float64(len(rb)))
	}
	L.m["wire.encode_us"], L.m["wire.decode_us"] = median(enc), median(dec)
	L.m["wire.req_bytes"], L.m["wire.resp_bytes"] = median(reqB), median(respB)
}

// httpCodec times the JSON codec on server.QueryRequest and
// server.QueryResponse for the sampled requests.
func (L *layers) httpCodec(sample []entry) {
	var enc, dec, reqB, respB []float64
	for i := range sample {
		e := &sample[i]
		req := L.s.queryRequest(e)
		res := L.p.result(e)
		resp := server.QueryResponse{Sums: res.Sums, Answers: res.Answers}
		if e.kind == kMinCut {
			resp.MinCut = &server.MinCutResult{MinWeight: res.MinWeight, ArgVertex: res.ArgVertex}
		}
		t0 := L.tr.now()
		qb, err := json.Marshal(req)
		t1 := L.tr.now()
		var dq server.QueryRequest
		if err == nil {
			err = json.Unmarshal(qb, &dq)
		}
		t2 := L.tr.now()
		rb, rerr := json.Marshal(resp)
		t3 := L.tr.now()
		var dr server.QueryResponse
		if err == nil {
			err = rerr
		}
		if err == nil {
			err = json.Unmarshal(rb, &dr)
		}
		t4 := L.tr.now()
		if err == nil {
			var w int64
			var a int
			if dr.MinCut != nil {
				w, a = dr.MinCut.MinWeight, dr.MinCut.ArgVertex
			}
			err = L.p.check(e, dr.Answers, dr.Sums, w, a)
		}
		L.record(err)
		L.tr.add("http.encode_query", t0, t1, -1, e.id, -1)
		L.tr.add("http.decode_query", t1, t2, -1, e.id, -1)
		L.tr.add("http.encode_result", t2, t3, -1, e.id, -1)
		L.tr.add("http.decode_result", t3, t4, -1, e.id, -1)
		enc, dec = append(enc, us(t1-t0+t3-t2)), append(dec, us(t2-t1+t4-t3))
		reqB, respB = append(reqB, float64(len(qb))), append(respB, float64(len(rb)))
	}
	L.m["http.encode_us"], L.m["http.decode_us"] = median(enc), median(dec)
	L.m["http.req_bytes"], L.m["http.resp_bytes"] = median(reqB), median(respB)
}

// trees times ad-hoc routing's tree work per sampled request: parent
// array validation and the structural fingerprint.
func (L *layers) trees(sample []entry) {
	var fp, fpr []float64
	for i := range sample[:min(len(sample), handlerSample)] {
		e := &sample[i]
		td := L.p.trees[e.tree]
		t0 := L.tr.now()
		t, err := tree.FromParents(td.parents)
		t1 := L.tr.now()
		var f uint64
		if err == nil {
			f = engine.Fingerprint(t)
		}
		t2 := L.tr.now()
		if err == nil && "t"+strconv.FormatUint(f, 16) != td.treeID {
			err = mismatchf("request %d: fingerprint of tree %d differs from its registered id", e.id, e.tree)
		}
		L.record(err)
		L.tr.add("tree.from_parents", t0, t1, -1, e.id, -1)
		L.tr.add("tree.fingerprint", t1, t2, -1, e.id, -1)
		fp, fpr = append(fp, us(t1-t0)), append(fpr, us(t2-t1))
	}
	L.m["tree.from_parents_us"], L.m["tree.fingerprint_us"] = median(fp), median(fpr)
}

// pipeListener hands ServeBinary in-memory connections, so the handler
// replay measures serving without the TCP stack.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// handler times the serving layer alone, one request at a time: the
// HTTP handler with a response recorder, or ServeBinary over an
// in-memory pipe, on the live system's servers.
func (L *layers) handler(sample []entry) {
	var took []float64
	sample = sample[:min(len(sample), handlerSample)]
	if L.s.w.proto == protoHTTP {
		h := L.s.nodes[0].srv.Handler()
		for i := range sample {
			e := &sample[i]
			td := L.p.trees[e.tree]
			body := td.lcaBody[e.idx]
			if e.kind == kTreefix {
				body = td.tfBody[e.idx][e.fop]
			}
			req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			t0 := L.tr.now()
			h.ServeHTTP(rec, req)
			t1 := L.tr.now()
			var err error
			var qr server.QueryResponse
			if rec.Code != http.StatusOK {
				err = fmt.Errorf("handler replay: HTTP %d", rec.Code)
			} else if err = json.Unmarshal(rec.Body.Bytes(), &qr); err == nil {
				err = L.p.check(e, qr.Answers, qr.Sums, 0, 0)
			}
			L.record(err)
			L.tr.add("server.handler", t0, t1, -1, e.id, -1)
			took = append(took, us(t1-t0))
		}
		L.m["server.handler_us"] = median(took)
		return
	}
	type pipe struct {
		ln     *pipeListener
		c      *wire.Client
		served chan struct{}
	}
	pipes := map[int]*pipe{}
	for i := range sample {
		e := &sample[i]
		ni := L.s.connNode[L.s.connOf(e)]
		pp := pipes[ni]
		if pp == nil {
			pp = &pipe{ln: &pipeListener{conns: make(chan net.Conn, 1), done: make(chan struct{})}, served: make(chan struct{})}
			srv := L.s.nodes[ni].srv
			go func() {
				defer close(pp.served)
				_ = srv.ServeBinary(pp.ln) // returns when the pipe listener closes
			}()
			a, b := net.Pipe()
			pp.ln.conns <- b
			pp.c = wire.NewClientOptions(a, wire.DialOptions{ReadTimeout: clientTimeout})
			pipes[ni] = pp
		}
		q := L.s.wireQuery(e)
		t0 := L.tr.now()
		res, err := pp.c.Do(&q)
		t1 := L.tr.now()
		if err == nil {
			err = L.p.check(e, res.Answers, res.Sums, res.MinWeight, res.ArgVertex)
		}
		L.record(err)
		L.tr.add("server.handler", t0, t1, -1, e.id, -1)
		took = append(took, us(t1-t0))
	}
	for _, pp := range pipes {
		pp.c.Close()
		pp.ln.Close()
		<-pp.served
	}
	L.m["server.handler_us"] = median(took)
}

// engineReplay submits the traced lo phase's first queries straight to
// fresh engines built with the served options, on the same schedule,
// and records each request and each batch, so a request's self time is
// its wait for a batch to start.
func (L *layers) engineReplay(window time.Duration) {
	opts := L.s.nodes[L.s.connNode[0]].srv.EngineOptions()
	hooks := &batchHooks{tr: L.tr, name: "engine.replay.batch"}
	defer hooks.stop()
	engines := make([]*engine.Engine, len(L.p.trees))
	for i, td := range L.p.trees {
		e, err := engine.New(td.t, opts)
		if err != nil {
			L.record(err)
			return
		}
		engines[i] = e
		for k := kLCA; k <= kMinCut; k++ {
			w := entry{id: -1, op: op{kind: k, tree: int32(i)}}
			L.record(L.p.checkResult(&w, submit(e, L.p, &w).Wait()))
		}
		e.SetProfile(hooks.observer(int32(i)))
	}
	var replay []entry
	for _, e := range L.entries {
		if e.phase == phTracedLo && e.kind != kMutate {
			replay = append(replay, e)
		}
	}
	if len(replay) == 0 {
		return
	}
	first := replay[0].at
	base := time.Now()
	var wg sync.WaitGroup
	for i := range replay {
		e := &replay[i]
		if e.at-first > window {
			break
		}
		sleepUntil(base.Add(e.at - first))
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := L.tr.now()
			res := submit(engines[e.tree], L.p, e).Wait()
			t1 := L.tr.now()
			L.record(L.p.checkResult(e, res))
			L.tr.add("engine.replay.request", t0, t1, -1, e.id, e.tree)
		}()
	}
	wg.Wait()
	for _, e := range engines {
		e.SetProfile(nil)
		e.StopAutoFlush()
	}
}

// submit enqueues a pooled query on an engine.
func submit(e *engine.Engine, p *pool, x *entry) *engine.Future {
	td := p.trees[x.tree]
	switch x.kind {
	case kTreefix:
		return e.SubmitTreefix(td.vals[x.idx], treefixOps[x.fop])
	case kTopDown:
		return e.SubmitTopDown(td.vals[x.idx], treefixOps[x.fop])
	case kMinCut:
		return e.SubmitMinCut(td.edgesKern[x.idx])
	default:
		return e.SubmitLCA(td.lcaKern[x.idx])
	}
}

func (p *pool) checkResult(e *entry, res engine.Result) error {
	if res.Err != nil {
		return res.Err
	}
	return p.check(e, res.Answers, res.Sums, res.MinCut.MinWeight, res.MinCut.ArgVertex)
}

// exec times each kernel on the native backend, one call per request,
// and the backend's lazy preparation (first call of every kernel).
// Kinds outside the workload's mix replay pool payloads without a
// request id, so every workload reports every kernel.
func (L *layers) exec(sample []entry) {
	nt := min(len(L.p.trees), replayTrees)
	backends := make([]exec.Backend, nt)
	var prep []float64
	for i := 0; i < nt; i++ {
		td := L.p.trees[i]
		t0 := L.tr.now()
		be, err := exec.New(exec.Native, exec.Config{Tree: td.t})
		if err == nil {
			run := be.Run(0)
			_, err = run.LCA(td.lcaKern[0])
			if err == nil {
				_, err = run.BottomUp(td.vals[0], treefix.Add)
			}
			if err == nil {
				_, err = run.TopDown(td.vals[0], treefix.Add)
			}
			if err == nil {
				_, err = run.MinCut(td.edgesKern[0])
			}
		}
		t1 := L.tr.now()
		if err != nil {
			L.record(err)
			return
		}
		backends[i] = be
		L.tr.add("exec.prep", t0, t1, -1, -1, int32(i))
		prep = append(prep, float64(t1-t0)/1e6)
	}
	L.m["exec.prep_ms"] = median(prep)
	for k := kLCA; k <= kMinCut; k++ {
		var runs []entry
		for _, e := range sample {
			if e.kind == k && int(e.tree) < nt && len(runs) < kernelSample {
				runs = append(runs, e)
			}
		}
		for j := 0; len(runs) < kernelSample/2; j++ {
			e := entry{id: -1, op: op{kind: k, tree: int32(j % nt), fop: int8(j % len(treefixOps))}}
			switch k {
			case kLCA:
				e.idx = int32(j % lcaPerTree)
			case kTreefix, kTopDown:
				e.idx = int32(j % valsPerTree)
			case kMinCut:
				e.idx = int32(j % edgesPerTree)
			}
			runs = append(runs, e)
		}
		var took []float64
		for i := range runs {
			e := &runs[i]
			td := L.p.trees[e.tree]
			run := backends[e.tree].Run(uint64(i))
			var res engine.Result
			var err error
			t0 := L.tr.now()
			switch k {
			case kLCA:
				res.Answers, err = run.LCA(td.lcaKern[e.idx])
			case kTreefix:
				res.Sums, err = run.BottomUp(td.vals[e.idx], treefixOps[e.fop])
			case kTopDown:
				res.Sums, err = run.TopDown(td.vals[e.idx], treefixOps[e.fop])
			case kMinCut:
				res.MinCut, err = run.MinCut(td.edgesKern[e.idx])
			}
			t1 := L.tr.now()
			res.Err = err
			L.record(L.p.checkResult(e, res))
			L.tr.add("exec."+k.String(), t0, t1, -1, e.id, e.tree)
			took = append(took, us(t1-t0))
		}
		L.m["exec."+k.String()+"_us"] = median(took)
	}
}

// layout times the light-first layout build and measures the paper's
// parent-child energy (Theorem 1's kernel, an exact count) per vertex on
// the served placements; a dyn shard's placement is replayed through
// the same mutations its queue applied.
func (L *layers) layout() {
	curve, err := sfc.ByName("hilbert")
	if err != nil {
		L.record(err)
		return
	}
	var build, energy []float64
	for i := 0; i < min(len(L.p.trees), replayTrees); i++ {
		t0 := L.tr.now()
		layout.LightFirst(L.p.trees[i].t, curve)
		t1 := L.tr.now()
		L.tr.add("layout.build", t0, t1, -1, -1, int32(i))
		build = append(build, float64(t1-t0)/1e6)
	}
	L.m["layout.build_ms"] = median(build)
	engines, err := L.s.engines()
	if err != nil {
		L.record(err)
		return
	}
	for _, e := range engines {
		energy = append(energy, layout.ParentChildEnergy(e.Placement()).PerVertex)
	}
	for i, q := range L.s.queues {
		d, err := dynlayout.New(L.p.trees[i].t, curve, engine.DefaultEpsilon)
		var leaves []int
		for k := uint64(0); err == nil && k < q.k; k++ {
			var v int
			if insertStep(k) {
				v, err = d.InsertLeaf(mutationParent(L.p.seed, i, k, L.p.n))
				leaves = append(leaves, v)
			} else {
				_, err = d.DeleteLeaf(leaves[len(leaves)-1])
				leaves = leaves[:len(leaves)-1]
			}
		}
		if err == nil {
			var pl *layout.Placement
			if pl, err = d.Placement(); err == nil {
				energy = append(energy, layout.ParentChildEnergy(pl).PerVertex)
			}
		}
		if err != nil {
			L.record(err)
		}
	}
	var sum float64
	for _, x := range energy {
		sum += x
	}
	L.m["layout.energy_per_vertex"] = sum / float64(len(energy))
}

// dyn times mutations on a private dyn shard of the first tree, and the
// refresh the next query pays after each (first query after a mutation
// minus a steady-state query).
func (L *layers) dyn() {
	td := L.p.trees[0]
	opts := L.s.nodes[L.s.connNode[0]].srv.EngineOptions()
	opts.FlushDelay, opts.ShadowMeter = 0, 0 // Wait flushes at once: time the refresh, not a batch window
	de, err := engine.NewDyn(td.t, engine.DynOptions{Options: opts})
	if err != nil {
		L.record(err)
		return
	}
	var mut, first, steady []float64
	var leaves []int
	q := entry{id: -1, op: op{kind: kLCA}}
	for k := 0; k < replayMuts; k++ {
		t0 := L.tr.now()
		if insertStep(uint64(k)) {
			var v int
			v, err = de.InsertLeaf(mutationParent(L.p.seed, -1, uint64(k), L.p.n))
			leaves = append(leaves, v)
		} else {
			_, err = de.DeleteLeaf(leaves[len(leaves)-1])
			leaves = leaves[:len(leaves)-1]
		}
		t1 := L.tr.now()
		L.record(err)
		r1 := de.SubmitLCA(td.lcaKern[0]).Wait()
		t2 := L.tr.now()
		r2 := de.SubmitLCA(td.lcaKern[0]).Wait()
		t3 := L.tr.now()
		L.record(L.p.checkResult(&q, r1))
		L.record(L.p.checkResult(&q, r2))
		L.tr.add("dyn.mutate", t0, t1, -1, -1, 0)
		L.tr.add("dyn.query_after_mutate", t1, t2, -1, -1, 0)
		L.tr.add("dyn.query_steady", t2, t3, -1, -1, 0)
		mut, first, steady = append(mut, us(t1-t0)), append(first, us(t2-t1)), append(steady, us(t3-t2))
	}
	L.m["dyn.mutate_us"] = median(mut)
	L.m["dyn.refresh_us"] = median(first) - median(steady)
	if !L.s.w.cluster {
		st := de.Stats()
		L.m["dyn.refreshes_per_query"] = float64(st.Refreshes) / float64(2*replayMuts)
		L.m["dyn.rebuilds"] = float64(st.Rebuilds)
	}
	L.snap = server.DynSnapshotFromState(de.State())
}

// persist times WAL appends of the dyn replay's shard on a temporary
// store, without and with fsync.
func (L *layers) persist() {
	for _, fsync := range []bool{false, true} {
		name, count := "persist.append", appendsPlain
		if fsync {
			name, count = "persist.append_fsync", appendsFsync
		}
		dir := filepath.Join(L.cfg.dir, name)
		took, err := appendRecords(L.tr, name, dir, fsync, L.snap, count)
		os.RemoveAll(dir)
		L.record(err)
		L.m[name+"_us"] = median(took)
	}
}

func appendRecords(tr *tracer, name, dir string, fsync bool, snap persist.DynSnapshot, count int) ([]float64, error) {
	st, err := persist.Open(persist.Options{Dir: dir, Fsync: fsync})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	log, err := st.CreateShardLog("bench", snap)
	if err != nil {
		return nil, err
	}
	var took []float64
	for i := 0; i < count; i++ {
		rec := persist.Record{Type: persist.RecInsert, Epoch: snap.Epoch + uint64(i) + 1, Result: len(snap.Parents) + i}
		t0 := tr.now()
		if err := log.Append(rec); err != nil {
			return took, err
		}
		t1 := tr.now()
		tr.add(name, t0, t1, -1, -1, 0)
		took = append(took, us(t1-t0))
	}
	return took, nil
}

// cluster reports per-kind client latency over the traced phases and the
// replication cost of one mutation: sequential mutations through the
// cluster minus the same mutations on a single durable node.
func (L *layers) cluster() {
	var mutate, query []float64
	for _, sp := range L.tr.recorded() {
		if sp.Name != "client.call" || sp.Req < 0 {
			continue
		}
		switch L.kind[sp.Req] {
		case kMutate:
			mutate = append(mutate, float64(sp.End-sp.Start)/1e6)
		case kLCA:
			query = append(query, float64(sp.End-sp.Start)/1e6)
		}
	}
	L.m["cluster.mutate_p50_ms"], L.m["cluster.mutate_p99_ms"] = percentile(mutate, 0.5), percentile(mutate, 0.99)
	L.m["cluster.query_p50_ms"] = percentile(query, 0.5)

	single, err := singleNodeMutations(L.tr, filepath.Join(L.cfg.dir, "single"), L.p)
	L.record(err)
	var seq []float64
	for k := 0; k < replayMuts; k++ {
		e := entry{id: -1, op: op{kind: kMutate}}
		t0 := L.tr.now()
		err := L.s.queues[0].submit(&e, nil, -1)
		t1 := L.tr.now()
		L.record(err)
		L.tr.add("cluster.mutate_seq", t0, t1, -1, -1, 0)
		seq = append(seq, us(t1-t0))
	}
	L.m["cluster.replicate_us"] = median(seq) - median(single)
}

// singleNodeMutations applies the mutation pattern to a dyn shard of a
// single durable (non-fsynced) server through server.DynMutate.
func singleNodeMutations(tr *tracer, dir string, p *pool) ([]float64, error) {
	defer os.RemoveAll(dir)
	st, err := persist.Open(persist.Options{Dir: dir})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	srv := server.New(server.Config{Durability: server.Durability{Store: st}})
	res, err := srv.DynCreateLocal("", p.trees[0].parents, 0, "")
	if err != nil {
		return nil, err
	}
	var took []float64
	var ids []int
	for k := 0; k < replayMuts; k++ {
		var mop uint8 = wire.OpInsert
		arg := mutationParent(p.seed, 0, uint64(k), p.n)
		if !insertStep(uint64(k)) {
			mop, arg = wire.OpDelete, ids[len(ids)-1]
			ids = ids[:len(ids)-1]
		}
		t0 := tr.now()
		r, err := srv.DynMutate(res.ID, mop, arg)
		t1 := tr.now()
		if err != nil {
			return took, err
		}
		if mop == wire.OpInsert {
			ids = append(ids, r.Vertex)
		}
		tr.add("server.dyn_mutate", t0, t1, -1, -1, 0)
		took = append(took, us(t1-t0))
	}
	return took, nil
}

// path sums the directly measured blocking steps of a median request —
// codec, the engine's batch wait and the kernel — and reports what of
// the untraced p50 at rate lo they leave unexplained.
func (L *layers) path(p50us float64) {
	m := L.m
	codec := m["wire.encode_us"] + m["wire.decode_us"]
	if L.s.w.proto == protoHTTP {
		codec = m["http.encode_us"] + m["http.decode_us"] + m["tree.from_parents_us"] + m["tree.fingerprint_us"]
	}
	var kernel, share float64
	for k := kLCA; k <= kMinCut; k++ {
		kernel += L.s.w.mix[k] * m["exec."+k.String()+"_us"]
		share += L.s.w.mix[k]
	}
	kernel /= share
	m["path.codec_us"], m["path.kernel_us"] = codec, kernel
	m["path.blocking_us"] = codec + m["engine.wait_us"] + kernel
	m["path.residual_us"] = p50us - m["path.blocking_us"]
	m["net.transport_us"] = p50us - m["server.handler_us"]
}
