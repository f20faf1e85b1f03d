package server

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spatialtree/internal/engine"
	"spatialtree/internal/lca"
	"spatialtree/internal/rng"
	"spatialtree/internal/tree"
	"spatialtree/internal/wire"
)

// TestBackendPerTree pins the per-shard backend surface: registration
// picks a backend, queries route to it (observable through the cost
// metering only the sim backend produces), and /metrics reports the
// shard split.
func TestBackendPerTree(t *testing.T) {
	_, hs := newTestServer(t, Config{Scheduler: Scheduler{MaxDelay: time.Millisecond}})
	simParents := testParents(60, 1)
	natParents := testParents(61, 2)

	var reg RegisterResponse
	if err := postJSON(hs.URL, "/v1/trees", RegisterRequest{Parents: simParents, Backend: "sim"}, &reg); err != nil {
		t.Fatal(err)
	}
	if reg.Backend != "sim" {
		t.Fatalf("registered backend = %q, want sim", reg.Backend)
	}
	var natReg RegisterResponse
	if err := postJSON(hs.URL, "/v1/trees", RegisterRequest{Parents: natParents}, &natReg); err != nil {
		t.Fatal(err)
	}
	if natReg.Backend != "native" {
		t.Fatalf("default backend = %q, want native", natReg.Backend)
	}

	vals := make([]int64, 60)
	for i := range vals {
		vals[i] = int64(i)
	}
	var simResp QueryResponse
	if err := postJSON(hs.URL, "/v1/query", QueryRequest{TreeID: reg.ID, Kind: "treefix", Vals: vals}, &simResp); err != nil {
		t.Fatal(err)
	}
	if simResp.Cost.Messages == 0 {
		t.Fatal("sim-backend shard served without model cost")
	}
	// Ad-hoc traffic of a registered structure joins the registered
	// shard instead of getting one on the default backend.
	var adhocResp QueryResponse
	if err := postJSON(hs.URL, "/v1/query", QueryRequest{Parents: simParents, Kind: "treefix", Vals: vals}, &adhocResp); err != nil {
		t.Fatal(err)
	}
	if adhocResp.Cost.Messages == 0 {
		t.Fatal("ad-hoc query of a sim-registered structure served off its shard")
	}
	natVals := make([]int64, 61)
	var natResp QueryResponse
	if err := postJSON(hs.URL, "/v1/query", QueryRequest{TreeID: natReg.ID, Kind: "treefix", Vals: natVals}, &natResp); err != nil {
		t.Fatal(err)
	}
	if natResp.Cost.Messages != 0 {
		t.Fatal("native shard reported model cost")
	}

	m := getMetrics(t, hs.URL)
	if m.Backends.Default != "native" {
		t.Fatalf("metrics default backend = %q", m.Backends.Default)
	}
	if m.Backends.Shards["sim"] != 1 || m.Backends.Shards["native"] != 1 {
		t.Fatalf("metrics shard split = %v", m.Backends.Shards)
	}

	// Unknown backends are rejected before any shard state is created.
	if err := postJSON(hs.URL, "/v1/trees", RegisterRequest{Parents: simParents, Backend: "warp"}, nil); err == nil {
		t.Fatal("unknown register backend accepted")
	}
	if err := postJSON(hs.URL, "/v1/dyn", DynCreateRequest{Parents: simParents, Backend: "warp"}, nil); err == nil {
		t.Fatal("unknown dyn backend accepted")
	}
}

// TestBackendSwitchBudget pins the budget contract of a backend switch:
// re-registering a known tree on the other backend switches its one
// pool shard in place, so at a full MaxShards budget it succeeds and
// retains nothing, while a new tree is still refused.
func TestBackendSwitchBudget(t *testing.T) {
	s, _ := newTestServer(t, Config{Scheduler: Scheduler{MaxDelay: time.Millisecond}, Limits: Limits{MaxShards: 2}})
	t1 := tree.RandomAttachment(30, rng.New(1))
	t2 := tree.RandomAttachment(31, rng.New(2))
	if _, err := s.RegisterTree(t1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterTree(t2); err != nil {
		t.Fatal(err)
	}
	// Budget full: switching t1 to sim and back retains nothing.
	if _, err := s.registerTree(t1, engine.Fingerprint(t1), true, "sim"); err != nil {
		t.Fatalf("backend switch at a full budget refused: %v", err)
	}
	if got := s.Metrics().Backends.Shards; got["sim"] != 1 || got["native"] != 1 {
		t.Fatalf("shard split after the switch = %v, want one sim and one native", got)
	}
	if _, err := s.RegisterTree(t1); err != nil {
		t.Fatalf("re-registration on the default backend refused: %v", err)
	}
	if got := s.Pool().Size(); got != 2 {
		t.Fatalf("pool size = %d, want 2", got)
	}
	if _, err := s.RegisterTree(tree.RandomAttachment(32, rng.New(3))); !errors.Is(err, errShardLimit) {
		t.Fatalf("third tree at a full budget: err %v, want errShardLimit", err)
	}
}

// TestBackendSwitchUnderLoad re-registers a tree 20 times, alternating
// sim and native, while 8 goroutines each send it 200 LCA queries
// through serveQuery. Every answer must be right, /metrics must count
// every request exactly once, and the tree must keep one pool shard.
func TestBackendSwitchUnderLoad(t *testing.T) {
	const (
		clients  = 8
		perConn  = 200
		switches = 20
	)
	s := New(Config{})
	tr := tree.RandomAttachment(120, rng.New(7))
	oracle := lca.NewOracle(tr)
	id, err := s.RegisterTree(tr)
	if err != nil {
		t.Fatal(err)
	}
	before := s.Metrics().Scheduler.Requests

	var served atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, clients+1)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rng.New(uint64(100 + c))
			var res wire.Result
			scratch := &wireScratch{}
			for i := 0; i < perConn; i++ {
				u, v := r.Intn(tr.N()), r.Intn(tr.N())
				q := wire.Query{Kind: wire.KindLCA, TreeID: id, Queries: []wire.LCAQuery{{U: u, V: v}}}
				if err := s.serveQuery(&q, &res, scratch); err != nil {
					errs <- err
					return
				}
				if len(res.Answers) != 1 || res.Answers[0] != oracle.LCA(u, v) {
					errs <- fmt.Errorf("client %d query %d: lca(%d,%d) = %v, want %d", c, i, u, v, res.Answers, oracle.LCA(u, v))
					return
				}
				served.Add(1)
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 1; k <= switches; k++ {
			// Spread the switches over the load: the k-th waits for
			// k/(switches+1) of the queries.
			for served.Load() < int64(k*clients*perConn/(switches+1)) && len(errs) == 0 {
				time.Sleep(50 * time.Microsecond)
			}
			backend := "sim"
			if k%2 == 0 {
				backend = "native"
			}
			if _, err := s.registerTree(tr, engine.Fingerprint(tr), true, backend); err != nil {
				errs <- err
				return
			}
			if got := s.Pool().Size(); got != 1 {
				errs <- fmt.Errorf("pool size %d after switch %d, want 1", got, k)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := s.Metrics().Scheduler.Requests - before; got != clients*perConn {
		t.Fatalf("/metrics counted %d requests, want %d", got, clients*perConn)
	}
	if got := s.Pool().Size(); got != 1 {
		t.Fatalf("pool size = %d, want 1", got)
	}
}

// TestBackendDynShard pins dyn shard backend selection end to end:
// create on sim, mutate, query — model cost flows; a default (native)
// shard stays unmetered.
func TestBackendDynShard(t *testing.T) {
	_, hs := newTestServer(t, Config{Scheduler: Scheduler{MaxDelay: time.Millisecond}})
	parents := testParents(40, 3)

	var sim DynCreateResponse
	if err := postJSON(hs.URL, "/v1/dyn", DynCreateRequest{Parents: parents, Backend: "sim"}, &sim); err != nil {
		t.Fatal(err)
	}
	if sim.Backend != "sim" {
		t.Fatalf("dyn backend = %q, want sim", sim.Backend)
	}
	var mut MutateResponse
	if err := postJSON(hs.URL, "/v1/dyn/"+sim.ID+"/mutate", MutateRequest{Op: "insert", Parent: 0}, &mut); err != nil {
		t.Fatal(err)
	}
	vals := make([]int64, mut.N)
	var resp QueryResponse
	if err := postJSON(hs.URL, "/v1/dyn/"+sim.ID+"/query", QueryRequest{Kind: "treefix", Vals: vals}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Cost.Messages == 0 {
		t.Fatal("sim dyn shard served without model cost")
	}

	var nat DynCreateResponse
	if err := postJSON(hs.URL, "/v1/dyn", DynCreateRequest{Parents: parents}, &nat); err != nil {
		t.Fatal(err)
	}
	if nat.Backend != "native" {
		t.Fatalf("default dyn backend = %q", nat.Backend)
	}
	if err := postJSON(hs.URL, "/v1/dyn/"+nat.ID+"/query", QueryRequest{Kind: "treefix", Vals: make([]int64, 40)}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Cost.Messages != 0 {
		t.Fatal("native dyn shard reported model cost")
	}
	m := getMetrics(t, hs.URL)
	if m.Backends.Shards["sim"] != 1 || m.Backends.Shards["native"] != 1 {
		t.Fatalf("metrics shard split = %v", m.Backends.Shards)
	}
}
