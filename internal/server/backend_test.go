package server

import (
	"testing"
	"time"

	"spatialtree/internal/rng"
	"spatialtree/internal/tree"
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

// TestBackendSwitchBudget pins the admission fix: re-registering a
// known tree on a different backend creates a new pool shard, so it
// must respect MaxShards instead of riding the "already known" bypass;
// re-registering on the same backend stays free.
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
	// Budget full: switching t1 to sim would retain a third shard.
	if _, err := s.RegisterTreeBackend(t1, "sim"); err == nil {
		t.Fatal("backend switch bypassed the MaxShards budget")
	}
	// Same-backend re-registration retains nothing and stays admitted.
	if _, err := s.RegisterTree(t1); err != nil {
		t.Fatalf("same-backend re-registration refused: %v", err)
	}
	if got := s.Pool().Size(); got != 2 {
		t.Fatalf("pool size = %d, want 2", got)
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
