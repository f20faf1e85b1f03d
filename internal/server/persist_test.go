package server

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"spatialtree/internal/engine"
	"spatialtree/internal/exec"
	"spatialtree/internal/persist"
	"spatialtree/internal/tree"
	"spatialtree/internal/wire"
)

func openTestStore(t *testing.T, dir string, opts persist.Options) *persist.Store {
	t.Helper()
	opts.Dir = dir
	st, err := persist.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestRestartDurability is the end-to-end warm-start test: a server
// with registered trees and mutated dyn shards is drained and replaced
// by a fresh server on the same data dir, which must recover the full
// shard table — same ids, same /metrics shard counts, same query
// answers and per-request costs — with the dyn WAL replayed. It runs on
// both default backends. The snapshots hold only the trees, so a sim
// default builds each registered tree's placement once, as a fresh
// registration does, and a native default never looks one up.
func TestRestartDurability(t *testing.T) {
	for _, backend := range []string{exec.Native, exec.Sim} {
		t.Run(backend, func(t *testing.T) { testRestartDurability(t, backend) })
	}
}

func testRestartDurability(t *testing.T, backend string) {
	dir := t.TempDir()
	store := openTestStore(t, dir, persist.Options{})
	s1, hs1 := newTestServer(t, Config{Backend: backend, Durability: Durability{Store: store}, Scheduler: Scheduler{MaxDelay: time.Millisecond}})

	// Two registered trees.
	parentsA := testParents(300, 1)
	parentsB := testParents(150, 2)
	var regA, regB RegisterResponse
	if err := postJSON(hs1.URL, "/v1/trees", RegisterRequest{Parents: parentsA}, &regA); err != nil {
		t.Fatal(err)
	}
	if err := postJSON(hs1.URL, "/v1/trees", RegisterRequest{Parents: parentsB}, &regB); err != nil {
		t.Fatal(err)
	}

	// Two dyn shards; mutate both, enough to cross a dynlayout rebuild.
	var dynA, dynB DynCreateResponse
	if err := postJSON(hs1.URL, "/v1/dyn", DynCreateRequest{Parents: testParents(80, 3)}, &dynA); err != nil {
		t.Fatal(err)
	}
	if err := postJSON(hs1.URL, "/v1/dyn", DynCreateRequest{Parents: testParents(60, 4), Epsilon: 0.1}, &dynB); err != nil {
		t.Fatal(err)
	}
	var lastInserted int
	for i := 0; i < 30; i++ {
		var mr MutateResponse
		if err := postJSON(hs1.URL, "/v1/dyn/"+dynA.ID+"/mutate", MutateRequest{Op: "insert", Parent: i % 80}, &mr); err != nil {
			t.Fatal(err)
		}
		lastInserted = mr.Vertex
		if i%3 == 2 {
			if err := postJSON(hs1.URL, "/v1/dyn/"+dynA.ID+"/mutate", MutateRequest{Op: "delete", Leaf: lastInserted}, &mr); err != nil {
				t.Fatal(err)
			}
		}
		if err := postJSON(hs1.URL, "/v1/dyn/"+dynB.ID+"/mutate", MutateRequest{Op: "insert", Parent: i % 60}, nil); err != nil {
			t.Fatal(err)
		}
	}

	// Record pre-restart answers.
	lcaReq := QueryRequest{Kind: "lca", Queries: []LCAQuery{{U: 3, V: 141}, {U: 17, V: 89}, {U: 0, V: 55}}}
	lcaReq.TreeID = regA.ID
	var lcaBefore QueryResponse
	if err := postJSON(hs1.URL, "/v1/query", lcaReq, &lcaBefore); err != nil {
		t.Fatal(err)
	}
	dynQ := QueryRequest{Kind: "lca", Queries: []LCAQuery{{U: 1, V: 42}, {U: 7, V: 33}}}
	var dynBefore QueryResponse
	if err := postJSON(hs1.URL, "/v1/dyn/"+dynA.ID+"/query", dynQ, &dynBefore); err != nil {
		t.Fatal(err)
	}
	mBefore := getMetrics(t, hs1.URL)
	if mBefore.Persist == nil || !mBefore.Persist.Enabled || mBefore.Persist.JournalRecords == 0 {
		t.Fatalf("persist metrics before restart: %+v", mBefore.Persist)
	}

	// Stop the first server: drain, then close the store (the daemon's
	// shutdown sequence).
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	hs1.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Second server, same data dir.
	store2 := openTestStore(t, dir, persist.Options{})
	s2, hs2 := newTestServer(t, Config{Backend: backend, Durability: Durability{Store: store2}, Scheduler: Scheduler{MaxDelay: time.Millisecond}})
	rs, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Trees != 2 || rs.DynShards != 2 || rs.Records == 0 {
		t.Fatalf("RecoveryStats = %+v", rs)
	}

	// Shard counts survive the restart.
	m := getMetrics(t, hs2.URL)
	if m.Server.Trees != 2 || m.Server.DynShards != 2 {
		t.Fatalf("post-restart metrics: trees=%d dyn=%d", m.Server.Trees, m.Server.DynShards)
	}
	if m.Persist == nil || m.Persist.RecoveredTrees != 2 || m.Persist.RecoveredShards != 2 || m.Persist.ReplayedRecords != rs.Records {
		t.Fatalf("post-restart persist metrics: %+v", m.Persist)
	}

	// A sim registration recovered from disk builds its placement as a
	// fresh one does, once per registered tree; a native registration
	// takes no placement and makes no lookup.
	if backend == exec.Sim && (m.Cache.Builds != 2 || m.Cache.Misses != 2 || m.Cache.Hits != 0) {
		t.Fatalf("sim warm start cache = %+v, want 2 misses and 2 builds (one per registered tree)", m.Cache)
	}
	if backend == exec.Native && m.Cache.Hits+m.Cache.Misses+m.Cache.Builds != 0 {
		t.Fatalf("native warm start cache = %+v, want no traffic", m.Cache)
	}

	// Same ids answer identically.
	var lcaAfter QueryResponse
	if err := postJSON(hs2.URL, "/v1/query", lcaReq, &lcaAfter); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lcaAfter.Answers, lcaBefore.Answers) {
		t.Fatalf("registered-tree answers changed: %v vs %v", lcaAfter.Answers, lcaBefore.Answers)
	}
	if lcaAfter.Cost != lcaBefore.Cost {
		t.Fatalf("registered-tree cost changed: %+v vs %+v", lcaAfter.Cost, lcaBefore.Cost)
	}
	if backend == exec.Sim && lcaAfter.Cost.Energy == 0 {
		t.Fatal("sim registered-tree query reported no cost")
	}
	if served := getMetrics(t, hs2.URL); served.Cache != m.Cache {
		t.Fatalf("serving a recovered tree touched the layout cache: %+v after %+v", served.Cache, m.Cache)
	}
	var dynAfter QueryResponse
	if err := postJSON(hs2.URL, "/v1/dyn/"+dynA.ID+"/query", dynQ, &dynAfter); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dynAfter.Answers, dynBefore.Answers) {
		t.Fatalf("dyn shard answers changed: %v vs %v", dynAfter.Answers, dynBefore.Answers)
	}

	// The recovered server keeps journaling: a fresh mutation lands in
	// the same log and a fresh shard gets an id after the recovered
	// ones, not a colliding one.
	var mr MutateResponse
	if err := postJSON(hs2.URL, "/v1/dyn/"+dynA.ID+"/mutate", MutateRequest{Op: "insert", Parent: 0}, &mr); err != nil {
		t.Fatal(err)
	}
	var dynC DynCreateResponse
	if err := postJSON(hs2.URL, "/v1/dyn", DynCreateRequest{Parents: testParents(20, 5)}, &dynC); err != nil {
		t.Fatal(err)
	}
	if dynC.ID == dynA.ID || dynC.ID == dynB.ID {
		t.Fatalf("recovered server reissued shard id %s", dynC.ID)
	}
}

// TestRegisterWithStoreBuildsNoLayout: a registered tree persists as
// its parents only, so a native server with a store registers a tree
// without a layout-cache lookup or build.
func TestRegisterWithStoreBuildsNoLayout(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Backend: exec.Native, Durability: Durability{Store: openTestStore(t, dir, persist.Options{})}})
	parents := testParents(500, 21)
	id, err := s.RegisterTree(tree.MustFromParents(parents))
	if err != nil {
		t.Fatal(err)
	}
	if c := s.Metrics().Cache; c.Hits+c.Misses+c.Builds != 0 {
		t.Fatalf("native registration with a store: cache %+v, want no traffic", c)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "trees", id+".snap"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(raw, persist.EncodeTree(parents)) {
		t.Fatal("the saved snapshot is not the tree's parents-only frame")
	}
}

// TestRecoverPlacementSnapshot: a data dir written before trees were
// saved parents-only holds each registered tree as a placement
// snapshot. It must still recover, drop the placement, and serve what a
// fresh registration serves: the same answers on either backend, and on
// sim the same per-request costs, because the recovered shard builds
// its own placement.
func TestRecoverPlacementSnapshot(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", "persist", "placement.v1.snap"))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := persist.DecodePlacement(raw)
	if err != nil {
		t.Fatal(err)
	}
	id := treeID(engine.Fingerprint(tree.MustFromParents(snap.Parents)))
	queries := []QueryRequest{
		{TreeID: id, Kind: "lca", Queries: []LCAQuery{{U: 7, V: 4}, {U: 5, V: 6}, {U: 3, V: 2}}},
		{TreeID: id, Kind: "treefix", Vals: []int64{1, 2, 3, 4, 5, 6, 7, 8}},
	}
	for _, backend := range []string{exec.Native, exec.Sim} {
		t.Run(backend, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.MkdirAll(filepath.Join(dir, "trees"), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "trees", id+".snap"), raw, 0o644); err != nil {
				t.Fatal(err)
			}
			recovered, hsR := newTestServer(t, Config{Backend: backend, Durability: Durability{Store: openTestStore(t, dir, persist.Options{})}})
			if rs, err := recovered.Recover(); err != nil || rs.Trees != 1 {
				t.Fatalf("Recover = %+v, %v", rs, err)
			}
			_, hsF := newTestServer(t, Config{Backend: backend})
			var reg RegisterResponse
			if err := postJSON(hsF.URL, "/v1/trees", RegisterRequest{Parents: snap.Parents}, &reg); err != nil {
				t.Fatal(err)
			}
			if reg.ID != id {
				t.Fatalf("fresh registration got id %s, recovered %s", reg.ID, id)
			}
			for _, q := range queries {
				var got, want QueryResponse
				if err := postJSON(hsR.URL, "/v1/query", q, &got); err != nil {
					t.Fatal(err)
				}
				if err := postJSON(hsF.URL, "/v1/query", q, &want); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: recovered tree serves %+v, fresh registration %+v", q.Kind, got, want)
				}
				if backend == exec.Sim && got.Cost.Energy == 0 {
					t.Fatalf("%s: sim query reported no cost", q.Kind)
				}
			}
		})
	}
}

// TestRestartCompaction exercises the WAL-compaction path end to end: a
// low CompactAfter forces snapshots mid-traffic, and a restart must
// replay only the records past the newest snapshot.
func TestRestartCompaction(t *testing.T) {
	dir := t.TempDir()
	store := openTestStore(t, dir, persist.Options{CompactAfter: 8})
	s1, hs1 := newTestServer(t, Config{Durability: Durability{Store: store}, Scheduler: Scheduler{MaxDelay: time.Millisecond}})
	var dyn DynCreateResponse
	if err := postJSON(hs1.URL, "/v1/dyn", DynCreateRequest{Parents: testParents(40, 9)}, &dyn); err != nil {
		t.Fatal(err)
	}
	const muts = 50
	for i := 0; i < muts; i++ {
		if err := postJSON(hs1.URL, "/v1/dyn/"+dyn.ID+"/mutate", MutateRequest{Op: "insert", Parent: i % 40}, nil); err != nil {
			t.Fatal(err)
		}
	}
	m := getMetrics(t, hs1.URL)
	if m.Persist.Compactions == 0 {
		t.Fatalf("expected compactions at CompactAfter=8 with %d mutations", muts)
	}
	if m.Persist.WALRecords >= muts {
		t.Fatalf("WAL holds %d records; compaction should have folded most of %d", m.Persist.WALRecords, muts)
	}
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	hs1.Close()
	store.Close()

	store2 := openTestStore(t, dir, persist.Options{CompactAfter: 8})
	s2, hs2 := newTestServer(t, Config{Durability: Durability{Store: store2}, Scheduler: Scheduler{MaxDelay: time.Millisecond}})
	rs, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rs.DynShards != 1 {
		t.Fatalf("RecoveryStats = %+v", rs)
	}
	if rs.Records >= muts {
		t.Fatalf("restart replayed %d records; compaction should have bounded replay below %d", rs.Records, muts)
	}
	var resp QueryResponse
	q := QueryRequest{Kind: "treefix", Vals: make([]int64, 40+muts)}
	for i := range q.Vals {
		q.Vals[i] = 1
	}
	if err := postJSON(hs2.URL, "/v1/dyn/"+dyn.ID+"/query", q, &resp); err != nil {
		t.Fatal(err)
	}
	// Subtree-size treefix at the root equals the mutated vertex count.
	rt := tree.MustFromParents(testParents(40, 9))
	if got := resp.Sums[rt.Root()]; got != int64(40+muts) {
		t.Fatalf("root subtree sum %d, want %d", got, 40+muts)
	}
}

// TestRecoverRejectsDivergedWAL: recovery replays through
// DynEngine.ApplyRecord, so a WAL record whose result the replay does
// not reproduce fails the boot with ErrReplicaDiverged instead of
// serving a shard that no longer matches its log.
func TestRecoverRejectsDivergedWAL(t *testing.T) {
	dir := t.TempDir()
	store := openTestStore(t, dir, persist.Options{})
	s1 := New(Config{Durability: Durability{Store: store}})
	created, err := s1.DynCreateLocal("", testParents(20, 11), 0, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s1.DynMutate(created.ID, wire.OpInsert, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// The next insert would create vertex 23; the log claims 24.
	store2 := openTestStore(t, dir, persist.Options{})
	log, _, _, err := store2.OpenShardLog(created.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Append(persist.Record{Type: persist.RecInsert, Epoch: log.LastEpoch() + 1, Arg: 0, Result: 24}); err != nil {
		t.Fatal(err)
	}
	if err := store2.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := New(Config{Durability: Durability{Store: openTestStore(t, dir, persist.Options{})}})
	if _, err := s2.Recover(); !errors.Is(err, engine.ErrReplicaDiverged) {
		t.Fatalf("Recover = %v, want ErrReplicaDiverged", err)
	}
}

// TestDynCreateFailureRetainsNothing: a create whose WAL cannot be
// created must spend no shard budget. The store already holds a
// directory for the first id the server assigns, so that create fails;
// with MaxShards 1 the next one must still succeed.
func TestDynCreateFailureRetainsNothing(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "dyn", "d1"), 0o755); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Durability: Durability{Store: openTestStore(t, dir, persist.Options{})}, Limits: Limits{MaxShards: 1}})
	parents := testParents(40, 9)
	if _, err := s.DynCreateLocal("", parents, 0, ""); err == nil {
		t.Fatal("create over an existing shard directory succeeded")
	}
	res, err := s.DynCreateLocal("", parents, 0, "")
	if err != nil {
		t.Fatalf("create after a failed one: %v", err)
	}
	if res.ID != "d2" {
		t.Fatalf("second create got id %s, want d2", res.ID)
	}
	if m := s.Metrics(); m.Server.DynShards != 1 {
		t.Fatalf("dyn shards = %d, want 1", m.Server.DynShards)
	}
}

// TestDynCreateEpsilonBound: an epsilon the snapshot codec refuses is a
// bad request over JSON (above the bound) and over the binary protocol
// (NaN or +Inf float bits), leaves nothing on disk for the next boot's
// recovery to trip over, and is reported before a full shard budget.
func TestDynCreateEpsilonBound(t *testing.T) {
	store := openTestStore(t, t.TempDir(), persist.Options{})
	s, hs := newTestServer(t, Config{Durability: Durability{Store: store}, Limits: Limits{MaxShards: 1}})
	parents := testParents(40, 9)
	tooBig := DynCreateRequest{Parents: parents, Epsilon: 10 * persist.MaxEpsilon}
	if err := postJSON(hs.URL, "/v1/dyn", tooBig, nil); err == nil || !strings.Contains(err.Error(), "status 400") {
		t.Fatalf("JSON create with epsilon %v = %v, want 400", tooBig.Epsilon, err)
	}
	cl := newWireServer(t, s)
	for _, eps := range []float64{math.NaN(), math.Inf(1)} {
		_, err := cl.DynCreate(&wire.DynCreate{Parents: parents, Epsilon: eps})
		var we *wire.Error
		if !errors.As(err, &we) || we.Status != wire.StatusBadRequest {
			t.Fatalf("binary create with epsilon %v = %v, want StatusBadRequest", eps, err)
		}
	}
	ids, err := store.ShardIDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Fatalf("refused creates persisted shards %v", ids)
	}
	if err := postJSON(hs.URL, "/v1/dyn", DynCreateRequest{Parents: parents}, nil); err != nil {
		t.Fatal(err)
	}
	if err := postJSON(hs.URL, "/v1/dyn", tooBig, nil); err == nil || !strings.Contains(err.Error(), "status 400") {
		t.Fatalf("JSON create with epsilon %v on a full server = %v, want 400", tooBig.Epsilon, err)
	}
}
