package server

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
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
// answers — with zero rebuilt layouts and the dyn WAL replayed. It runs
// on both default backends: a sim default serves the registered trees'
// placements from the seeded layout cache, and a native default never
// looks one up.
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

	// Nothing ran the layout pipeline. On sim the registered trees'
	// placements came from the seeded cache, so the recovery
	// registrations hit; a native registration takes no placement and
	// makes no lookup.
	if m.Cache.Builds != 0 {
		t.Fatalf("warm start rebuilt %d layouts; want 0 (cache-seeded)", m.Cache.Builds)
	}
	if backend == exec.Sim && m.Cache.Hits < 2 {
		t.Fatalf("warm start cache hits = %d, want >= 2 (one per registered tree)", m.Cache.Hits)
	}
	if backend == exec.Native && m.Cache.Hits+m.Cache.Misses != 0 {
		t.Fatalf("native warm start made %d cache hits and %d misses, want none", m.Cache.Hits, m.Cache.Misses)
	}

	// Same ids answer identically.
	var lcaAfter QueryResponse
	if err := postJSON(hs2.URL, "/v1/query", lcaReq, &lcaAfter); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lcaAfter.Answers, lcaBefore.Answers) {
		t.Fatalf("registered-tree answers changed: %v vs %v", lcaAfter.Answers, lcaBefore.Answers)
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
