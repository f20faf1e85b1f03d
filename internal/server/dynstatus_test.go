package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"testing"
	"time"

	"spatialtree/internal/persist"
	"spatialtree/internal/treefix"
	"spatialtree/internal/wire"
)

func getJSON(base, path string, out any) error {
	resp, err := http.Get(base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return fmt.Errorf("status %d: %s", resp.StatusCode, e.Error)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// jsonKeys returns the sorted top-level keys of the JSON object at path.
func jsonKeys(t *testing.T, base, path string) []string {
	t.Helper()
	var obj map[string]json.RawMessage
	if err := getJSON(base, path, &obj); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// TestDynStatusSurface pins GET /v1/dyn/{id} and the /metrics blocks:
// shard status answers exactly its size, epoch and layout
// configuration, follows mutations, and 404s unknown ids.
func TestDynStatusSurface(t *testing.T) {
	_, hs := newTestServer(t, Config{Scheduler: Scheduler{MaxDelay: time.Millisecond}})
	var dc DynCreateResponse
	if err := postJSON(hs.URL, "/v1/dyn", DynCreateRequest{Parents: testParents(20, 5)}, &dc); err != nil {
		t.Fatal(err)
	}
	var st DynStatusResponse
	if err := getJSON(hs.URL, "/v1/dyn/"+dc.ID, &st); err != nil {
		t.Fatal(err)
	}
	want := DynStatusResponse{ID: dc.ID, N: 20, Epoch: 0, Backend: "native", Curve: "hilbert", Epsilon: 0.2}
	if st != want {
		t.Fatalf("status = %+v, want %+v", st, want)
	}
	if got, want := jsonKeys(t, hs.URL, "/v1/dyn/"+dc.ID), []string{"backend", "curve", "epoch", "epsilon", "n", "shard_id"}; !slices.Equal(got, want) {
		t.Fatalf("status keys = %v, want %v", got, want)
	}

	if err := postJSON(hs.URL, "/v1/dyn/"+dc.ID+"/mutate", MutateRequest{Op: "insert", Parent: 0}, nil); err != nil {
		t.Fatal(err)
	}
	if err := getJSON(hs.URL, "/v1/dyn/"+dc.ID, &st); err != nil {
		t.Fatal(err)
	}
	if st.N != 21 || st.Epoch != 1 || st.Curve != "hilbert" || st.Epsilon != 0.2 {
		t.Fatalf("status after one insert = %+v", st)
	}
	if err := getJSON(hs.URL, "/v1/dyn/nope", &st); err == nil {
		t.Fatal("status for unknown shard succeeded")
	}

	got := jsonKeys(t, hs.URL, "/metrics")
	want2 := []string{"backends", "cache", "dyn", "engine", "scheduler", "server"}
	if !slices.Equal(got, want2) {
		t.Fatalf("/metrics keys = %v, want %v", got, want2)
	}
	if m := getMetrics(t, hs.URL); m.Dyn.Shards != 1 || m.Dyn.Epoch != 1 || m.Dyn.Inserts != 1 {
		t.Fatalf("/metrics dyn = %+v", m.Dyn)
	}
}

// TestDynRecoverKeepsLayoutConfig: curve and ε are durable shard state,
// so a shard created on a non-default curve and ε recovers on them even
// when the restarted server's defaults differ, and serves the same
// answers from the replayed WAL.
func TestDynRecoverKeepsLayoutConfig(t *testing.T) {
	dir := t.TempDir()
	store := openTestStore(t, dir, persist.Options{})
	s, hs := newTestServer(t, Config{
		Durability: Durability{Store: store},
		Scheduler:  Scheduler{MaxDelay: time.Millisecond},
		Curve:      "zorder",
		Backend:    "sim",
	})
	var dc DynCreateResponse
	if err := postJSON(hs.URL, "/v1/dyn", DynCreateRequest{Parents: testParents(80, 3), Epsilon: 0.35}, &dc); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := postJSON(hs.URL, "/v1/dyn/"+dc.ID+"/mutate", MutateRequest{Op: "insert", Parent: i}, nil); err != nil {
			t.Fatal(err)
		}
	}
	vals := make([]int64, 92)
	for i := range vals {
		vals[i] = int64(i%5) - 2
	}
	query := QueryRequest{Kind: "treefix", Vals: vals}
	var want QueryResponse
	if err := postJSON(hs.URL, "/v1/dyn/"+dc.ID+"/query", query, &want); err != nil {
		t.Fatal(err)
	}
	var st1 DynStatusResponse
	if err := getJSON(hs.URL, "/v1/dyn/"+dc.ID, &st1); err != nil {
		t.Fatal(err)
	}
	if st1.Curve != "zorder" || st1.Epsilon != 0.35 || st1.Epoch != 12 {
		t.Fatalf("status before restart = %+v", st1)
	}

	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	hs.Close()
	store.Close()
	s2, hs2 := newTestServer(t, Config{
		Durability: Durability{Store: openTestStore(t, dir, persist.Options{})},
		Scheduler:  Scheduler{MaxDelay: time.Millisecond},
	})
	if _, err := s2.Recover(); err != nil {
		t.Fatal(err)
	}
	var st2 DynStatusResponse
	if err := getJSON(hs2.URL, "/v1/dyn/"+dc.ID, &st2); err != nil {
		t.Fatal(err)
	}
	if st2.Curve != "zorder" || st2.Epsilon != 0.35 || st2.Epoch != 12 || st2.N != 92 {
		t.Fatalf("recovered status = %+v, want curve zorder, epsilon 0.35, epoch 12, n 92", st2)
	}
	if st2.Backend != "native" {
		t.Fatalf("recovered backend = %q, want the restarted server's default", st2.Backend)
	}
	var got QueryResponse
	if err := postJSON(hs2.URL, "/v1/dyn/"+dc.ID+"/query", query, &got); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Sums, want.Sums) {
		t.Fatal("recovered shard answers differ from the pre-restart ones")
	}
}

// TestDynShardHandoffSurface pins the server surface the cluster tier
// moves shards through: DynShardIDs/DynShard see a served shard,
// ReleaseDynShard removes it, its WAL travelling with the engine, and
// AdoptDynShard serves it elsewhere, journaling into that log, and
// refuses a second adoption.
func TestDynShardHandoffSurface(t *testing.T) {
	cfg := Config{Scheduler: Scheduler{MaxDelay: time.Millisecond}, Backend: "sim"}
	durable := cfg
	durable.Durability = Durability{Store: openTestStore(t, t.TempDir(), persist.Options{})}
	s1, _ := newTestServer(t, durable)
	created, err := s1.DynCreateLocal("", testParents(60, 4), 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if ids := s1.DynShardIDs(); len(ids) != 1 || ids[0] != created.ID {
		t.Fatalf("DynShardIDs = %v", ids)
	}
	if _, ok := s1.DynShard(created.ID); !ok {
		t.Fatal("DynShard missed a served shard")
	}

	de, ok := s1.ReleaseDynShard(created.ID)
	if !ok || de == nil || de.Journal() == nil {
		t.Fatalf("ReleaseDynShard = %v, %v; want the engine and its WAL", de, ok)
	}
	log := de.Journal()
	if _, ok := s1.DynShard(created.ID); ok || len(s1.DynShardIDs()) != 0 {
		t.Fatal("released shard still served")
	}
	if _, ok := s1.ReleaseDynShard(created.ID); ok {
		t.Fatal("second release found the shard")
	}

	s2, _ := newTestServer(t, cfg)
	if opts := s2.EngineOptions(); opts.Backend != "sim" {
		t.Fatalf("EngineOptions backend = %q, want the configured sim", opts.Backend)
	}
	if err := s2.AdoptDynShard(created.ID, de); err != nil {
		t.Fatal(err)
	}
	if err := s2.AdoptDynShard(created.ID, de); err == nil {
		t.Fatal("double adoption not refused")
	}
	if served, ok := s2.DynShard(created.ID); !ok || served.Journal() != log {
		t.Fatal("adopted shard lost its WAL")
	}
	res, err := s2.DynMutate(created.ID, wire.OpInsert, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 1 || log.LastEpoch() != 1 {
		t.Fatalf("mutation after adoption: epoch %d, WAL at %d; want both 1", res.Epoch, log.LastEpoch())
	}
	vals := make([]int64, de.N())
	if r := de.SubmitTreefix(vals, treefix.Add).Wait(); r.Err != nil {
		t.Fatal(r.Err)
	}
}

// TestDynMutateErrorClassUnderConcurrency: a mutation's status follows
// its error's type, not the epoch around it. One goroutine inserts
// while another keeps deleting the root; every delete must answer 400,
// however the inserts interleave, and every insert must apply.
func TestDynMutateErrorClassUnderConcurrency(t *testing.T) {
	s := New(Config{})
	created, err := s.DynCreateLocal("", testParents(64, 5), 0, "")
	if err != nil {
		t.Fatal(err)
	}
	const deletes = 5000
	done := make(chan struct{})
	inserted := make(chan int, 1)
	go func() {
		n := 0
		defer func() { inserted <- n }()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := s.DynMutate(created.ID, wire.OpInsert, n%64); err != nil {
				t.Errorf("insert %d: %v", n, err)
				return
			}
			n++
		}
	}()
	wrong := 0
	for i := 0; i < deletes; i++ {
		_, err := s.DynMutate(created.ID, wire.OpDelete, 0)
		if st := Classify(err); st != StatusBadRequest {
			if wrong == 0 {
				t.Errorf("delete of the root answered %v (%v), want %v", st, err, StatusBadRequest)
			}
			wrong++
		}
	}
	close(done)
	n := <-inserted
	if wrong != 0 {
		t.Errorf("%d of %d root deletes answered other than %v beside %d inserts", wrong, deletes, StatusBadRequest, n)
	}
	if de, _ := s.DynShard(created.ID); de.Epoch() != uint64(n) {
		t.Fatalf("epoch %d after %d inserts", de.Epoch(), n)
	}
}
