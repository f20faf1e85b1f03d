package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"spatialtree/internal/lca"
	"spatialtree/internal/rng"
	"spatialtree/internal/tree"
	"spatialtree/internal/treefix"
	"spatialtree/internal/wire"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs
}

// postJSON posts body and decodes a 200 response into out (which may be
// nil); any other status is returned as an error carrying the code.
func postJSON(base, path string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return fmt.Errorf("status %d: %s", resp.StatusCode, e.Error)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func getMetrics(t *testing.T, base string) MetricsResponse {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

func testParents(n int, seed uint64) []int {
	return tree.RandomAttachment(n, rng.New(seed)).Parents()
}

// TestDeadlineFlush: a lone request against a huge MaxBatch must be
// served by the MaxDelay trigger, and /metrics must attribute the batch
// to the deadline.
func TestDeadlineFlush(t *testing.T) {
	_, hs := newTestServer(t, Config{Scheduler: Scheduler{MaxBatch: 1 << 20, MaxDelay: 10 * time.Millisecond}})
	parents := testParents(200, 1)
	tr := tree.MustFromParents(parents)
	vals := make([]int64, tr.N())
	for i := range vals {
		vals[i] = int64(i % 17)
	}
	var resp QueryResponse
	if err := postJSON(hs.URL, "/v1/query", QueryRequest{Parents: parents, Kind: "treefix", Vals: vals}, &resp); err != nil {
		t.Fatal(err)
	}
	want := treefix.SequentialBottomUp(tr, vals, treefix.Add)
	for v := range want {
		if resp.Sums[v] != want[v] {
			t.Fatalf("sum[%d] = %d, want %d", v, resp.Sums[v], want[v])
		}
	}
	m := getMetrics(t, hs.URL)
	if m.Scheduler.DeadlineFlushes != 1 || m.Scheduler.SizeFlushes != 0 {
		t.Fatalf("scheduler = %+v, want exactly one deadline flush", m.Scheduler)
	}
}

// TestSizeFlush: MaxBatch concurrent requests against a very long
// deadline must be dispatched by the size trigger (the test would time
// out on its Wait otherwise) into one shared run.
func TestSizeFlush(t *testing.T) {
	const batch = 4
	_, hs := newTestServer(t, Config{Scheduler: Scheduler{MaxBatch: batch, MaxDelay: time.Hour}})
	parents := testParents(150, 2)
	var wg sync.WaitGroup
	errs := make([]error, batch)
	for i := 0; i < batch; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var resp QueryResponse
			errs[i] = postJSON(hs.URL, "/v1/query", QueryRequest{
				Parents: parents,
				Kind:    "lca",
				Queries: []LCAQuery{{U: i, V: 149 - i}},
			}, &resp)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	m := getMetrics(t, hs.URL)
	if m.Scheduler.SizeFlushes != 1 || m.Scheduler.DeadlineFlushes != 0 {
		t.Fatalf("scheduler = %+v, want exactly one size flush", m.Scheduler)
	}
	if m.Scheduler.Batches != 1 || m.Scheduler.Requests != batch {
		t.Fatalf("batches=%d requests=%d, want one batch of %d", m.Scheduler.Batches, m.Scheduler.Requests, batch)
	}
	if m.Engine.LCARuns != 1 || m.Engine.LCAQueries != batch {
		t.Fatalf("lca runs=%d queries=%d, want the batch coalesced into one run", m.Engine.LCARuns, m.Engine.LCAQueries)
	}
}

// TestIdleDispatchDefault: under the zero Config nothing lingers.
// Sequential queries over the binary listener and over HTTP each find
// their shard idle, so every batch is an idle dispatch, none waits for
// a deadline, and /metrics reports no linger configured.
func TestIdleDispatchDefault(t *testing.T) {
	const perListener = 20
	s, hs := newTestServer(t, Config{})
	cl := newWireServer(t, s)
	parents := testParents(120, 3)
	oracle := lca.NewOracle(tree.MustFromParents(parents))
	var reg RegisterResponse
	if err := postJSON(hs.URL, "/v1/trees", RegisterRequest{Parents: parents}, &reg); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < perListener; i++ {
		u, v := i, 119-2*i
		res, err := cl.Do(&wire.Query{Kind: wire.KindLCA, TreeID: reg.ID, Queries: []wire.LCAQuery{{U: u, V: v}}})
		if err != nil {
			t.Fatal(err)
		}
		if want := oracle.LCA(u, v); len(res.Answers) != 1 || res.Answers[0] != want {
			t.Fatalf("binary lca(%d,%d) = %v, want [%d]", u, v, res.Answers, want)
		}
	}
	for i := 0; i < perListener; i++ {
		u, v := 2*i, 100-i
		var resp QueryResponse
		if err := postJSON(hs.URL, "/v1/query", QueryRequest{TreeID: reg.ID, Kind: "lca", Queries: []LCAQuery{{U: u, V: v}}}, &resp); err != nil {
			t.Fatal(err)
		}
		if want := oracle.LCA(u, v); len(resp.Answers) != 1 || resp.Answers[0] != want {
			t.Fatalf("http lca(%d,%d) = %v, want [%d]", u, v, resp.Answers, want)
		}
	}
	m := getMetrics(t, hs.URL).Scheduler
	if m.Requests != 2*perListener || m.MaxDelayMillis != 0 {
		t.Fatalf("scheduler = %+v, want %d requests and max_delay_ms 0", m, 2*perListener)
	}
	if m.DeadlineFlushes != 0 || m.IdleFlushes != m.Batches {
		t.Fatalf("scheduler = %+v, want every batch an idle flush and no deadline flush", m)
	}
}

// TestIdleDispatchConcurrentClients: under the zero Config, concurrent
// HTTP clients and pipelined binary connections race the hand-off on
// four shards. Every answer is right, every request is counted, and
// every batch is an idle dispatch or a MaxBatch fill — none waits for a
// deadline.
func TestIdleDispatchConcurrentClients(t *testing.T) {
	const forest, httpClients, wireConns, perConn = 4, 48, 4, 12
	s, hs := newTestServer(t, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.ServeBinary(ln) }()
	t.Cleanup(s.CloseBinary)
	ids := make([]string, forest)
	oracles := make([]*lca.Oracle, forest)
	for i := range ids {
		parents := testParents(300, 10+uint64(i))
		var reg RegisterResponse
		if err := postJSON(hs.URL, "/v1/trees", RegisterRequest{Parents: parents}, &reg); err != nil {
			t.Fatal(err)
		}
		ids[i], oracles[i] = reg.ID, lca.NewOracle(tree.MustFromParents(parents))
	}
	check := func(via string, i, u, v int, got []int) error {
		if want := oracles[i%forest].LCA(u, v); len(got) != 1 || got[0] != want {
			return fmt.Errorf("%s lca(%d,%d) on tree %d = %v, want [%d]", via, u, v, i%forest, got, want)
		}
		return nil
	}

	var wg sync.WaitGroup
	errs := make(chan error, httpClients+wireConns*perConn)
	for i := 0; i < httpClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			u, v := i%300, (i*7)%300
			var resp QueryResponse
			err := postJSON(hs.URL, "/v1/query", QueryRequest{TreeID: ids[i%forest], Kind: "lca", Queries: []LCAQuery{{U: u, V: v}}}, &resp)
			if err == nil {
				err = check("http", i, u, v, resp.Answers)
			}
			errs <- err
		}(i)
	}
	for c := 0; c < wireConns; c++ {
		cl, err := wire.Dial(ln.Addr().String(), wire.DialOptions{DialTimeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		for j := 0; j < perConn; j++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				u, v := (i*11)%300, (i*13+5)%300
				res, err := cl.Do(&wire.Query{Kind: wire.KindLCA, TreeID: ids[i%forest], Queries: []wire.LCAQuery{{U: u, V: v}}})
				if err == nil {
					err = check("binary", i, u, v, res.Answers)
				}
				errs <- err
			}(c*perConn + j)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	m := getMetrics(t, hs.URL).Scheduler
	if m.Requests != httpClients+wireConns*perConn {
		t.Fatalf("requests = %d, want %d", m.Requests, httpClients+wireConns*perConn)
	}
	if m.DeadlineFlushes != 0 || m.SizeFlushes+m.IdleFlushes != m.Batches {
		t.Fatalf("scheduler = %+v: every batch must be an idle dispatch or a MaxBatch fill", m)
	}
}

// TestBackpressure429: with QueueLimit in-flight requests already
// parked on the scheduler's deadline, further traffic must bounce with
// 429 instead of queueing without bound.
func TestBackpressure429(t *testing.T) {
	const limit = 2
	_, hs := newTestServer(t, Config{Scheduler: Scheduler{MaxBatch: 1 << 20, MaxDelay: 300 * time.Millisecond}, Limits: Limits{QueueLimit: limit}})
	parents := testParents(100, 3)

	const clients = 12
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = postJSON(hs.URL, "/v1/query", QueryRequest{
				Parents: parents,
				Kind:    "lca",
				Queries: []LCAQuery{{U: 0, V: 1}},
			}, nil)
		}(i)
	}
	wg.Wait()
	served, rejected := 0, 0
	for _, err := range errs {
		switch {
		case err == nil:
			served++
		case bytes.Contains([]byte(err.Error()), []byte("429")):
			rejected++
		default:
			t.Fatalf("unexpected failure: %v", err)
		}
	}
	if served == 0 || rejected == 0 {
		t.Fatalf("served=%d rejected=%d, want both admission and backpressure", served, rejected)
	}
	m := getMetrics(t, hs.URL)
	if m.Server.Rejected == 0 {
		t.Fatal("metrics did not count rejected requests")
	}
}

// TestDynMutationThenQuery: on a mutable shard, a mutation must be
// visible to the next query — treefix sums answer for the grown tree,
// and a delete renumbers back.
func TestDynMutationThenQuery(t *testing.T) {
	_, hs := newTestServer(t, Config{Scheduler: Scheduler{MaxBatch: 8, MaxDelay: 5 * time.Millisecond}})
	parents := testParents(80, 4)
	var created DynCreateResponse
	if err := postJSON(hs.URL, "/v1/dyn", DynCreateRequest{Parents: parents}, &created); err != nil {
		t.Fatal(err)
	}
	base := "/v1/dyn/" + created.ID

	var mut MutateResponse
	if err := postJSON(hs.URL, base+"/mutate", MutateRequest{Op: "insert", Parent: 0}, &mut); err != nil {
		t.Fatal(err)
	}
	if mut.N != 81 || mut.Vertex != 80 || mut.Epoch != 1 {
		t.Fatalf("insert response = %+v, want vertex 80 at n=81 epoch=1", mut)
	}

	vals := make([]int64, 81)
	for i := range vals {
		vals[i] = 1
	}
	var resp QueryResponse
	if err := postJSON(hs.URL, base+"/query", QueryRequest{Kind: "treefix", Vals: vals}, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Sums) != 81 {
		t.Fatalf("sums over %d vertices, want the mutated tree's 81", len(resp.Sums))
	}
	// With unit values, the root's subtree sum is the vertex count —
	// the query definitely ran against the post-mutation tree.
	grown := tree.MustFromParents(append(append([]int(nil), parents...), 0))
	if resp.Sums[grown.Root()] != 81 {
		t.Fatalf("root sum = %d, want 81", resp.Sums[grown.Root()])
	}

	if err := postJSON(hs.URL, base+"/mutate", MutateRequest{Op: "delete", Leaf: 80}, &mut); err != nil {
		t.Fatal(err)
	}
	if mut.N != 80 || mut.Epoch != 2 {
		t.Fatalf("delete response = %+v, want n=80 epoch=2", mut)
	}
	// Stale vals length must now be rejected by validation.
	if err := postJSON(hs.URL, base+"/query", QueryRequest{Kind: "treefix", Vals: vals}, nil); err == nil {
		t.Fatal("81 vals accepted against the shrunk 80-vertex tree")
	}
	// The dyn query surface validates kind exactly like /v1/query.
	err := postJSON(hs.URL, base+"/query", QueryRequest{Kind: "sort"}, nil)
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("400")) {
		t.Fatalf("unknown kind on dyn query = %v, want 400", err)
	}
}

// TestGracefulDrain: requests in flight when Drain starts must all
// resolve (no dropped futures), and traffic after the drain must be
// refused with 503. The dyn case holds its request in a linger far
// longer than Drain's budget, so Drain must flush the dyn shard rather
// than wait its deadline out, and /metrics must count the shard's batch
// once.
func TestGracefulDrain(t *testing.T) {
	t.Run("adhoc", testGracefulDrainAdhoc)
	t.Run("dyn", testGracefulDrainDyn)
}

func testGracefulDrainAdhoc(t *testing.T) {
	s, hs := newTestServer(t, Config{Scheduler: Scheduler{MaxBatch: 1 << 20, MaxDelay: 150 * time.Millisecond}})
	parents := testParents(120, 5)

	const clients = 6
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = postJSON(hs.URL, "/v1/query", QueryRequest{
				Parents: parents,
				Kind:    "lca",
				Queries: []LCAQuery{{U: i, V: i + 1}},
			}, nil)
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let the clients' requests land in the batch
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("in-flight request %d dropped during drain: %v", i, err)
		}
	}
	err := postJSON(hs.URL, "/v1/query", QueryRequest{Parents: parents, Kind: "lca", Queries: []LCAQuery{{U: 0, V: 1}}}, nil)
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("503")) {
		t.Fatalf("post-drain request = %v, want 503", err)
	}
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", resp.StatusCode)
	}
}

func testGracefulDrainDyn(t *testing.T) {
	s, hs := newTestServer(t, Config{Scheduler: Scheduler{MaxDelay: time.Hour}})
	created, err := s.DynCreateLocal("", testParents(120, 5), 0, "")
	if err != nil {
		t.Fatal(err)
	}
	de, _ := s.DynShard(created.ID)
	errc := make(chan error, 1)
	go func() {
		errc <- postJSON(hs.URL, "/v1/dyn/"+created.ID+"/query", QueryRequest{Kind: "lca", Queries: []LCAQuery{{U: 1, V: 2}}}, nil)
	}()
	for deadline := time.Now().Add(5 * time.Second); de.Pending() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the dyn query never reached the shard's batch")
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		de.Flush() // release the held request, so the listener can close
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("in-flight dyn request dropped during drain: %v", err)
	}
	if m := getMetrics(t, hs.URL); m.Scheduler.Batches != 1 || m.Scheduler.Requests != 1 {
		t.Fatalf("/metrics counted %d batches and %d requests, want 1 and 1", m.Scheduler.Batches, m.Scheduler.Requests)
	}
}

// TestConcurrentClientsCoalesce is the end-to-end acceptance check: 64+
// concurrent HTTP clients against a seeded forest must be served from
// fewer simulator runs than requests, with both scheduler triggers
// live. (Size flushes fire on the shards that fill MaxBatch; the
// stragglers' partial batches go out on the deadline.)
func TestConcurrentClientsCoalesce(t *testing.T) {
	s, hs := newTestServer(t, Config{Scheduler: Scheduler{MaxBatch: 16, MaxDelay: 50 * time.Millisecond}})

	// The seeded forest: 4 registered trees, one shard each.
	const forest = 4
	ids := make([]string, forest)
	for i := range ids {
		var reg RegisterResponse
		if err := postJSON(hs.URL, "/v1/trees", RegisterRequest{Parents: testParents(300, 10+uint64(i))}, &reg); err != nil {
			t.Fatal(err)
		}
		ids[i] = reg.ID
	}

	const clients = 72
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var resp QueryResponse
			errs[c] = postJSON(hs.URL, "/v1/query", QueryRequest{
				TreeID:  ids[c%forest],
				Kind:    "lca",
				Queries: []LCAQuery{{U: c % 300, V: (c * 7) % 300}},
			}, &resp)
			if errs[c] == nil && len(resp.Answers) != 1 {
				errs[c] = fmt.Errorf("client %d: %d answers, want 1", c, len(resp.Answers))
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	m := getMetrics(t, hs.URL)
	if m.Scheduler.Requests != clients {
		t.Fatalf("requests = %d, want %d", m.Scheduler.Requests, clients)
	}
	if m.Scheduler.Batches >= m.Scheduler.Requests {
		t.Fatalf("batches = %d for %d requests: scheduler did not coalesce", m.Scheduler.Batches, m.Scheduler.Requests)
	}
	if m.Scheduler.SizeFlushes+m.Scheduler.DeadlineFlushes != m.Scheduler.Batches {
		t.Fatalf("scheduler = %+v: every batch must be attributed to a MaxBatch or MaxDelay trigger", m.Scheduler)
	}
	if m.Engine.LCARuns >= m.Engine.LCAQueries {
		t.Fatalf("lca runs=%d queries=%d, want coalesced runs", m.Engine.LCARuns, m.Engine.LCAQueries)
	}
	if m.Server.Trees != forest {
		t.Fatalf("trees = %d, want %d", m.Server.Trees, forest)
	}
	// Same-fingerprint routing: re-registering tree 0 yields the same id.
	var reg RegisterResponse
	if err := postJSON(hs.URL, "/v1/trees", RegisterRequest{Parents: testParents(300, 10)}, &reg); err != nil {
		t.Fatal(err)
	}
	if reg.ID != ids[0] {
		t.Fatalf("re-registered tree id %q != %q: fingerprint routing broken", reg.ID, ids[0])
	}
	if got := s.Pool().Size(); got != forest {
		t.Fatalf("pool size = %d, want %d shards", got, forest)
	}
}

// TestShardBudget: retained per-tree state is bounded by MaxShards —
// registration and dyn creation beyond it bounce with 429, already
// registered trees stay servable, and ad-hoc query trees fall back to
// ephemeral engines (served fine, nothing retained, still metered).
func TestShardBudget(t *testing.T) {
	s, hs := newTestServer(t, Config{Scheduler: Scheduler{MaxDelay: 5 * time.Millisecond}, Limits: Limits{MaxShards: 2}})
	var reg RegisterResponse
	if err := postJSON(hs.URL, "/v1/trees", RegisterRequest{Parents: testParents(60, 20)}, &reg); err != nil {
		t.Fatal(err)
	}
	if err := postJSON(hs.URL, "/v1/trees", RegisterRequest{Parents: testParents(60, 21)}, nil); err != nil {
		t.Fatal(err)
	}
	err := postJSON(hs.URL, "/v1/trees", RegisterRequest{Parents: testParents(60, 22)}, nil)
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("429")) {
		t.Fatalf("third registration = %v, want 429", err)
	}
	err = postJSON(hs.URL, "/v1/dyn", DynCreateRequest{Parents: testParents(60, 23)}, nil)
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("429")) {
		t.Fatalf("dyn create over budget = %v, want 429", err)
	}
	// Re-registering a known tree retains nothing new: still 200.
	if err := postJSON(hs.URL, "/v1/trees", RegisterRequest{Parents: testParents(60, 20)}, nil); err != nil {
		t.Fatal(err)
	}
	// Ad-hoc query trees beyond the budget are served ephemerally.
	before := s.Metrics().Scheduler.Requests
	var resp QueryResponse
	if err := postJSON(hs.URL, "/v1/query", QueryRequest{
		Parents: testParents(60, 24), Kind: "lca", Queries: []LCAQuery{{U: 1, V: 2}},
	}, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("ephemeral answers = %v", resp.Answers)
	}
	if s.Pool().Size() != 2 {
		t.Fatalf("pool size = %d after over-budget traffic, want 2", s.Pool().Size())
	}
	if got := s.Metrics().Scheduler.Requests; got != before+1 {
		t.Fatalf("ephemeral request not metered: %d -> %d", before, got)
	}
}

// TestRegisterErrorBodies pins POST /v1/trees' answer, status code and
// JSON body, to an unknown backend and to a full shard budget.
func TestRegisterErrorBodies(t *testing.T) {
	_, hs := newTestServer(t, Config{Limits: Limits{MaxShards: 1}})
	if err := postJSON(hs.URL, "/v1/trees", RegisterRequest{Parents: testParents(30, 1)}, nil); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		req  RegisterRequest
		code int
		want ErrorResponse
	}{
		{"unknown backend", RegisterRequest{Parents: testParents(30, 2), Backend: "gpu"}, http.StatusBadRequest,
			ErrorResponse{Error: `unknown backend "gpu" (want "native" or "sim")`, Status: "bad_request"}},
		{"full budget", RegisterRequest{Parents: testParents(30, 3)}, http.StatusTooManyRequests,
			ErrorResponse{Error: errShardLimit.Error(), Status: "too_many"}},
	} {
		raw, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(hs.URL+"/v1/trees", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		var got ErrorResponse
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: body: %v", tc.name, err)
		}
		if resp.StatusCode != tc.code || got != tc.want {
			t.Errorf("%s: %d %+v, want %d %+v", tc.name, resp.StatusCode, got, tc.code, tc.want)
		}
	}
}

// TestAdHocBudgetSplit: ad-hoc query trees may auto-occupy at most
// half of MaxShards, so junk one-off traffic can never lock explicit
// registration out of the shard budget.
func TestAdHocBudgetSplit(t *testing.T) {
	s, hs := newTestServer(t, Config{Scheduler: Scheduler{MaxDelay: 5 * time.Millisecond}, Limits: Limits{MaxShards: 4}})
	for seed := uint64(30); seed < 33; seed++ { // 3 distinct ad-hoc structures
		if err := postJSON(hs.URL, "/v1/query", QueryRequest{
			Parents: testParents(60, seed), Kind: "lca", Queries: []LCAQuery{{U: 0, V: 1}},
		}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Pool().Size(); got != 2 {
		t.Fatalf("pool size = %d after 3 ad-hoc structures, want the ad-hoc half (2)", got)
	}
	// Registration headroom survived the ad-hoc flood.
	if err := postJSON(hs.URL, "/v1/trees", RegisterRequest{Parents: testParents(60, 40)}, nil); err != nil {
		t.Fatalf("registration after ad-hoc traffic: %v", err)
	}
	// Registering a structure that already has an ad-hoc shard retains
	// only the id mapping — allowed even at the budget edge.
	if err := postJSON(hs.URL, "/v1/trees", RegisterRequest{Parents: testParents(60, 30)}, nil); err != nil {
		t.Fatalf("promoting an ad-hoc shard to registered: %v", err)
	}
	if got := s.Pool().Size(); got != 3 {
		t.Fatalf("pool size = %d, want 3 (2 ad-hoc + 1 registered, promotion reused)", got)
	}
	// Promotion freed its ad-hoc slot, so a new ad-hoc structure gets a
	// pooled shard again.
	if err := postJSON(hs.URL, "/v1/query", QueryRequest{
		Parents: testParents(60, 33), Kind: "lca", Queries: []LCAQuery{{U: 0, V: 1}},
	}, nil); err != nil {
		t.Fatal(err)
	}
	if got := s.Pool().Size(); got != 4 {
		t.Fatalf("pool size = %d after promotion freed a slot, want 4", got)
	}
	// Garbage kind consumes no budget: rejected before any shard exists.
	err := postJSON(hs.URL, "/v1/query", QueryRequest{Parents: testParents(60, 50), Kind: "bogus"}, nil)
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("400")) {
		t.Fatalf("bogus kind = %v, want 400", err)
	}
	if got := s.Pool().Size(); got != 4 {
		t.Fatalf("pool size = %d after rejected kind, want still 4", got)
	}
}

// TestValidationErrors pins the HTTP error mapping.
func TestValidationErrors(t *testing.T) {
	_, hs := newTestServer(t, Config{Scheduler: Scheduler{MaxDelay: 5 * time.Millisecond}})
	parents := testParents(50, 6)
	cases := []struct {
		name string
		path string
		body any
		code string
	}{
		{"unknown kind", "/v1/query", QueryRequest{Parents: parents, Kind: "sort"}, "400"},
		{"no tree", "/v1/query", QueryRequest{Kind: "lca"}, "400"},
		{"unknown tree id", "/v1/query", QueryRequest{TreeID: "tdeadbeef", Kind: "lca"}, "404"},
		{"bad parents", "/v1/query", QueryRequest{Parents: []int{5, 5, 5}, Kind: "lca"}, "400"},
		{"out-of-range lca", "/v1/query", QueryRequest{Parents: parents, Kind: "lca", Queries: []LCAQuery{{U: -1, V: 2}}}, "400"},
		{"short treefix vals", "/v1/query", QueryRequest{Parents: parents, Kind: "treefix", Vals: []int64{1, 2}}, "400"},
		{"bad op", "/v1/query", QueryRequest{Parents: parents, Kind: "treefix", Op: "mul"}, "400"},
		{"unknown dyn shard", "/v1/dyn/d99/mutate", MutateRequest{Op: "insert"}, "404"},
		// Request faults report before shard routing: a cluster edge
		// must reject an op it cannot route without knowing the shard.
		{"bad mutate op", "/v1/dyn/d99/mutate", MutateRequest{Op: "swap"}, "400"},
		{"bad register", "/v1/trees", RegisterRequest{Parents: []int{0, 0}}, "400"},
	}
	for _, tc := range cases {
		err := postJSON(hs.URL, tc.path, tc.body, nil)
		if err == nil || !bytes.Contains([]byte(err.Error()), []byte(tc.code)) {
			t.Errorf("%s: err = %v, want status %s", tc.name, err, tc.code)
		}
	}
	// Malformed JSON body.
	resp, err := http.Post(hs.URL+"/v1/query", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body status = %d, want 400", resp.StatusCode)
	}
}

// TestMinCutAndTopDown covers the remaining kinds end to end. The
// server runs on the sim backend: the closing assertion pins the model
// cost attribution only the simulator produces.
func TestMinCutAndTopDown(t *testing.T) {
	_, hs := newTestServer(t, Config{Scheduler: Scheduler{MaxDelay: 5 * time.Millisecond}, Backend: "sim"})
	// Path 0-1-2 with a heavy shortcut: the 1-respecting min cut is 6
	// on either tree edge (see internal/mincut's known-graph test).
	parents := []int{-1, 0, 1}
	var resp QueryResponse
	err := postJSON(hs.URL, "/v1/query", QueryRequest{
		Parents: parents,
		Kind:    "mincut",
		Edges:   []GraphEdge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 0, V: 2, W: 5}},
	}, &resp)
	if err != nil {
		t.Fatal(err)
	}
	if resp.MinCut == nil || resp.MinCut.MinWeight != 6 {
		t.Fatalf("min cut = %+v, want weight 6", resp.MinCut)
	}

	// Top-down max along root paths of a path graph is the prefix max.
	err = postJSON(hs.URL, "/v1/query", QueryRequest{
		Parents: parents,
		Kind:    "topdown",
		Op:      "max",
		Vals:    []int64{3, 1, 2},
	}, &resp)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{3, 3, 3}
	for i := range want {
		if resp.Sums[i] != want[i] {
			t.Fatalf("topdown sums = %v, want %v", resp.Sums, want)
		}
	}
	if resp.Cost.Messages == 0 {
		t.Fatal("cost attribution missing: zero messages reported")
	}
}
