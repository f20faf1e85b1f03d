package server

// Tests of the binary-protocol listener: the differential check that
// binary and HTTP/JSON are the same serving surface (identical results
// for every kind and op against the same shard), shared backpressure
// and drain semantics, per-connection deadlines, and the wire error
// classification.

import (
	"bytes"
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"spatialtree/internal/exprtree"
	"spatialtree/internal/rng"
	"spatialtree/internal/wire"
)

// newWireServer starts a binary-protocol listener for s and returns a
// connected client.
func newWireServer(t *testing.T, s *Server) *wire.Client {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.ServeBinary(ln) }()
	t.Cleanup(s.CloseBinary)
	cl, err := wire.Dial(ln.Addr().String(), wire.DialOptions{DialTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// TestWireDifferential is the protocol-equivalence acceptance check:
// every query kind (treefix and topdown across all ops, lca, mincut,
// expr), routed both by registered tree id and by ad-hoc parents, must
// return identical results over the binary protocol and over HTTP/JSON
// against the same shard.
func TestWireDifferential(t *testing.T) {
	s, hs := newTestServer(t, Config{Scheduler: Scheduler{MaxBatch: 8, MaxDelay: 2 * time.Millisecond}})
	cl := newWireServer(t, s)

	// The shard under test is a full binary tree so kind "expr" works on
	// it too; treefix/topdown/lca/mincut accept any tree shape.
	ex := exprtree.Random(64, rng.New(7))
	parents := append([]int(nil), ex.Tree.Parents()...)
	n := ex.Tree.N()
	var reg RegisterResponse
	if err := postJSON(hs.URL, "/v1/trees", RegisterRequest{Parents: parents}, &reg); err != nil {
		t.Fatal(err)
	}

	r := rng.New(99)
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(r.Intn(2000) - 1000)
	}
	lcaJSON := make([]LCAQuery, 32)
	lcaWire := make([]wire.LCAQuery, 32)
	for i := range lcaJSON {
		u, v := r.Intn(n), r.Intn(n)
		lcaJSON[i], lcaWire[i] = LCAQuery{U: u, V: v}, wire.LCAQuery{U: u, V: v}
	}
	var edgesJSON []GraphEdge
	var edgesWire []wire.Edge
	for i := 0; i < 24; i++ {
		u, v, w := r.Intn(n), r.Intn(n), int64(r.Intn(50)+1)
		if u == v {
			continue
		}
		edgesJSON = append(edgesJSON, GraphEdge{U: u, V: v, W: w})
		edgesWire = append(edgesWire, wire.Edge{U: u, V: v, W: w})
	}
	exprKindsJSON := make([]int, n)
	exprKindsWire := make([]uint8, n)
	for i, k := range ex.Kind {
		exprKindsJSON[i], exprKindsWire[i] = int(k), uint8(k)
	}

	type tc struct {
		name string
		json QueryRequest
		wire wire.Query
	}
	var cases []tc
	for _, op := range []string{"add", "max", "min", "xor"} {
		cases = append(cases,
			tc{"treefix-" + op,
				QueryRequest{Kind: "treefix", Op: op, Vals: vals},
				wire.Query{Kind: wire.KindTreefix, Op: op, Vals: vals}},
			tc{"topdown-" + op,
				QueryRequest{Kind: "topdown", Op: op, Vals: vals},
				wire.Query{Kind: wire.KindTopDown, Op: op, Vals: vals}},
		)
	}
	cases = append(cases,
		tc{"lca",
			QueryRequest{Kind: "lca", Queries: lcaJSON},
			wire.Query{Kind: wire.KindLCA, Queries: lcaWire}},
		tc{"mincut",
			QueryRequest{Kind: "mincut", Edges: edgesJSON},
			wire.Query{Kind: wire.KindMinCut, Edges: edgesWire}},
		tc{"expr",
			QueryRequest{Kind: "expr", ExprKinds: exprKindsJSON, Vals: ex.Val},
			wire.Query{Kind: wire.KindExpr, ExprKinds: exprKindsWire, Vals: ex.Val}},
	)

	for _, route := range []string{"tree_id", "parents"} {
		for _, c := range cases {
			jq, wq := c.json, c.wire
			if route == "tree_id" {
				jq.TreeID, wq.TreeID = reg.ID, reg.ID
			} else {
				jq.Parents, wq.Parents = parents, parents
			}
			var jr QueryResponse
			if err := postJSON(hs.URL, "/v1/query", jq, &jr); err != nil {
				t.Fatalf("%s via %s over HTTP: %v", c.name, route, err)
			}
			wr, err := cl.Do(&wq)
			if err != nil {
				t.Fatalf("%s via %s over wire: %v", c.name, route, err)
			}
			switch {
			case jr.Sums != nil:
				if len(wr.Sums) != len(jr.Sums) {
					t.Fatalf("%s via %s: wire %d sums, http %d", c.name, route, len(wr.Sums), len(jr.Sums))
				}
				for i := range jr.Sums {
					if wr.Sums[i] != jr.Sums[i] {
						t.Fatalf("%s via %s: sums[%d] wire=%d http=%d", c.name, route, i, wr.Sums[i], jr.Sums[i])
					}
				}
			case jr.Answers != nil:
				for i := range jr.Answers {
					if wr.Answers[i] != jr.Answers[i] {
						t.Fatalf("%s via %s: answers[%d] wire=%d http=%d", c.name, route, i, wr.Answers[i], jr.Answers[i])
					}
				}
			case jr.MinCut != nil:
				if wr.MinWeight != jr.MinCut.MinWeight || wr.ArgVertex != jr.MinCut.ArgVertex {
					t.Fatalf("%s via %s: wire (%d,%d) http %+v", c.name, route, wr.MinWeight, wr.ArgVertex, jr.MinCut)
				}
			case jr.Value != nil:
				if wr.Value != *jr.Value {
					t.Fatalf("%s via %s: wire value %d http %d", c.name, route, wr.Value, *jr.Value)
				}
				// And both must agree with the sequential evaluator.
				if want := ex.EvalSequential()[ex.Tree.Root()]; wr.Value != want {
					t.Fatalf("expr value %d, want %d", wr.Value, want)
				}
			default:
				t.Fatalf("%s via %s: HTTP response carried no payload", c.name, route)
			}
		}
	}
}

// TestWireErrorClassification pins the binary status codes to the
// HTTP classification: validation errors answer StatusBadRequest,
// unknown trees StatusNotFound, and the connection survives all of
// them (application errors are answers, not protocol failures).
func TestWireErrorClassification(t *testing.T) {
	s, _ := newTestServer(t, Config{Scheduler: Scheduler{MaxDelay: 2 * time.Millisecond}})
	cl := newWireServer(t, s)
	parents := testParents(50, 6)

	cases := []struct {
		name   string
		q      wire.Query
		status wire.Status
	}{
		{"no route", wire.Query{Kind: wire.KindLCA}, wire.StatusBadRequest},
		{"unknown tree id", wire.Query{TreeID: "tdeadbeef", Kind: wire.KindLCA}, wire.StatusNotFound},
		{"bad parents", wire.Query{Parents: []int{5, 5, 5}, Kind: wire.KindLCA}, wire.StatusBadRequest},
		{"out-of-range lca", wire.Query{Parents: parents, Kind: wire.KindLCA,
			Queries: []wire.LCAQuery{{U: -1, V: 2}}}, wire.StatusBadRequest},
		{"short treefix vals", wire.Query{Parents: parents, Kind: wire.KindTreefix,
			Vals: []int64{1, 2}}, wire.StatusBadRequest},
		{"bad op", wire.Query{Parents: parents, Kind: wire.KindTreefix, Op: "mul"}, wire.StatusBadRequest},
		{"expr on non-binary tree", wire.Query{Parents: parents, Kind: wire.KindExpr,
			ExprKinds: make([]uint8, 50), Vals: make([]int64, 50)}, wire.StatusBadRequest},
		{"negative mincut weight", wire.Query{Parents: parents, Kind: wire.KindMinCut,
			Edges: []wire.Edge{{U: 0, V: 1, W: -3}}}, wire.StatusBadRequest},
		// Validation precedes routing, as over HTTP: a bad op is the
		// client's fault whether or not the addressed tree or shard exists.
		{"bad op, unknown tree id", wire.Query{TreeID: "tdeadbeef", Kind: wire.KindTreefix, Op: "mul"}, wire.StatusBadRequest},
		{"bad op, unknown shard id", wire.Query{ShardID: "d99", Kind: wire.KindTreefix, Op: "mul"}, wire.StatusBadRequest},
	}
	for _, c := range cases {
		q := c.q
		_, err := cl.Do(&q)
		var we *wire.Error
		if !errors.As(err, &we) || we.Status != c.status {
			t.Errorf("%s: err = %v, want status %v", c.name, err, c.status)
		}
	}
	// A rejected op creates nothing: bad-op queries on distinct fresh
	// ad-hoc trees leave the shard pool and the layout cache untouched.
	shards, builds := s.Pool().Size(), s.Metrics().Cache.Builds
	for i := uint64(0); i < 5; i++ {
		q := wire.Query{Parents: testParents(40, 100+i), Kind: wire.KindTreefix, Op: "mul"}
		_, err := cl.Do(&q)
		var we *wire.Error
		if !errors.As(err, &we) || we.Status != wire.StatusBadRequest {
			t.Errorf("bad op on fresh tree %d: err = %v, want status %v", i, err, wire.StatusBadRequest)
		}
	}
	if got := s.Pool().Size(); got != shards {
		t.Errorf("pool size %d after bad-op queries, want %d", got, shards)
	}
	if got := s.Metrics().Cache.Builds; got != builds {
		t.Errorf("layout builds %d after bad-op queries, want %d", got, builds)
	}
	// The connection is still healthy after every rejected query.
	if err := cl.Ping(); err != nil {
		t.Fatalf("connection dead after application errors: %v", err)
	}
}

// TestWireDynCreateRefusesShardID: the server assigns dyn shard ids. A
// binary dyn-create that names one — a free local id, a taken one, or a
// cluster-shaped one — is a bad request and creates nothing, so the ids
// the server hands out afterwards are still free.
func TestWireDynCreateRefusesShardID(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	cl := newWireServer(t, s)
	parents := testParents(40, 9)
	if dc, err := cl.DynCreate(&wire.DynCreate{Parents: parents}); err != nil || dc.ShardID != "d1" {
		t.Fatalf("server-assigned create = %+v, %v; want d1", dc, err)
	}
	for _, id := range []string{"d2", "d1", "c00000000000002a-3"} {
		_, err := cl.DynCreate(&wire.DynCreate{ShardID: id, Parents: parents})
		var we *wire.Error
		if !errors.As(err, &we) || we.Status != wire.StatusBadRequest {
			t.Fatalf("create naming shard_id %s: err = %v, want status %v", id, err, wire.StatusBadRequest)
		}
	}
	if ids := s.DynShardIDs(); len(ids) != 1 || ids[0] != "d1" {
		t.Fatalf("shards after the refused creates: %v, want [d1]", ids)
	}
	if dc, err := cl.DynCreate(&wire.DynCreate{Parents: parents}); err != nil || dc.ShardID != "d2" {
		t.Fatalf("server-assigned create after the refusals = %+v, %v; want d2", dc, err)
	}
}

// TestWireBackpressure floods the binary listener past QueueLimit and
// requires both outcomes: some queries served, some answered with
// StatusTooMany — the binary counterpart of HTTP 429 — with the shared
// rejection counter advancing.
func TestWireBackpressure(t *testing.T) {
	s, _ := newTestServer(t, Config{Scheduler: Scheduler{MaxBatch: 1 << 20, MaxDelay: 300 * time.Millisecond}, Limits: Limits{QueueLimit: 2}})
	parents := testParents(100, 3)

	const clients = 12
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		cl := newWireServer(t, s)
		wg.Add(1)
		go func(i int, cl *wire.Client) {
			defer wg.Done()
			_, errs[i] = cl.Do(&wire.Query{Kind: wire.KindLCA, Parents: parents,
				Queries: []wire.LCAQuery{{U: 0, V: 1}}})
		}(i, cl)
	}
	wg.Wait()
	served, rejected := 0, 0
	for _, err := range errs {
		var we *wire.Error
		switch {
		case err == nil:
			served++
		case errors.As(err, &we) && we.Status == wire.StatusTooMany:
			rejected++
		default:
			t.Fatalf("unexpected failure: %v", err)
		}
	}
	if served == 0 || rejected == 0 {
		t.Fatalf("served=%d rejected=%d, want both admission and backpressure", served, rejected)
	}
	if s.Metrics().Server.Rejected == 0 {
		t.Fatal("binary rejections did not advance the shared counter")
	}
}

// TestWireDrain: a drained server answers binary queries with
// StatusUnavailable — the 503 counterpart — and in-flight binary
// requests resolve rather than drop.
func TestWireDrain(t *testing.T) {
	s, _ := newTestServer(t, Config{Scheduler: Scheduler{MaxBatch: 1 << 20, MaxDelay: 150 * time.Millisecond}})
	parents := testParents(120, 5)

	const clients = 4
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		cl := newWireServer(t, s)
		wg.Add(1)
		go func(i int, cl *wire.Client) {
			defer wg.Done()
			_, errs[i] = cl.Do(&wire.Query{Kind: wire.KindLCA, Parents: parents,
				Queries: []wire.LCAQuery{{U: i, V: i + 1}}})
		}(i, cl)
	}
	time.Sleep(20 * time.Millisecond) // let the queries land in the batch
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("in-flight binary request %d dropped during drain: %v", i, err)
		}
	}
	cl := newWireServer(t, s)
	_, err := cl.Do(&wire.Query{Kind: wire.KindLCA, Parents: parents,
		Queries: []wire.LCAQuery{{U: 0, V: 1}}})
	var we *wire.Error
	if !errors.As(err, &we) || we.Status != wire.StatusUnavailable {
		t.Fatalf("post-drain binary query = %v, want StatusUnavailable", err)
	}
}

// TestWireIdleTimeout: a connection that goes quiet past TCPIdleTimeout
// is closed by the server — the binary counterpart of the HTTP
// listener's slow-loris guards.
func TestWireIdleTimeout(t *testing.T) {
	s, _ := newTestServer(t, Config{Scheduler: Scheduler{MaxDelay: 2 * time.Millisecond}, Timeouts: Timeouts{TCPIdle: 50 * time.Millisecond}})
	cl := newWireServer(t, s)
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	// Go quiet for several idle budgets, then the next ping must find
	// the connection closed. (Each served frame rearms the deadline, so
	// the silence has to be contiguous.)
	deadline := time.Now().Add(5 * time.Second)
	for cl.Ping() == nil {
		if time.Now().After(deadline) {
			t.Fatal("idle connection still alive well past TCPIdleTimeout")
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// TestWireMetrics: the /metrics wire section appears once the binary
// listener serves and counts connections and queries.
func TestWireMetrics(t *testing.T) {
	s, hs := newTestServer(t, Config{Scheduler: Scheduler{MaxDelay: 2 * time.Millisecond}})
	if got := getMetrics(t, hs.URL).Wire; got != nil {
		t.Fatalf("wire metrics = %+v before any binary listener, want absent", got)
	}
	cl := newWireServer(t, s)
	parents := testParents(40, 8)
	if _, err := cl.Do(&wire.Query{Kind: wire.KindLCA, Parents: parents,
		Queries: []wire.LCAQuery{{U: 0, V: 1}}}); err != nil {
		t.Fatal(err)
	}
	m := getMetrics(t, hs.URL).Wire
	if m == nil || m.Conns != 1 || m.Queries != 1 {
		t.Fatalf("wire metrics = %+v, want 1 conn and 1 query", m)
	}
}

// TestWireCorruptFrame: garbage on the wire answers a connection-level
// StatusBadRequest error and hangs up, and the protocol error counter
// advances.
func TestWireCorruptFrame(t *testing.T) {
	s, hs := newTestServer(t, Config{Scheduler: Scheduler{MaxDelay: 2 * time.Millisecond}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.ServeBinary(ln) }()
	t.Cleanup(s.CloseBinary)

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	rd := wire.NewReader(conn, 1<<20)
	kind, payload, err := rd.Next()
	if err != nil {
		t.Fatalf("expected an error frame before hangup, got %v", err)
	}
	if kind != wire.FrameError {
		t.Fatalf("frame kind = %d, want FrameError", kind)
	}
	var we wire.Error
	if err := we.Decode(payload); err != nil {
		t.Fatal(err)
	}
	if we.ID != 0 || we.Status != wire.StatusBadRequest {
		t.Fatalf("error frame = %+v, want connection-level StatusBadRequest", we)
	}
	buf := make([]byte, 1)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server kept the connection open after a corrupt frame")
	}
	if getMetrics(t, hs.URL).Wire.Errors == 0 {
		t.Fatal("protocol error did not advance the wire error counter")
	}
}

// TestHTTPBothRoutesRejected is the regression test for the tree_id +
// parents contract: POST /v1/query with both fields populated must be
// a 400, not silently route by one of them.
func TestHTTPBothRoutesRejected(t *testing.T) {
	_, hs := newTestServer(t, Config{Scheduler: Scheduler{MaxDelay: 2 * time.Millisecond}})
	parents := testParents(30, 9)
	var reg RegisterResponse
	if err := postJSON(hs.URL, "/v1/trees", RegisterRequest{Parents: parents}, &reg); err != nil {
		t.Fatal(err)
	}
	err := postJSON(hs.URL, "/v1/query", QueryRequest{
		TreeID:  reg.ID,
		Parents: parents,
		Kind:    "lca",
		Queries: []LCAQuery{{U: 0, V: 1}},
	}, nil)
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("400")) {
		t.Fatalf("both tree_id and parents = %v, want 400", err)
	}
	if !strings.Contains(err.Error(), "exactly one") {
		t.Fatalf("error %q should explain the exactly-one contract", err)
	}
}

// TestHTTPExpr: kind "expr" over HTTP evaluates the expression tree and
// validates its inputs (bad node kinds and non-binary shapes are 400s).
func TestHTTPExpr(t *testing.T) {
	_, hs := newTestServer(t, Config{Scheduler: Scheduler{MaxDelay: 2 * time.Millisecond}})
	ex := exprtree.Random(32, rng.New(11))
	parents := ex.Tree.Parents()
	kinds := make([]int, len(ex.Kind))
	for i, k := range ex.Kind {
		kinds[i] = int(k)
	}
	var resp QueryResponse
	if err := postJSON(hs.URL, "/v1/query", QueryRequest{
		Parents: parents, Kind: "expr", ExprKinds: kinds, Vals: ex.Val,
	}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Value == nil {
		t.Fatal("expr response carried no value")
	}
	if want := ex.EvalSequential()[ex.Tree.Root()]; *resp.Value != want {
		t.Fatalf("expr value = %d, want %d", *resp.Value, want)
	}

	// Invalid node kind.
	bad := append([]int(nil), kinds...)
	bad[0] = 7
	err := postJSON(hs.URL, "/v1/query", QueryRequest{
		Parents: parents, Kind: "expr", ExprKinds: bad, Vals: ex.Val,
	}, nil)
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("400")) {
		t.Fatalf("expr kind 7 = %v, want 400", err)
	}
	// Non-full-binary tree.
	err = postJSON(hs.URL, "/v1/query", QueryRequest{
		Parents: testParents(30, 12), Kind: "expr", ExprKinds: make([]int, 30), Vals: make([]int64, 30),
	}, nil)
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("400")) {
		t.Fatalf("expr on a random tree = %v, want 400", err)
	}
	// Expr on a dyn shard.
	var created DynCreateResponse
	if err := postJSON(hs.URL, "/v1/dyn", DynCreateRequest{Parents: parents}, &created); err != nil {
		t.Fatal(err)
	}
	if err := postJSON(hs.URL, "/v1/dyn/"+created.ID+"/query", QueryRequest{
		Kind: "expr", ExprKinds: kinds, Vals: ex.Val,
	}, &resp); err != nil {
		t.Fatal(err)
	}
	if want := ex.EvalSequential()[ex.Tree.Root()]; resp.Value == nil || *resp.Value != want {
		t.Fatalf("dyn expr value = %v, want %d", resp.Value, want)
	}
}
