package server

// Tests of the HTTP/JSON query codec: the canonical-body decoder against
// the encoding/json path it stands in for, the whole-body read (trailing
// data, the body limit), fingerprint-collision routing, and the pooled
// per-request state under concurrency and as an allocation bound.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"spatialtree/internal/engine"
	"spatialtree/internal/exprtree"
	"spatialtree/internal/lca"
	"spatialtree/internal/mincut"
	"spatialtree/internal/rng"
	"spatialtree/internal/tree"
	"spatialtree/internal/treefix"
	"spatialtree/internal/wire"
)

// referenceQuery is handleQuery's encoding/json path: what a body the
// fast decoder declines is decoded by.
func referenceQuery(body []byte, shardID string) (*wire.Query, error) {
	var req QueryRequest
	rec := httptest.NewRecorder()
	if !decodeBody(rec, body, &req) {
		return nil, fmt.Errorf("status %d: %s", rec.Code, rec.Body)
	}
	return queryFromJSON(&req, shardID)
}

// sameQuery compares two queries field by field; slices.Equal counts nil
// and empty slices as equal.
func sameQuery(a, b *wire.Query) bool {
	return a.ID == b.ID && a.Kind == b.Kind && a.ShardID == b.ShardID && a.TreeID == b.TreeID &&
		a.Op == b.Op && slices.Equal(a.Parents, b.Parents) && slices.Equal(a.Vals, b.Vals) &&
		slices.Equal(a.Queries, b.Queries) && slices.Equal(a.Edges, b.Edges) &&
		slices.Equal(a.ExprKinds, b.ExprKinds)
}

// querySeedBodies marshals the query bodies TestWireDifferential,
// TestValidationErrors and TestHTTPExpr send, plus hand-written
// non-canonical ones.
func querySeedBodies(t testing.TB) [][]byte {
	ex := exprtree.Random(64, rng.New(7))
	parents := ex.Tree.Parents()
	n := ex.Tree.N()
	r := rng.New(99)
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(r.Intn(2000) - 1000)
	}
	queries := make([]LCAQuery, 32)
	for i := range queries {
		queries[i] = LCAQuery{U: r.Intn(n), V: r.Intn(n)}
	}
	edges := []GraphEdge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 0, V: 2, W: 5}}
	kinds := make([]int, n)
	for i, k := range ex.Kind {
		kinds[i] = int(k)
	}
	badKinds := append([]int(nil), kinds...)
	badKinds[0] = 7
	reqs := []QueryRequest{
		{Kind: "lca", Queries: queries},
		{Kind: "mincut", Edges: edges},
		{Kind: "expr", ExprKinds: kinds, Vals: ex.Val},
		{Kind: "expr", ExprKinds: badKinds, Vals: ex.Val},
		{Parents: testParents(50, 6), Kind: "sort"},
		{Kind: "lca"},
		{TreeID: "tdeadbeef", Kind: "lca"},
		{Parents: []int{5, 5, 5}, Kind: "lca"},
		{Parents: parents, Kind: "lca", Queries: []LCAQuery{{U: -1, V: 2}}},
		{Parents: parents, Kind: "treefix", Vals: []int64{1, 2}},
		{Parents: parents, Kind: "treefix", Op: "mul"},
		{TreeID: "t1", Parents: parents, Kind: "lca", Queries: queries[:1]},
	}
	for _, op := range []string{"add", "max", "min", "xor"} {
		reqs = append(reqs,
			QueryRequest{Parents: parents, Kind: "treefix", Op: op, Vals: vals},
			QueryRequest{TreeID: "t12ab", Kind: "topdown", Op: op, Vals: vals})
	}
	var bodies [][]byte
	for _, req := range reqs {
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, b)
	}
	for _, s := range []string{
		"{not json",
		"",
		`{"kind":"lca"}]`,
		`{"kind":"lca"} {}`,
		`{"kind":"lca"}`,
		`{"Kind":"lca"}`,
		`{"kind":"lca","kind":"mincut"}`,
		`{"kind":"lca","op":null}`,
		`{"kind":"lca","vals":[1.0]}`,
		`{"kind":"lca","vals":[1e3]}`,
		`{"kind":"lca","vals":[01]}`,
		`{"kind":"lca","vals":[-0,9223372036854775807,-9223372036854775808]}`,
		`{"kind":"lca","vals":[9223372036854775808]}`,
		`{"kind":"expr","expr_kinds":[256]}`,
		`{"kind":"expr","expr_kinds":[-1]}`,
		`{"kind":"lca","queries":[{"u":1,"v":2,"w":3}]}`,
		`{"kind":"mincut","edges":[{"u":1,"u":2}]}`,
		` { "kind" : "lca" , "parents" : [ -1 , 0 ] } ` + "\n",
		`{"kind":"lca","extra":1}`,
	} {
		bodies = append(bodies, []byte(s))
	}
	return bodies
}

// FuzzQueryJSON holds decodeQuery to the encoding/json path. For any
// body and path id the fast decoder either declines or yields exactly
// the query referenceQuery yields. And every body json.Marshal emits for
// a QueryRequest of any kind, with alphanumeric strings and numbers in
// range, is canonical — so a decoder that always declined would fail.
func FuzzQueryJSON(f *testing.F) {
	for _, body := range querySeedBodies(f) {
		f.Add(body, "")
		f.Add(body, "d1")
	}
	f.Fuzz(func(t *testing.T, body []byte, shardID string) {
		var q wire.Query
		if decodeQuery(body, shardID, &q) {
			want, err := referenceQuery(body, shardID)
			if err != nil {
				t.Fatalf("fast path accepted %q, encoding/json path rejects it: %v", body, err)
			}
			if !sameQuery(&q, want) {
				t.Fatalf("body %q: fast path %+v, encoding/json path %+v", body, q, *want)
			}
		}
		h := fnv.New64a()
		h.Write(body)
		h.Write([]byte(shardID))
		canon, err := json.Marshal(randomQueryRequest(rng.New(h.Sum64()), shardID != ""))
		if err != nil {
			t.Fatal(err)
		}
		if !decodeQuery(canon, shardID, &q) {
			t.Fatalf("json.Marshal body %s is not canonical", canon)
		}
		want, err := referenceQuery(canon, shardID)
		if err != nil || !sameQuery(&q, want) {
			t.Fatalf("json.Marshal body %s: fast path %+v, encoding/json path %+v (err %v)", canon, q, want, err)
		}
	})
}

// randomQueryRequest draws a QueryRequest of any kind with alphanumeric
// strings and numbers that fit their fields; both tree_id and parents
// only when dyn (where the path id routes).
func randomQueryRequest(r *rng.RNG, dyn bool) QueryRequest {
	const alnum = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	str := func() string {
		b := make([]byte, r.Intn(6))
		for i := range b {
			b[i] = alnum[r.Intn(len(alnum))]
		}
		return string(b)
	}
	count := func() int { return r.Intn(5) }
	kinds := []string{"treefix", "topdown", "lca", "mincut", "expr"}
	req := QueryRequest{Kind: kinds[r.Intn(len(kinds))], TreeID: str(), Op: str()}
	for i := count(); i > 0; i-- {
		req.Parents = append(req.Parents, int(r.Uint64()))
	}
	if !dyn && req.TreeID != "" && len(req.Parents) > 0 {
		if r.Bool() {
			req.TreeID = ""
		} else {
			req.Parents = nil
		}
	}
	for i := count(); i > 0; i-- {
		req.Vals = append(req.Vals, int64(r.Uint64()))
	}
	for i := count(); i > 0; i-- {
		req.Queries = append(req.Queries, LCAQuery{U: int(r.Uint64()), V: r.Intn(9) - 4})
	}
	for i := count(); i > 0; i-- {
		req.Edges = append(req.Edges, GraphEdge{U: r.Intn(9) - 4, V: int(r.Uint64()), W: int64(r.Uint64())})
	}
	for i := count(); i > 0; i-- {
		req.ExprKinds = append(req.ExprKinds, r.Intn(256))
	}
	return req
}

// TestDecodeQueryCanonical pins which seed bodies take the fast path, so
// the corpus replay exercises both paths.
func TestDecodeQueryCanonical(t *testing.T) {
	cases := []struct {
		body      string
		canonical bool
	}{
		{`{"kind":"lca","parents":[-1,0],"queries":[{"u":0,"v":1}]}`, true},
		{` { "kind" : "lca" , "parents" : [ -1 , 0 ] } ` + "\n", true},
		{`{"kind":"expr","expr_kinds":[0,255],"vals":[-9223372036854775808]}`, true},
		{`{"kind":"lca","queries":[{}],"edges":[]}`, true},
		{`{"kind":"lca"}`, true},
		{`{"Kind":"lca"}`, false},
		{`{"kind":"lca","kind":"lca"}`, false},
		{`{"kind":"lca","op":null}`, false},
		{`{"kind":"sort"}`, false},
		{`{}`, false},
		{`{"kind":"lca","vals":[01]}`, false},
		{`{"kind":"lca","vals":[9223372036854775808]}`, false},
		{`{"kind":"expr","expr_kinds":[256]}`, false},
		{`{"kind":"lca","queries":[{"u":1,"w":3}]}`, false},
		{`{"kind":"lca"}]`, false},
		{`{"tree_id":"t1","parents":[-1],"kind":"lca"}`, false},
	}
	for _, c := range cases {
		var q wire.Query
		if got := decodeQuery([]byte(c.body), "", &q); got != c.canonical {
			t.Errorf("decodeQuery(%s) = %v, want %v", c.body, got, c.canonical)
		}
	}
	// On the dyn route tree_id and parents are ignored, so both may be set.
	var q wire.Query
	if !decodeQuery([]byte(`{"tree_id":"t1","parents":[-1],"kind":"lca"}`), "d1", &q) ||
		q.ShardID != "d1" || q.TreeID != "" || len(q.Parents) != 0 {
		t.Errorf("dyn route: canonical body decoded to %+v", q)
	}
}

// postRaw posts body to path on h and returns the recorded reply.
func postRaw(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// dynShardID creates a dyn shard for parents through h.
func dynShardID(t *testing.T, h http.Handler, parents []int) string {
	t.Helper()
	b, _ := json.Marshal(DynCreateRequest{Parents: parents})
	rec := postRaw(h, "/v1/dyn", b)
	var created DynCreateResponse
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &created) != nil {
		t.Fatalf("dyn create: %d %s", rec.Code, rec.Body)
	}
	return created.ID
}

// postRoutes is one valid body for every JSON POST route, the dyn ones
// addressing shard id.
func postRoutes(id string) []struct{ path, body string } {
	return []struct{ path, body string }{
		{"/v1/trees", `{"parents":[-1,0]}`},
		{"/v1/query", `{"parents":[-1,0],"kind":"lca","queries":[{"u":0,"v":1}]}`},
		{"/v1/dyn", `{"parents":[-1,0]}`},
		{"/v1/dyn/" + id + "/mutate", `{"op":"insert","parent":0}`},
		{"/v1/dyn/" + id + "/query", `{"kind":"lca","queries":[{"u":0,"v":1}]}`},
	}
}

// TestTrailingDataRejected: every JSON POST route accepts only
// whitespace after the body's value — including a closing bracket,
// which json.Decoder.More does not count as more data.
func TestTrailingDataRejected(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	id := dynShardID(t, h, []int{-1, 0})
	for _, route := range postRoutes(id) {
		for _, tail := range []string{"]", "}", "]garbage", " x", "{}"} {
			rec := postRaw(h, route.path, []byte(route.body+tail))
			if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "trailing data") {
				t.Errorf("%s with %q after the body: %d %s, want 400 trailing data", route.path, tail, rec.Code, rec.Body)
			}
		}
		if rec := postRaw(h, route.path, []byte(route.body+" \n\t\r")); rec.Code != http.StatusOK {
			t.Errorf("%s with whitespace after the body: %d %s, want 200", route.path, rec.Code, rec.Body)
		}
	}
	// No rejected registration or create retained anything.
	m := s.Metrics()
	if m.Server.Trees != 1 || m.Server.DynShards != 2 {
		t.Errorf("after rejected bodies: %d trees, %d dyn shards, want 1 and 2", m.Server.Trees, m.Server.DynShards)
	}
}

// TestBodyLimit413: the body limit counts every byte, whitespace after
// the value included. Every JSON POST route serves a body of exactly
// BodyLimit bytes and answers 413 to one byte more, whatever it holds.
func TestBodyLimit413(t *testing.T) {
	const limit = 64
	s := New(Config{Limits: Limits{BodyLimit: limit}})
	h := s.Handler()
	id := dynShardID(t, h, []int{-1, 0})
	pad := func(body, fill string, size int) []byte {
		b := []byte(body)
		for len(b) < size {
			b = append(b, fill[len(b)%len(fill)])
		}
		return b
	}
	for _, route := range postRoutes(id) {
		if rec := postRaw(h, route.path, pad(route.body, " ", limit)); rec.Code != http.StatusOK {
			t.Errorf("%s at the limit: %d %s, want 200", route.path, rec.Code, rec.Body)
		}
		for _, fill := range []string{" ", " x"} {
			if rec := postRaw(h, route.path, pad(route.body, fill, limit+1)); rec.Code != http.StatusRequestEntityTooLarge {
				t.Errorf("%s padded with %q to the limit + 1: %d %s, want 413", route.path, fill, rec.Code, rec.Body)
			}
		}
	}
}

// TestFingerprintCollision: a pool shard is identified by its parent
// array, not by its fingerprint alone. Tree b is routed under tree a's
// fingerprint, as a hash collision would route it: its registration
// fails with StatusInternal and retains nothing, and its ad-hoc
// queries are served from an ephemeral engine over b itself.
func TestFingerprintCollision(t *testing.T) {
	s := New(Config{Backend: "native"})
	a := tree.MustFromParents(testParents(40, 1))
	b := tree.MustFromParents(testParents(40, 2))
	c := tree.MustFromParents(testParents(40, 3))
	fpA, fpC := engine.Fingerprint(a), engine.Fingerprint(c)
	idA, err := s.RegisterTree(a)
	if err != nil {
		t.Fatal(err)
	}
	// c holds an ad-hoc shard.
	if eng, retire, err := s.engineFor(c, fpC); err != nil || eng != s.Pool().Lookup(fpC, c.Parents()) {
		t.Fatalf("ad-hoc c: engine %p, err %v", eng, err)
	} else {
		retire()
	}
	for _, fp := range []uint64{fpA, fpC} {
		for _, backend := range []string{"", "sim"} {
			_, err := s.registerTree(b, fp, true, backend)
			if Classify(err) != StatusInternal || !errors.Is(err, engine.ErrCollision) {
				t.Errorf("registering b under fingerprint %x on %q: err %v (class %v), want an internal collision", fp, backend, err, Classify(err))
			}
		}
		eng, retire, err := s.engineFor(b, fp)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(eng.Tree().Parents(), b.Parents()) || eng == s.Pool().Lookup(fp, eng.Tree().Parents()) {
			t.Errorf("ad-hoc b under fingerprint %x is not served from its own ephemeral engine", fp)
		}
		res := eng.SubmitLCA([]lca.Query{{U: 5, V: 9}}).Wait()
		if want := lca.NewOracle(b).LCA(5, 9); res.Err != nil || res.Answers[0] != want {
			t.Errorf("ad-hoc b under fingerprint %x: answer %v (err %v), want %d", fp, res.Answers, res.Err, want)
		}
		retire()
	}
	if got := s.Pool().Size(); got != 2 {
		t.Errorf("pool size %d, want 2 (a and c)", got)
	}
	s.mu.Lock()
	engA, trees, adhoc := s.trees[idA], len(s.trees), len(s.adhoc)
	s.mu.Unlock()
	if trees != 1 || adhoc != 1 || engA.Backend() != "native" || !slices.Equal(engA.Tree().Parents(), a.Parents()) {
		t.Errorf("after the collisions: %d trees, %d ad-hoc, a's shard on %s", trees, adhoc, engA.Backend())
	}
}

// TestHTTPQueryStress runs canonical and non-canonical bodies of every
// kind, over trees of three sizes and on the registered, ad-hoc and dyn
// routes, from 8 goroutines through Handler, and checks every answer
// against the sequential oracles: requests sharing pooled state must
// not see each other's inputs.
func TestHTTPQueryStress(t *testing.T) {
	s := New(Config{Scheduler: Scheduler{MaxBatch: 8}})
	h := s.Handler()
	type fixture struct {
		ex        *exprtree.Expr
		oracle    *lca.Oracle
		id, shard string
	}
	var fixtures []fixture
	for i, leaves := range []int{4, 32, 256} {
		ex := exprtree.Random(leaves, rng.New(uint64(20+i)))
		parents := ex.Tree.Parents()
		b, _ := json.Marshal(RegisterRequest{Parents: parents})
		var reg RegisterResponse
		if rec := postRaw(h, "/v1/trees", b); rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &reg) != nil {
			t.Fatalf("register: %d %s", rec.Code, rec.Body)
		}
		fixtures = append(fixtures, fixture{ex: ex, oracle: lca.NewOracle(ex.Tree), id: reg.ID, shard: dynShardID(t, h, parents)})
	}
	// Three more trees are only ever queried ad hoc.
	for i, leaves := range []int{4, 32, 256} {
		ex := exprtree.Random(leaves, rng.New(uint64(40+i)))
		fixtures = append(fixtures, fixture{ex: ex, oracle: lca.NewOracle(ex.Tree)})
	}
	kinds := []string{"treefix", "topdown", "lca", "mincut", "expr"}
	const workers, perWorker = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(r *rng.RNG) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				f := fixtures[r.Intn(len(fixtures))]
				tr := f.ex.Tree
				n := tr.N()
				req := QueryRequest{Kind: kinds[r.Intn(len(kinds))]}
				path := "/v1/query"
				switch route := r.Intn(3); {
				case f.id == "" || route == 0:
					req.Parents = tr.Parents()
				case route == 1:
					req.TreeID = f.id
				default:
					path = "/v1/dyn/" + f.shard + "/query"
				}
				var op treefix.Op
				switch req.Kind {
				case "treefix", "topdown":
					ops := []string{"add", "max", "min", "xor"}
					req.Op = ops[r.Intn(len(ops))]
					op, _ = treefix.OpByName(req.Op)
					req.Vals = make([]int64, n)
					for j := range req.Vals {
						req.Vals[j] = int64(r.Intn(2000) - 1000)
					}
				case "lca":
					for j := r.Intn(3 * n); j >= 0; j-- {
						req.Queries = append(req.Queries, LCAQuery{U: r.Intn(n), V: r.Intn(n)})
					}
				case "mincut":
					for j := r.Intn(2 * n); j >= 0; j-- {
						if u, v := r.Intn(n), r.Intn(n); u != v {
							req.Edges = append(req.Edges, GraphEdge{U: u, V: v, W: int64(1 + r.Intn(50))})
						}
					}
				case "expr":
					req.Vals = f.ex.Val
					for _, k := range f.ex.Kind {
						req.ExprKinds = append(req.ExprKinds, int(k))
					}
				}
				body, err := json.Marshal(req)
				if err != nil {
					t.Error(err)
					return
				}
				if r.Bool() {
					// Escape the kind's first letter: the same request,
					// decoded by encoding/json.
					esc := fmt.Sprintf(`"kind":"\u%04x%s"`, req.Kind[0], req.Kind[1:])
					body = bytes.Replace(body, []byte(`"kind":"`+req.Kind+`"`), []byte(esc), 1)
				}
				rec := postRaw(h, path, body)
				var resp QueryResponse
				if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil {
					t.Errorf("%s %s: %d %s", path, req.Kind, rec.Code, rec.Body)
					return
				}
				var bad bool
				switch req.Kind {
				case "treefix":
					bad = !slices.Equal(resp.Sums, treefix.SequentialBottomUp(tr, req.Vals, op))
				case "topdown":
					bad = !slices.Equal(resp.Sums, treefix.SequentialTopDown(tr, req.Vals, op))
				case "lca":
					for j, q := range req.Queries {
						bad = bad || j >= len(resp.Answers) || resp.Answers[j] != f.oracle.LCA(q.U, q.V)
					}
				case "mincut":
					edges := make([]mincut.Edge, len(req.Edges))
					for j, e := range req.Edges {
						edges[j] = mincut.Edge{U: e.U, V: e.V, W: e.W}
					}
					want := mincut.OneRespectingSequential(tr, edges)
					bad = resp.MinCut == nil || resp.MinCut.MinWeight != want.MinWeight || resp.MinCut.ArgVertex != want.ArgVertex
				case "expr":
					bad = resp.Value == nil || *resp.Value != f.ex.EvalSequential()[tr.Root()]
				}
				if bad {
					t.Errorf("%s %s on %d vertices: wrong answer %+v", path, req.Kind, n, resp)
				}
			}
		}(rng.New(uint64(100 + w)))
	}
	wg.Wait()
}

// TestHTTPQueryAllocs bounds the allocations of a canonical ad-hoc LCA
// query (16 pairs) on a known 1,024-vertex tree through the whole
// handler, test request and recorder included. It takes 34 on pooled
// state; decoding with encoding/json and re-validating the parents
// takes 96, which the bound rejects.
func TestHTTPQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop pooled state at random")
	}
	s := New(Config{})
	h := s.Handler()
	r := rng.New(8)
	req := QueryRequest{Parents: testParents(1024, 7), Kind: "lca"}
	for i := 0; i < 16; i++ {
		req.Queries = append(req.Queries, LCAQuery{U: r.Intn(1024), V: r.Intn(1024)})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	serve := func() {
		if rec := postRaw(h, "/v1/query", body); rec.Code != http.StatusOK {
			t.Fatalf("query: %d %s", rec.Code, rec.Body)
		}
	}
	serve() // the tree's shard now exists
	if allocs := testing.AllocsPerRun(50, serve); allocs > 50 {
		t.Fatalf("a canonical ad-hoc LCA query allocates %.0f times, want at most 50", allocs)
	}
}
