package engine

import (
	"errors"
	"testing"

	"spatialtree/internal/exec"
	"spatialtree/internal/exprtree"
	"spatialtree/internal/lca"
	"spatialtree/internal/mincut"
	"spatialtree/internal/rng"
	"spatialtree/internal/tree"
	"spatialtree/internal/treefix"
)

// TestLCACostApportioned pins the coalescing cost-attribution fix:
// per-request Energy/Messages shares of a coalesced LCA run must sum
// exactly to the shared run's cost (no over-counting by the coalescing
// factor), while Depth — the genuinely shared critical path — is
// reported in full on every future.
func TestLCACostApportioned(t *testing.T) {
	tr := tree.RandomAttachment(257, rng.New(1))
	n := tr.N()
	qr := rng.New(2)
	mkQueries := func(m int) []lca.Query {
		qs := make([]lca.Query, m)
		for i := range qs {
			qs[i] = lca.Query{U: qr.Intn(n), V: qr.Intn(n)}
		}
		return qs
	}
	qsets := [][]lca.Query{mkQueries(1), mkQueries(2), mkQueries(3)}
	var flat []lca.Query
	for _, qs := range qsets {
		flat = append(flat, qs...)
	}

	// Engine A: three requests coalesced into one batch (batch seq 0).
	a, err := New(tr, Options{Seed: 7, Window: 64})
	if err != nil {
		t.Fatal(err)
	}
	var futs []*Future
	for _, qs := range qsets {
		futs = append(futs, a.SubmitLCA(qs))
	}
	a.Flush()

	// Engine B: the same queries as one request — same seed and batch
	// index, so the simulator run is identical.
	b, err := New(tr, Options{Seed: 7, Window: 64})
	if err != nil {
		t.Fatal(err)
	}
	whole := b.SubmitLCA(flat).Wait()
	if whole.Err != nil {
		t.Fatal(whole.Err)
	}

	var sumEnergy, sumMessages int64
	for i, f := range futs {
		res := f.Wait()
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		sumEnergy += res.Cost.Energy
		sumMessages += res.Cost.Messages
		if res.Cost.Depth != whole.Cost.Depth {
			t.Fatalf("request %d: depth %d, want shared run depth %d", i, res.Cost.Depth, whole.Cost.Depth)
		}
		if res.Cost.Energy <= 0 {
			t.Fatalf("request %d: non-positive energy share %d", i, res.Cost.Energy)
		}
	}
	if sumEnergy != whole.Cost.Energy || sumMessages != whole.Cost.Messages {
		t.Fatalf("apportioned shares sum to (E=%d, M=%d), run cost (E=%d, M=%d)",
			sumEnergy, sumMessages, whole.Cost.Energy, whole.Cost.Messages)
	}
}

// TestNativeBackendServing runs the full request surface on a native
// engine and checks results against oracles and the metering contract
// (a native engine reports no model cost).
func TestNativeBackendServing(t *testing.T) {
	tr := tree.RandomAttachment(513, rng.New(3))
	n := tr.N()
	eng, err := New(tr, Options{Backend: exec.Native, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Backend() != exec.Native {
		t.Fatalf("backend = %q", eng.Backend())
	}
	vals := make([]int64, n)
	r := rng.New(4)
	for i := range vals {
		vals[i] = int64(r.Intn(1000)) - 500
	}
	queries := []lca.Query{{U: r.Intn(n), V: r.Intn(n)}, {U: r.Intn(n), V: r.Intn(n)}}
	edges := mincut.RandomGraph(tr, n/2, 9, rng.New(5))

	futTF := eng.SubmitTreefix(vals, treefix.Max)
	futTD := eng.SubmitTopDown(vals, treefix.Add)
	futLCA := eng.SubmitLCA(queries)
	futMC := eng.SubmitMinCut(edges)
	eng.Flush()

	wantTF := treefix.SequentialBottomUp(tr, vals, treefix.Max)
	wantTD := treefix.SequentialTopDown(tr, vals, treefix.Add)
	oracle := lca.NewOracle(tr)
	wantMC := mincut.OneRespectingSequential(tr, edges)

	resTF := futTF.Wait()
	resTD := futTD.Wait()
	resLCA := futLCA.Wait()
	resMC := futMC.Wait()
	for _, res := range []Result{resTF, resTD, resLCA, resMC} {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if res.Cost != (Result{}.Cost) {
			t.Fatalf("native request reported model cost %+v", res.Cost)
		}
	}
	for v := 0; v < n; v++ {
		if resTF.Sums[v] != wantTF[v] || resTD.Sums[v] != wantTD[v] {
			t.Fatalf("vertex %d: treefix mismatch", v)
		}
	}
	for i, q := range queries {
		if resLCA.Answers[i] != oracle.LCA(q.U, q.V) {
			t.Fatalf("query %d: lca mismatch", i)
		}
	}
	if resMC.MinCut.MinWeight != wantMC.MinWeight {
		t.Fatalf("min-cut %d, want %d", resMC.MinCut.MinWeight, wantMC.MinWeight)
	}

	st := eng.Stats()
	if st.Cost.Energy != 0 || st.Cost.Messages != 0 {
		t.Fatalf("unmetered native engine accumulated cost %+v", st.Cost)
	}
	if st.Batches == 0 || st.Requests != 4 {
		t.Fatalf("stats: %+v", st)
	}

	// Expression evaluation via the native rake kernel.
	x := exprtree.Random(64, rng.New(6))
	xe, err := New(x.Tree, Options{Backend: exec.Native})
	if err != nil {
		t.Fatal(err)
	}
	res := xe.SubmitExpr(x).Wait()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if want := x.EvalSequential()[x.Tree.Root()]; res.Value != want {
		t.Fatalf("expr %d, want %d", res.Value, want)
	}
}

// TestBackendErrors pins construction-time validation and the native
// typed-error path for malformed operators.
func TestBackendErrors(t *testing.T) {
	tr := tree.RandomAttachment(16, rng.New(11))
	if _, err := New(tr, Options{Backend: "warp"}); err == nil {
		t.Fatal("unknown backend accepted")
	}
	eng, err := New(tr, Options{Backend: exec.Native})
	if err != nil {
		t.Fatal(err)
	}
	res := eng.SubmitTreefix(make([]int64, tr.N()), treefix.Op{Name: "broken"}).Wait()
	if !errors.Is(res.Err, treefix.ErrUnsupportedOp) {
		t.Fatalf("broken op served: err = %v", res.Err)
	}
}

// TestPoolBackendSharding pins the pool key: the same tree on two
// backends is two shards; the same tree on one backend is one.
func TestPoolBackendSharding(t *testing.T) {
	tr := tree.RandomAttachment(64, rng.New(12))
	pool := NewPool(2, Options{Backend: exec.Native})
	a, err := pool.Engine(tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pool.EngineBackend(tree.MustFromParents(tr.Parents()), exec.Native)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same tree+backend produced distinct shards")
	}
	c, err := pool.EngineBackend(tr, exec.Sim)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("sim and native traffic share a shard")
	}
	if a.Backend() != exec.Native || c.Backend() != exec.Sim {
		t.Fatalf("shard backends: %q, %q", a.Backend(), c.Backend())
	}
	if pool.Size() != 2 {
		t.Fatalf("pool size = %d, want 2", pool.Size())
	}
	// The two shards share one placement build through the cache.
	if st := pool.Cache().Stats(); st.Builds != 1 {
		t.Fatalf("layout builds = %d, want 1 shared build", st.Builds)
	}
	// Dyn shards inherit or override the pool default.
	d1, err := pool.NewDynShard(tr, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Backend() != exec.Native {
		t.Fatalf("dyn default backend = %q", d1.Backend())
	}
	d2, err := pool.NewDynShardBackend(tree.MustFromParents(tr.Parents()), 0.2, exec.Sim)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Backend() != exec.Sim {
		t.Fatalf("dyn explicit backend = %q", d2.Backend())
	}
}

// TestDynNativeBackend drives mutations through a native-backend
// DynEngine and checks the refreshed epochs keep serving correct
// results with zero model cost.
func TestDynNativeBackend(t *testing.T) {
	tr := tree.RandomAttachment(128, rng.New(13))
	de, err := NewDyn(tr, DynOptions{Options: Options{Backend: exec.Native, Seed: 2}, Epsilon: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(14)
	for i := 0; i < 20; i++ {
		if _, err := de.InsertLeaf(r.Intn(de.N())); err != nil {
			t.Fatal(err)
		}
		cur, err := de.Tree()
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]int64, cur.N())
		for j := range vals {
			vals[j] = int64(r.Intn(50))
		}
		res := de.SubmitTreefix(vals, treefix.Add).Wait()
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		want := treefix.SequentialBottomUp(cur, vals, treefix.Add)
		for v := range want {
			if res.Sums[v] != want[v] {
				t.Fatalf("mutation %d vertex %d: %d, want %d", i, v, res.Sums[v], want[v])
			}
		}
		qs := []lca.Query{{U: r.Intn(cur.N()), V: r.Intn(cur.N())}}
		lres := de.SubmitLCA(qs).Wait()
		if lres.Err != nil {
			t.Fatal(lres.Err)
		}
		if want := lca.NewOracle(cur).LCA(qs[0].U, qs[0].V); lres.Answers[0] != want {
			t.Fatalf("mutation %d: lca %d, want %d", i, lres.Answers[0], want)
		}
	}
	if st := de.Stats(); st.Engine.Cost.Energy != 0 {
		t.Fatalf("native dyn engine accumulated model cost: %+v", st.Engine.Cost)
	}
}
