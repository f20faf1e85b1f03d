package engine

import (
	"errors"
	"slices"
	"testing"

	"spatialtree/internal/exec"
	"spatialtree/internal/exprtree"
	"spatialtree/internal/lca"
	"spatialtree/internal/mincut"
	"spatialtree/internal/rng"
	"spatialtree/internal/sfc"
	"spatialtree/internal/tree"
	"spatialtree/internal/treefix"
)

func testTree(n int, seed uint64) *tree.Tree {
	return tree.RandomAttachment(n, rng.New(seed))
}

func testVals(n int, seed uint64) []int64 {
	r := rng.New(seed)
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(r.Intn(1000)) - 500
	}
	return vals
}

func TestEngineMatchesDirectCalls(t *testing.T) {
	tr := testTree(300, 1)
	eng, err := New(tr, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	vals := testVals(tr.N(), 2)

	futBU := eng.SubmitTreefix(vals, treefix.Add)
	futTD := eng.SubmitTopDown(vals, treefix.Max)

	qr := rng.New(3)
	queries := make([]lca.Query, 50)
	for i := range queries {
		queries[i] = lca.Query{U: qr.Intn(tr.N()), V: qr.Intn(tr.N())}
	}
	futLCA := eng.SubmitLCA(queries)

	edges := mincut.RandomGraph(tr, 100, 10, rng.New(4))
	futCut := eng.SubmitMinCut(edges)

	if eng.Pending() != 4 {
		t.Fatalf("Pending = %d, want 4", eng.Pending())
	}
	eng.Flush()

	wantBU := treefix.SequentialBottomUp(tr, vals, treefix.Add)
	resBU := futBU.Wait()
	if resBU.Err != nil {
		t.Fatal(resBU.Err)
	}
	for v, want := range wantBU {
		if resBU.Sums[v] != want {
			t.Fatalf("bottom-up sum[%d] = %d, want %d", v, resBU.Sums[v], want)
		}
	}

	wantTD := treefix.SequentialTopDown(tr, vals, treefix.Max)
	resTD := futTD.Wait()
	for v, want := range wantTD {
		if resTD.Sums[v] != want {
			t.Fatalf("top-down max[%d] = %d, want %d", v, resTD.Sums[v], want)
		}
	}

	oracle := lca.NewOracle(tr)
	resLCA := futLCA.Wait()
	for i, q := range queries {
		if want := oracle.LCA(q.U, q.V); resLCA.Answers[i] != want {
			t.Fatalf("lca(%d,%d) = %d, want %d", q.U, q.V, resLCA.Answers[i], want)
		}
	}

	wantCut := mincut.OneRespectingSequential(tr, edges)
	resCut := futCut.Wait()
	if resCut.Err != nil {
		t.Fatal(resCut.Err)
	}
	if resCut.MinCut.MinWeight != wantCut.MinWeight {
		t.Fatalf("min cut = %d, want %d", resCut.MinCut.MinWeight, wantCut.MinWeight)
	}

	st := eng.Stats()
	if st.Batches != 1 {
		t.Fatalf("Batches = %d, want 1 (all four requests coalesced)", st.Batches)
	}
	if st.Requests != 4 {
		t.Fatalf("Requests = %d, want 4", st.Requests)
	}
	if st.Cost.Energy <= 0 || st.Cost.Messages <= 0 {
		t.Fatalf("batch cost not recorded: %+v", st.Cost)
	}
}

func TestEngineExprEval(t *testing.T) {
	x := exprtree.Random(64, rng.New(9))
	eng, err := New(x.Tree, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := eng.SubmitExpr(x).Wait()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if want := x.EvalSequential()[x.Tree.Root()]; res.Value != want {
		t.Fatalf("expr value = %d, want %d", res.Value, want)
	}
}

func TestEngineLCACoalescing(t *testing.T) {
	tr := testTree(200, 5)
	eng, err := New(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	oracle := lca.NewOracle(tr)
	qr := rng.New(6)
	var futs []*Future
	var allQueries [][]lca.Query
	for b := 0; b < 8; b++ {
		qs := make([]lca.Query, 10)
		for i := range qs {
			qs[i] = lca.Query{U: qr.Intn(tr.N()), V: qr.Intn(tr.N())}
		}
		allQueries = append(allQueries, qs)
		futs = append(futs, eng.SubmitLCA(qs))
	}
	eng.Flush()
	for b, fut := range futs {
		res := fut.Wait()
		for i, q := range allQueries[b] {
			if want := oracle.LCA(q.U, q.V); res.Answers[i] != want {
				t.Fatalf("batch %d lca(%d,%d) = %d, want %d", b, q.U, q.V, res.Answers[i], want)
			}
		}
	}
	st := eng.Stats()
	if st.LCARuns != 1 {
		t.Fatalf("LCARuns = %d, want 1 (8 sub-batches coalesced into one run)", st.LCARuns)
	}
	if st.LCAQueries != 80 {
		t.Fatalf("LCAQueries = %d, want 80", st.LCAQueries)
	}
}

func TestEngineWindowAutoFlush(t *testing.T) {
	tr := testTree(100, 7)
	eng, err := New(tr, Options{Window: 3})
	if err != nil {
		t.Fatal(err)
	}
	vals := testVals(tr.N(), 8)
	f1 := eng.SubmitTreefix(vals, treefix.Add)
	f2 := eng.SubmitTreefix(vals, treefix.Xor)
	if f1.Done() || f2.Done() {
		t.Fatal("futures resolved before the window filled")
	}
	f3 := eng.SubmitTreefix(vals, treefix.Min)
	// The third submission fills the window; it flushes inline, so all
	// three futures must be resolved without any explicit Flush.
	for i, f := range []*Future{f1, f2, f3} {
		if !f.Done() {
			t.Fatalf("future %d unresolved after window auto-flush", i)
		}
	}
	if st := eng.Stats(); st.Batches != 1 || st.Requests != 3 {
		t.Fatalf("stats = %+v, want 1 batch / 3 requests", st)
	}
}

func TestFutureWaitFlushes(t *testing.T) {
	tr := testTree(100, 9)
	eng, err := New(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	vals := testVals(tr.N(), 10)
	fut := eng.SubmitTreefix(vals, treefix.Add)
	// No Flush call: Wait itself must trigger one instead of hanging.
	res := fut.Wait()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if eng.Pending() != 0 {
		t.Fatalf("Pending = %d after Wait, want 0", eng.Pending())
	}
}

func TestSubmitValidation(t *testing.T) {
	tr := testTree(50, 11)
	eng, err := New(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res := eng.SubmitTreefix(make([]int64, 7), treefix.Add).Wait(); res.Err == nil {
		t.Fatal("short vals accepted")
	}
	if res := eng.SubmitLCA([]lca.Query{{U: -1, V: 0}}).Wait(); res.Err == nil {
		t.Fatal("out-of-range query accepted")
	}
	other := exprtree.Random(8, rng.New(1))
	if res := eng.SubmitExpr(other).Wait(); res.Err == nil {
		t.Fatal("mismatched expression tree accepted")
	}
	if res := eng.SubmitMinCut(
		[]mincut.Edge{{U: 0, V: tr.N() + 5, W: 1}},
	).Wait(); res.Err == nil {
		t.Fatal("out-of-range edge accepted")
	}
}

func TestLayoutCacheLRU(t *testing.T) {
	cache := NewLayoutCache(2)
	curve := sfc.Hilbert{}
	t1, t2, t3 := testTree(60, 1), testTree(60, 2), testTree(60, 3)

	p1 := cache.GetOrBuild(t1, Fingerprint(t1), curve)
	cache.GetOrBuild(t2, Fingerprint(t2), curve)
	if got := cache.GetOrBuild(t1, Fingerprint(t1), curve); got != p1 {
		t.Fatal("re-lookup of t1 did not hit the cache")
	}
	// t1 is now most recent; inserting t3 must evict t2.
	cache.GetOrBuild(t3, Fingerprint(t3), curve)
	st := cache.Stats()
	if st.Evictions != 1 || st.Size != 2 {
		t.Fatalf("cache stats = %+v, want 1 eviction at size 2", st)
	}
	if st.Hits < 1 {
		t.Fatalf("hits = %d, want >= 1", st.Hits)
	}
	if got := cache.GetOrBuild(t1, Fingerprint(t1), curve); got != p1 {
		t.Fatal("t1 should have survived (recently used)")
	}
	if cache.GetOrBuild(t2, Fingerprint(t2), curve); cache.Stats().Builds != st.Builds+1 {
		t.Fatal("t2 should have been evicted (LRU) and rebuilt")
	}
}

func TestEngineSharedCacheHit(t *testing.T) {
	cache := NewLayoutCache(8)
	tr := testTree(200, 13)
	if _, err := New(tr, Options{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	// A structurally identical tree (same parents, distinct object) must
	// hit the cache on engine construction.
	clone := tree.MustFromParents(tr.Parents())
	eng2, err := New(clone, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	st := eng2.Stats().Cache
	if st.Hits == 0 {
		t.Fatalf("cache stats = %+v, want a hit for the cloned tree", st)
	}
	if st.Size != 1 {
		t.Fatalf("cache size = %d, want 1 (one layout shared)", st.Size)
	}
}

func TestFingerprintDistinguishesTrees(t *testing.T) {
	a, b := testTree(500, 1), testTree(500, 2)
	if Fingerprint(a) == Fingerprint(b) {
		t.Fatal("distinct random trees collided")
	}
	if Fingerprint(a) != Fingerprint(tree.MustFromParents(a.Parents())) {
		t.Fatal("identical parent arrays fingerprint differently")
	}
}

func TestPoolShardsByTree(t *testing.T) {
	pool := NewPool(Options{Seed: 3})
	trees := []*tree.Tree{testTree(120, 1), testTree(120, 2), testTree(120, 3)}
	type job struct {
		fut  *Future
		want []int64
	}
	var jobs []job
	for i, tr := range trees {
		e, err := pool.Engine(tr)
		if err != nil {
			t.Fatal(err)
		}
		vals := testVals(tr.N(), uint64(20+i))
		jobs = append(jobs, job{
			fut:  e.SubmitTreefix(vals, treefix.Add),
			want: treefix.SequentialBottomUp(tr, vals, treefix.Add),
		})
	}
	if pool.Size() != 3 {
		t.Fatalf("pool size = %d, want 3", pool.Size())
	}
	pool.FlushAll()
	for i, j := range jobs {
		res := j.fut.Wait()
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		for v, want := range j.want {
			if res.Sums[v] != want {
				t.Fatalf("tree %d sum[%d] = %d, want %d", i, v, res.Sums[v], want)
			}
		}
	}
	// Same tree again routes to the same shard.
	e1a, _ := pool.Engine(trees[0])
	e1b, _ := pool.Engine(tree.MustFromParents(trees[0].Parents()))
	if e1a != e1b {
		t.Fatal("structurally identical trees landed on different shards")
	}
	st := pool.Stats()
	if st.Batches != 3 || st.Requests != 3 {
		t.Fatalf("pool stats = %+v, want 3 batches / 3 requests", st)
	}
}

// TestPoolCollision: a shard is identified by its parent array, not by
// its fingerprint alone. Tree b arrives under tree a's fingerprint, as a
// hash collision would bring it: Shard refuses it on either backend
// choice and changes nothing, and Lookup answers only a's exact array.
func TestPoolCollision(t *testing.T) {
	pool := NewPool(Options{Backend: exec.Native})
	a, b := testTree(60, 1), testTree(60, 2)
	fpA := Fingerprint(a)
	if FingerprintParents(a.Parents()) != fpA {
		t.Fatal("FingerprintParents disagrees with Fingerprint")
	}
	ea, err := pool.Engine(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []string{"", exec.Sim} {
		if e, err := pool.Shard(b, fpA, backend); !errors.Is(err, ErrCollision) || e != nil {
			t.Errorf("b under a's fingerprint on %q: engine %p, err %v, want a collision", backend, e, err)
		}
	}
	if ea.Backend() != exec.Native || pool.Size() != 1 || !slices.Equal(ea.Tree().Parents(), a.Parents()) {
		t.Errorf("a collision changed the pool: a on %s, size %d", ea.Backend(), pool.Size())
	}
	if got := pool.Lookup(fpA, a.Parents()); got != ea {
		t.Errorf("Lookup of a = %p, want its shard %p", got, ea)
	}
	if got := pool.Lookup(fpA, b.Parents()); got != nil {
		t.Errorf("Lookup of b under a's fingerprint = %p, want nil", got)
	}
	if got := pool.Lookup(Fingerprint(b), b.Parents()); got != nil {
		t.Errorf("Lookup of b before its shard exists = %p, want nil", got)
	}
}

func TestEngineDeterministicPerBatchSeed(t *testing.T) {
	tr := testTree(150, 17)
	vals := testVals(tr.N(), 18)
	run := func() (sums []int64, energy int64) {
		eng, err := New(tr, Options{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		res := eng.SubmitTreefix(vals, treefix.Add).Wait()
		return res.Sums, res.Cost.Energy
	}
	s1, c1 := run()
	s2, c2 := run()
	if c1 != c2 {
		t.Fatalf("same seed produced different batch costs: %d vs %d", c1, c2)
	}
	for v := range s1 {
		if s1[v] != s2[v] {
			t.Fatalf("same seed produced different sums at %d", v)
		}
	}
}
