package lca

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"spatialtree/internal/machine"
	"spatialtree/internal/order"
	"spatialtree/internal/rng"
	"spatialtree/internal/sfc"
	"spatialtree/internal/tree"
	"spatialtree/internal/treefix"
)

func lfRanks(t *tree.Tree) []int { return order.LightFirst(t).Rank }

// naiveLCA walks parent pointers; the oracle's oracle.
func naiveLCA(t *tree.Tree, u, v int) int {
	seen := map[int]bool{}
	for x := u; x != -1; x = t.Parent(x) {
		seen[x] = true
	}
	for x := v; x != -1; x = t.Parent(x) {
		if seen[x] {
			return x
		}
	}
	return -1
}

func testTrees(r *rng.RNG) []*tree.Tree {
	return []*tree.Tree{
		tree.Path(25),
		tree.Star(30),
		tree.PerfectBinary(6),
		tree.Caterpillar(31),
		tree.Broom(24),
		tree.Comb(5, 4),
		tree.RandomAttachment(250, r),
		tree.PreferentialAttachment(200, r),
		tree.Yule(70, r),
	}
}

// disjointQueries builds queries in which every vertex appears at most
// once, the regime of Theorem 6.
func disjointQueries(n int, r *rng.RNG) []Query {
	perm := r.Perm(n)
	var qs []Query
	for i := 0; i+1 < n; i += 2 {
		qs = append(qs, Query{U: perm[i], V: perm[i+1]})
	}
	return qs
}

func TestOracleAgainstNaive(t *testing.T) {
	r := rng.New(1)
	for _, tr := range testTrees(r) {
		o := NewOracle(tr)
		for trial := 0; trial < 100; trial++ {
			u, v := r.Intn(tr.N()), r.Intn(tr.N())
			if got, want := o.LCA(u, v), naiveLCA(tr, u, v); got != want {
				t.Fatalf("n=%d: oracle LCA(%d,%d) = %d, want %d", tr.N(), u, v, got, want)
			}
		}
	}
}

func TestOracleEdgeCases(t *testing.T) {
	tr := tree.Path(10)
	o := NewOracle(tr)
	if o.LCA(5, 5) != 5 {
		t.Error("LCA(v,v) != v")
	}
	if o.LCA(0, 9) != 0 {
		t.Error("LCA(root, leaf) != root")
	}
	if o.LCA(3, 7) != 3 {
		t.Error("path LCA should be the shallower vertex")
	}
	single := tree.Path(1)
	if NewOracle(single).LCA(0, 0) != 0 {
		t.Error("single-vertex LCA")
	}
}

func TestBatchedMatchesOracle(t *testing.T) {
	r := rng.New(2)
	for _, tr := range testTrees(r) {
		o := NewOracle(tr)
		qs := disjointQueries(tr.N(), r)
		s := machine.New(tr.N(), sfc.Hilbert{})
		got, st := Batched(s, tr, lfRanks(tr), qs, rng.New(uint64(tr.N())))
		for i, q := range qs {
			want := o.LCA(q.U, q.V)
			if got[i] != want {
				t.Fatalf("n=%d: query %v = %d, want %d (stats %+v)", tr.N(), q, got[i], want, st)
			}
		}
		if st.AncestorAnswered+st.CoverAnswered != len(qs) {
			t.Fatalf("n=%d: answered %d+%d of %d", tr.N(), st.AncestorAnswered, st.CoverAnswered, len(qs))
		}
	}
}

func TestBatchedManySeeds(t *testing.T) {
	r := rng.New(3)
	tr := tree.PreferentialAttachment(300, r)
	o := NewOracle(tr)
	qs := disjointQueries(tr.N(), r)
	for seed := uint64(0); seed < 8; seed++ {
		s := machine.New(tr.N(), sfc.Hilbert{})
		got, _ := Batched(s, tr, lfRanks(tr), qs, rng.New(seed))
		for i, q := range qs {
			if got[i] != o.LCA(q.U, q.V) {
				t.Fatalf("seed %d: query %v wrong", seed, q)
			}
		}
	}
}

func TestBatchedQuick(t *testing.T) {
	f := func(seed uint64, rawN uint16) bool {
		n := 2 + int(rawN)%300
		r := rng.New(seed)
		tr := tree.RandomAttachment(n, r)
		o := NewOracle(tr)
		qs := disjointQueries(n, r)
		s := machine.New(n, sfc.Hilbert{})
		got, _ := Batched(s, tr, lfRanks(tr), qs, r)
		for i, q := range qs {
			if got[i] != o.LCA(q.U, q.V) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBatchedRepeatedEndpoints(t *testing.T) {
	// Queries sharing vertices (beyond the O(1) assumption) must still
	// be answered correctly.
	r := rng.New(4)
	tr := tree.RandomAttachment(100, r)
	o := NewOracle(tr)
	var qs []Query
	for i := 0; i < 50; i++ {
		qs = append(qs, Query{U: r.Intn(100), V: r.Intn(100)})
	}
	s := machine.New(tr.N(), sfc.Hilbert{})
	got, _ := Batched(s, tr, lfRanks(tr), qs, r)
	for i, q := range qs {
		if got[i] != o.LCA(q.U, q.V) {
			t.Fatalf("query %v = %d, want %d", q, got[i], o.LCA(q.U, q.V))
		}
	}
}

func TestLayersLogarithmic(t *testing.T) {
	// Section VI-A: the heavy-light decomposition from light-first order
	// has O(log n) layers.
	for _, bits := range []int{10, 13} {
		n := 1 << bits
		tr := tree.RandomAttachment(n, rng.New(uint64(bits)))
		qs := disjointQueries(n, rng.New(1))
		s := machine.New(n, sfc.Hilbert{})
		_, st := Batched(s, tr, lfRanks(tr), qs, rng.New(2))
		if st.Layers > 2*bits+2 {
			t.Errorf("n=2^%d: %d layers, want <= 2·log2(n)", bits, st.Layers)
		}
	}
}

func TestTheorem6Costs(t *testing.T) {
	// Near-linear energy (slope about 1 in log-log) and O(log² n) depth.
	var ns, es []float64
	for _, bits := range []int{9, 11, 13} {
		n := 1 << bits
		tr := tree.RandomBoundedDegree(n, 2, rng.New(uint64(bits)))
		qs := disjointQueries(n, rng.New(3))
		s := machine.New(n, sfc.Hilbert{})
		Batched(s, tr, lfRanks(tr), qs, rng.New(4))
		ns = append(ns, float64(n))
		es = append(es, float64(s.Energy()))
		if d := float64(s.Depth()); d > 25*float64(bits*bits) {
			t.Errorf("n=2^%d: LCA depth %.0f above O(log² n) envelope", bits, d)
		}
	}
	slope := logLogSlope(ns, es)
	if slope > 1.35 {
		t.Errorf("LCA energy exponent %.3f, want near-linear", slope)
	}
}

func TestQueryLoad(t *testing.T) {
	qs := []Query{{0, 1}, {0, 2}, {3, 3}}
	if got := QueryLoad(5, qs); got != 2 {
		t.Fatalf("QueryLoad = %d, want 2", got)
	}
	if got := QueryLoad(5, nil); got != 0 {
		t.Fatalf("QueryLoad(empty) = %d", got)
	}
}

// TestEngineMatchesOracle checks the native engine against the oracle on
// every pair of vertices, u = v included: the shared shapes, the one- and
// two-vertex paths, and a relabelled tree whose root is not 0 and whose
// parent ids exceed some of their children's.
func TestEngineMatchesOracle(t *testing.T) {
	r := rng.New(5)
	relabelled := tree.RelabelRandom(tree.RandomAttachment(200, r), r)
	above := false
	for v := 0; v < relabelled.N(); v++ {
		above = above || relabelled.Parent(v) > v
	}
	if relabelled.Root() == 0 || !above {
		t.Fatal("the relabelled tree keeps its root at 0 or every parent id below its children's")
	}
	for _, tr := range append(testTrees(r), tree.Path(1), tree.Path(2), relabelled) {
		o := NewOracle(tr)
		e := NewEngine(treefix.NewEngine(tr, 4), 4)
		n := tr.N()
		qs := make([]Query, 0, n*n)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				qs = append(qs, Query{U: u, V: v})
			}
		}
		got := e.BatchLCA(qs)
		for i, q := range qs {
			if want := o.LCA(q.U, q.V); got[i] != want {
				t.Fatalf("n=%d root=%d: engine LCA%v = %d, want %d", n, tr.Root(), q, got[i], want)
			}
		}
	}
}

func TestEngineQuick(t *testing.T) {
	f := func(seed uint64, rawN uint16, a, b uint16) bool {
		n := 2 + int(rawN)%400
		r := rng.New(seed)
		tr := tree.PreferentialAttachment(n, r)
		e := NewEngine(treefix.NewEngine(tr, 2), 2)
		u, v := int(a)%n, int(b)%n
		return e.BatchLCA([]Query{{u, v}})[0] == naiveLCA(tr, u, v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestEngineDefaultWorkers pins that workers <= 0 resolves to
// par.Workers() when the engine is built: at GOMAXPROCS(1), an engine
// built with workers 0 answers a batch into a warm dst on the
// closure-free one-worker path, allocating nothing.
func TestEngineDefaultWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tr := tree.RandomAttachment(1<<10, rng.New(6))
	e := NewEngine(treefix.NewEngine(tr, 0), 0)
	qs := make([]Query, 256)
	r := rng.New(7)
	for i := range qs {
		qs[i] = Query{U: r.Intn(tr.N()), V: r.Intn(tr.N())}
	}
	dst := e.BatchLCAInto(nil, qs)
	if allocs := testing.AllocsPerRun(50, func() { dst = e.BatchLCAInto(dst, qs) }); allocs != 0 {
		t.Fatalf("a warm BatchLCAInto at workers 0 allocates %.1f times per call, want 0", allocs)
	}
}

func TestBatchedEmptyInputs(t *testing.T) {
	tr := tree.Path(5)
	s := machine.New(5, sfc.Hilbert{})
	ans, st := Batched(s, tr, lfRanks(tr), nil, rng.New(1))
	if len(ans) != 0 || st.Layers != 0 {
		t.Fatal("empty query batch should be a no-op")
	}
}

func logLogSlope(xs, ys []float64) float64 {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}
