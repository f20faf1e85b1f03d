package spatialtree

import (
	"testing"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	tr := RandomTree(500, 42)
	pl, err := Layout(tr, "hilbert")
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]int64, tr.N())
	for i := range vals {
		vals[i] = 1
	}
	res := TreefixSum(tr, pl, vals)
	if res.Sums[tr.Root()] != int64(tr.N()) {
		t.Fatalf("root subtree sum = %d, want %d", res.Sums[tr.Root()], tr.N())
	}
	if res.Cost.Energy <= 0 || res.Cost.Depth <= 0 || res.Rounds <= 0 {
		t.Fatalf("implausible cost: %+v", res)
	}
	want := SequentialTreefix(tr, vals, OpAdd)
	for v := range want {
		if res.Sums[v] != want[v] {
			t.Fatalf("treefix mismatch at %d", v)
		}
	}
}

func TestPublicAPITopDown(t *testing.T) {
	tr := RandomBinaryTree(300, 7)
	pl, _ := Layout(tr, "zorder")
	vals := make([]int64, tr.N())
	for i := range vals {
		vals[i] = 1
	}
	res := TopDownTreefix(tr, pl, vals, OpAdd, 3)
	depths := tr.Depths()
	for v := 0; v < tr.N(); v++ {
		if res.Sums[v] != int64(depths[v]+1) {
			t.Fatalf("top-down with ones should count path length: v=%d got %d want %d",
				v, res.Sums[v], depths[v]+1)
		}
	}
}

func TestPublicAPILCA(t *testing.T) {
	tr := PhylogeneticTree(200, 11)
	pl, _ := Layout(tr, "hilbert")
	oracle := LCAOracle(tr)
	qs := []Query{{U: 1, V: 2}, {U: 5, V: 300}, {U: 0, V: 17}}
	res := BatchedLCA(tr, pl, qs, 1)
	for i, q := range qs {
		if res.Answers[i] != oracle.LCA(q.U, q.V) {
			t.Fatalf("query %v = %d, want %d", q, res.Answers[i], oracle.LCA(q.U, q.V))
		}
	}
	if res.Layers <= 0 {
		t.Fatal("layers not reported")
	}
}

func TestPublicAPILayoutConstruction(t *testing.T) {
	tr := RandomTree(300, 5)
	ranks, cost, err := BuildLayoutOnMachine(tr, "hilbert", 9)
	if err != nil {
		t.Fatal(err)
	}
	pl, _ := Layout(tr, "hilbert")
	for v := 0; v < tr.N(); v++ {
		if ranks[v] != pl.Order.Rank[v] {
			t.Fatalf("machine-built layout differs at %d", v)
		}
	}
	if cost.Energy <= 0 {
		t.Fatal("no cost recorded")
	}
}

func TestPublicAPIErrors(t *testing.T) {
	tr := RandomTree(10, 1)
	if _, err := Layout(tr, "nope"); err == nil {
		t.Fatal("expected curve error")
	}
	if _, err := LayoutWithOrder(tr, "nope", "hilbert", 1); err == nil {
		t.Fatal("expected order error")
	}
	if _, err := LayoutWithOrder(tr, "bfs", "nope", 1); err == nil {
		t.Fatal("expected curve error")
	}
	if _, _, err := BuildLayoutOnMachine(tr, "nope", 1); err == nil {
		t.Fatal("expected curve error")
	}
	if _, err := NewTree([]int{0, 0}); err == nil {
		t.Fatal("expected invalid tree error")
	}
}

func TestPublicAPIBaselineLayouts(t *testing.T) {
	tr := RandomTree(1000, 3)
	lf, _ := Layout(tr, "hilbert")
	bfs, err := LayoutWithOrder(tr, "bfs", "hilbert", 1)
	if err != nil {
		t.Fatal(err)
	}
	if KernelEnergy(bfs).Energy < KernelEnergy(lf).Energy {
		t.Fatal("BFS layout should not beat light-first on a random tree")
	}
}

func TestPublicAPIParallelEngines(t *testing.T) {
	tr := RandomTree(2000, 9)
	vals := make([]int64, tr.N())
	for i := range vals {
		vals[i] = int64(i % 13)
	}
	e := ParallelTreefixEngine(tr, 4)
	got := e.BottomUpSum(vals)
	want := SequentialTreefix(tr, vals, OpAdd)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("parallel engine mismatch at %d", v)
		}
	}
	le := ParallelLCAEngine(tr, 4)
	o := LCAOracle(tr)
	if le.BatchLCA([]Query{{U: 100, V: 200}})[0] != o.LCA(100, 200) {
		t.Fatal("parallel LCA engine mismatch")
	}
}

func TestPublicAPIApplications(t *testing.T) {
	tr := RandomBinaryTree(100, 21)
	pl, _ := Layout(tr, "hilbert")

	// Expression evaluation.
	e := RandomExpression(100, 22)
	ep, _ := Layout(e.Tree, "hilbert")
	got, cost := EvaluateExpression(e, ep)
	if want := e.EvalSequential()[e.Tree.Root()]; got != want {
		t.Fatalf("expression eval = %d, want %d", got, want)
	}
	if cost.Energy <= 0 {
		t.Fatal("no cost recorded for expression eval")
	}

	// Minimum cut.
	edges := []GraphEdge{}
	for v := 1; v < tr.N(); v++ {
		edges = append(edges, GraphEdge{U: tr.Parent(v), V: v, W: 2})
	}
	res, cutCost, err := OneRespectingMinCut(tr, pl, edges, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.MinWeight != 2 {
		t.Fatalf("tree-only graph min cut = %d, want 2", res.MinWeight)
	}
	if cutCost.Energy <= 0 {
		t.Fatal("no cost recorded for min cut")
	}
}

func TestPublicAPIDynamicLayout(t *testing.T) {
	tr := RandomTree(200, 30)
	d, err := NewDynamicLayout(tr, "hilbert", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := d.InsertLeaf(i % d.N()); err != nil {
			t.Fatal(err)
		}
	}
	if d.N() != 500 {
		t.Fatalf("n = %d", d.N())
	}
	fresh, err := d.FreshKernelCost()
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(d.KernelCost().Energy) / float64(fresh.Energy)
	if ratio > 4 {
		t.Fatalf("dynamic layout drifted to %.2fx", ratio)
	}
	if _, err := NewDynamicLayout(tr, "nope", 0.2); err == nil {
		t.Fatal("expected curve error")
	}
}

func TestCurveRegistryExposed(t *testing.T) {
	if len(Curves()) < 6 {
		t.Fatal("curve registry too small")
	}
	c, err := CurveByName("hilbert")
	if err != nil || c.Name() != "hilbert" {
		t.Fatal("CurveByName broken")
	}
}

func TestPublicAPIDynEngine(t *testing.T) {
	tr := RandomTree(300, 31)
	cache := NewLayoutCache(8)
	eng, err := NewDynEngine(tr, DynEngineOptions{
		Options: EngineOptions{Curve: "hilbert", Window: 8, Cache: cache},
		Epsilon: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 0 {
		t.Fatalf("construction put %d dyn placements in the shared cache, want 0", cache.Len())
	}

	// Serve, mutate, serve again: results must track the current tree.
	ones := make([]int64, eng.N())
	for i := range ones {
		ones[i] = 1
	}
	if res := eng.SubmitTreefix(ones, OpAdd).Wait(); res.Err != nil || res.Sums[tr.Root()] != 300 {
		t.Fatalf("initial treefix: err=%v rootsum=%v", res.Err, res.Sums[tr.Root()])
	}
	v, err := eng.InsertLeaf(0)
	if err != nil {
		t.Fatal(err)
	}
	if res := eng.SubmitLCA([]Query{{U: v, V: 1}}).Wait(); res.Err != nil {
		t.Fatal(res.Err)
	}
	if _, err := eng.DeleteLeaf(v); err != nil {
		t.Fatal(err)
	}
	ones = ones[:eng.N()]
	if res := eng.SubmitTreefix(ones, OpAdd).Wait(); res.Err != nil || res.Sums[tr.Root()] != 300 {
		t.Fatalf("post-churn treefix: err=%v rootsum=%v", res.Err, res.Sums[tr.Root()])
	}

	// Invalid inputs come back as errors — never panics — through every
	// exported entry point.
	if _, err := eng.InsertLeaf(-5); err == nil {
		t.Error("bad parent accepted")
	}
	if _, err := eng.DeleteLeaf(0); err == nil {
		t.Error("root deletion accepted")
	}
	if res := eng.SubmitTreefix(make([]int64, 2), OpAdd).Wait(); res.Err == nil {
		t.Error("short vals accepted")
	}
	if res := eng.SubmitLCA([]Query{{U: 0, V: 1 << 20}}).Wait(); res.Err == nil {
		t.Error("out-of-range query accepted")
	}
	if _, err := NewDynEngine(tr, DynEngineOptions{Options: EngineOptions{Curve: "warp"}}); err == nil {
		t.Error("unknown curve accepted")
	}

	st := eng.Stats()
	if st.Epoch != 2 || st.Inserts != 1 || st.Deletes != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Engine.Requests == 0 {
		t.Fatal("engine requests not counted")
	}
	// Mutations superseded the construction placement and no dynlayout
	// rebuild has happened yet, so the stale entry is invalidated and
	// nothing replaces it until the next rebuild boundary.
	if cache.Len() != 0 {
		t.Fatalf("cache holds %d entries after mutations, want 0 (stale invalidated)", cache.Len())
	}
}

func TestPublicAPIDynamicLayoutDelete(t *testing.T) {
	tr := RandomTree(100, 32)
	d, err := NewDynamicLayout(tr, "hilbert", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	v, err := d.InsertLeaf(0)
	if err != nil {
		t.Fatal(err)
	}
	moved, err := d.DeleteLeaf(v)
	if err != nil {
		t.Fatal(err)
	}
	if moved != v {
		t.Fatalf("deleting the last id moved %d", moved)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Tree(); err != nil {
		t.Fatal(err)
	}
}
