package exec

import (
	"sync"
	"testing"

	"spatialtree/internal/exprtree"
	"spatialtree/internal/layout"
	"spatialtree/internal/lca"
	"spatialtree/internal/machine"
	"spatialtree/internal/mincut"
	"spatialtree/internal/rng"
	"spatialtree/internal/sfc"
	"spatialtree/internal/tree"
	"spatialtree/internal/treefix"
)

func testConfig(t *testing.T, tr *tree.Tree) Config {
	t.Helper()
	return Config{
		Tree:      tr,
		Placement: layout.LightFirst(tr, sfc.Hilbert{}),
	}
}

func TestNamesAndNormalize(t *testing.T) {
	if Normalize("") != Sim {
		t.Fatal("empty backend must normalize to sim")
	}
	for _, name := range Names() {
		if !Valid(name) {
			t.Fatalf("registered backend %q invalid", name)
		}
	}
	if Valid("warp") {
		t.Fatal("unknown backend accepted")
	}
	if _, err := New("warp", Config{Tree: tree.MustFromParents([]int{-1})}); err == nil {
		t.Fatal("New accepted unknown backend")
	}
	if _, err := New(Native, Config{}); err == nil {
		t.Fatal("New accepted nil tree")
	}
	if _, err := New(Sim, Config{Tree: tree.MustFromParents([]int{-1})}); err == nil {
		t.Fatal("sim backend accepted nil placement")
	}
}

// TestBackendsAgree runs every kernel through both backends and the
// host oracles on shared inputs: the differential core of the layer.
func TestBackendsAgree(t *testing.T) {
	for _, n := range []int{2, 16, 257} {
		tr := tree.RandomAttachment(n, rng.New(uint64(n)))
		cfg := testConfig(t, tr)
		simB, err := New(Sim, cfg)
		if err != nil {
			t.Fatal(err)
		}
		natB, err := New(Native, cfg)
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]int64, n)
		r := rng.New(uint64(n) + 1)
		for i := range vals {
			vals[i] = int64(r.Intn(999)) - 499
		}
		for _, op := range []treefix.Op{treefix.Add, treefix.Max, treefix.Min, treefix.Xor} {
			wantBU := treefix.SequentialBottomUp(tr, vals, op)
			wantTD := treefix.SequentialTopDown(tr, vals, op)
			for _, be := range []Backend{simB, natB} {
				run := be.Run(7)
				gotBU, err := run.BottomUp(vals, op)
				if err != nil {
					t.Fatal(err)
				}
				gotTD, err := run.TopDown(vals, op)
				if err != nil {
					t.Fatal(err)
				}
				for v := 0; v < n; v++ {
					if gotBU[v] != wantBU[v] || gotTD[v] != wantTD[v] {
						t.Fatalf("n=%d backend=%s op=%s vertex %d: (%d,%d), want (%d,%d)",
							n, be.Name(), op.Name, v, gotBU[v], gotTD[v], wantBU[v], wantTD[v])
					}
				}
			}
		}
		queries := make([]lca.Query, n/2+1)
		for i := range queries {
			queries[i] = lca.Query{U: r.Intn(n), V: r.Intn(n)}
		}
		oracle := lca.NewOracle(tr)
		edges := mincut.RandomGraph(tr, n/2, 9, rng.New(uint64(n)+2))
		wantCut := mincut.OneRespectingSequential(tr, edges)
		for _, be := range []Backend{simB, natB} {
			run := be.Run(8)
			answers, err := run.LCA(queries)
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range queries {
				if want := oracle.LCA(q.U, q.V); answers[i] != want {
					t.Fatalf("n=%d backend=%s query %d: %d, want %d", n, be.Name(), i, answers[i], want)
				}
			}
			cut, err := run.MinCut(edges)
			if err != nil {
				t.Fatal(err)
			}
			if cut.MinWeight != wantCut.MinWeight || cut.ArgVertex != wantCut.ArgVertex {
				t.Fatalf("n=%d backend=%s: cut (%d, v%d), want (%d, v%d)",
					n, be.Name(), cut.MinWeight, cut.ArgVertex, wantCut.MinWeight, wantCut.ArgVertex)
			}
		}
	}
	// Expression kernel (its own tree shape: full binary).
	x := exprtree.Random(64, rng.New(9))
	want := x.EvalSequential()[x.Tree.Root()]
	cfg := testConfig(t, x.Tree)
	for _, name := range Names() {
		be, err := New(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := be.Run(3).Expr(x)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("backend=%s: expr %d, want %d", name, got, want)
		}
	}
}

// TestCostContract pins the metering split: sim runs meter every
// message, native runs meter nothing.
func TestCostContract(t *testing.T) {
	tr := tree.RandomAttachment(64, rng.New(3))
	cfg := testConfig(t, tr)
	vals := make([]int64, tr.N())
	simB, err := New(Sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := simB.Run(1)
	if _, err := run.BottomUp(vals, treefix.Add); err != nil {
		t.Fatal(err)
	}
	if c := run.Cost(); c.Energy <= 0 || c.Messages <= 0 || c.Depth <= 0 {
		t.Fatalf("sim run metered nothing: %+v", c)
	}
	natB, err := New(Native, cfg)
	if err != nil {
		t.Fatal(err)
	}
	nrun := natB.Run(1)
	if _, err := nrun.BottomUp(vals, treefix.Add); err != nil {
		t.Fatal(err)
	}
	if c := nrun.Cost(); c != (machine.Cost{}) {
		t.Fatalf("native run metered: %+v", c)
	}
}

// TestNativeHammer is the race-detector hammer over the native kernels:
// one shared backend, many goroutines issuing mixed concurrent runs
// (the engine runs distinct batches concurrently on one backend, so the
// shared preprocessed state must be race-free under load).
func TestNativeHammer(t *testing.T) {
	tr := tree.RandomAttachment(512, rng.New(11))
	be, err := New(Native, testConfig(t, tr))
	if err != nil {
		t.Fatal(err)
	}
	n := tr.N()
	oracle := lca.NewOracle(tr)
	edges := mincut.RandomGraph(tr, n/2, 7, rng.New(12))
	wantCut := mincut.OneRespectingSequential(tr, edges)
	x := exprtree.Random(128, rng.New(13))
	wantExpr := x.EvalSequential()[x.Tree.Root()]
	exprBE, err := New(Native, testConfig(t, x.Tree))
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(g) + 100)
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = int64(r.Intn(1000))
			}
			for iter := 0; iter < 8; iter++ {
				run := be.Run(uint64(iter))
				switch (g + iter) % 4 {
				case 0:
					op := []treefix.Op{treefix.Add, treefix.Max, treefix.Min, treefix.Xor}[iter%4]
					want := treefix.SequentialBottomUp(tr, vals, op)
					got, err := run.BottomUp(vals, op)
					if err != nil {
						t.Error(err)
						return
					}
					for v := range want {
						if got[v] != want[v] {
							t.Errorf("hammer bottom-up mismatch at %d", v)
							return
						}
					}
				case 1:
					qs := []lca.Query{{U: r.Intn(n), V: r.Intn(n)}, {U: r.Intn(n), V: r.Intn(n)}}
					got, err := run.LCA(qs)
					if err != nil {
						t.Error(err)
						return
					}
					for i, q := range qs {
						if got[i] != oracle.LCA(q.U, q.V) {
							t.Errorf("hammer LCA mismatch")
							return
						}
					}
				case 2:
					got, err := run.MinCut(edges)
					if err != nil {
						t.Error(err)
						return
					}
					if got.MinWeight != wantCut.MinWeight {
						t.Errorf("hammer min-cut mismatch")
						return
					}
				case 3:
					got, err := exprBE.Run(uint64(iter)).Expr(x)
					if err != nil {
						t.Error(err)
						return
					}
					if got != wantExpr {
						t.Errorf("hammer expr mismatch")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestNativeBuildsKernelsLazily pins that a native backend builds each
// kernel's preprocessing on first use: a shard that has served only
// treefix has not built the LCA table, and one that has served only LCA
// has not built the min-cut executor.
func TestNativeBuildsKernelsLazily(t *testing.T) {
	tr := tree.RandomAttachment(256, rng.New(3))
	newBackend := func() *nativeBackend {
		be, err := New(Native, testConfig(t, tr))
		if err != nil {
			t.Fatal(err)
		}
		return be.(*nativeBackend)
	}
	tf := newBackend()
	if _, err := tf.Run(1).TopDown(make([]int64, tr.N()), treefix.Max); err != nil {
		t.Fatal(err)
	}
	if tf.lcaEng != nil {
		t.Fatal("a treefix-only native backend built its LCA table")
	}
	lc := newBackend()
	if _, err := lc.Run(2).LCA([]lca.Query{{U: 1, V: 2}}); err != nil {
		t.Fatal(err)
	}
	if lc.lcaEng == nil || lc.tfEng == nil {
		t.Fatal("an LCA request did not build the LCA table over the treefix preorder")
	}
	if lc.mc != nil {
		t.Fatal("an LCA-only native backend built its min-cut executor")
	}
}
