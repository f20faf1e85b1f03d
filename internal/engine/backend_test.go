package engine

import (
	"errors"
	"slices"
	"testing"

	"spatialtree/internal/exec"
	"spatialtree/internal/exprtree"
	"spatialtree/internal/layout"
	"spatialtree/internal/lca"
	"spatialtree/internal/machine"
	"spatialtree/internal/mincut"
	"spatialtree/internal/persist"
	"spatialtree/internal/rng"
	"spatialtree/internal/sfc"
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

// TestPoolBackendSharding pins the pool key: a tree has one shard
// whatever its backend. Shard switches that shard in place —
// its counters carry across, and its batch seeds restart as on a fresh
// engine — while Engine never switches it.
func TestPoolBackendSharding(t *testing.T) {
	tr := tree.RandomAttachment(64, rng.New(12))
	pool := NewPool(Options{Backend: exec.Native, Seed: 5})
	a, err := pool.Engine(tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pool.Shard(tree.MustFromParents(tr.Parents()), Fingerprint(tr), exec.Native)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same tree+backend produced distinct shards")
	}
	vals := make([]int64, tr.N())
	for i := range vals {
		vals[i] = int64(i)
	}
	for i := 0; i < 2; i++ {
		if res := a.SubmitTreefix(vals, treefix.Add).Wait(); res.Err != nil || res.Cost != (machine.Cost{}) {
			t.Fatalf("native batch %d: err %v cost %+v", i, res.Err, res.Cost)
		}
	}
	c, err := pool.Shard(tr, Fingerprint(tr), exec.Sim)
	if err != nil {
		t.Fatal(err)
	}
	if c != a || a.Backend() != exec.Sim {
		t.Fatalf("switch to sim: same shard %v, backend %q", c == a, a.Backend())
	}
	if e, _ := pool.Engine(tr); e != a || e.Backend() != exec.Sim {
		t.Fatal("Engine switched the shard back to the pool default")
	}
	if pool.Size() != 1 {
		t.Fatalf("pool size = %d, want 1", pool.Size())
	}
	// Only the sim switch builds a placement; the native shard took none.
	if st := pool.Stats().Cache; st.Builds != 1 {
		t.Fatalf("layout builds = %d, want 1 (the sim switch's)", st.Builds)
	}
	fresh, err := New(tr, Options{Backend: exec.Sim, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	got, want := a.SubmitTreefix(vals, treefix.Add).Wait(), fresh.SubmitTreefix(vals, treefix.Add).Wait()
	if got.Err != nil || want.Err != nil || got.Cost != want.Cost || got.Cost.Messages == 0 {
		t.Fatalf("first sim batch after the switch: cost %+v (err %v), fresh sim engine %+v (err %v)", got.Cost, got.Err, want.Cost, want.Err)
	}
	if _, err := pool.Shard(tr, Fingerprint(tr), exec.Native); err != nil || a.Backend() != exec.Native {
		t.Fatalf("switch back to native: err %v, backend %q", err, a.Backend())
	}
	if st := a.Stats(); st.Batches != 3 || st.Requests != 3 || st.Cost != got.Cost {
		t.Fatalf("shard stats across switches = %+v, want 3 batches and the sim batch's cost", st)
	}
	// An unknown backend fails and retains nothing.
	warp := tree.RandomAttachment(20, rng.New(13))
	if _, err := pool.Shard(warp, Fingerprint(warp), "warp"); err == nil || pool.Size() != 1 {
		t.Fatalf("unknown backend: err %v, pool size %d", err, pool.Size())
	}
}

// TestDynNativeBackend is the cross-backend dyn differential: one seeded
// insert/delete sequence drives a native and a sim DynEngine, and after
// every mutation LCA, bottom-up and top-down treefix and min-cut must
// agree across the two backends and with the sequential oracles on the
// current tree. The two backends refresh an epoch differently (native
// reads only the tree, sim also copies the parked positions), so this
// is what checks that both serve the same epoch.
func TestDynNativeBackend(t *testing.T) {
	tr := tree.RandomAttachment(128, rng.New(13))
	n0 := tr.N()
	nat, err := NewDyn(tr, DynOptions{Options: Options{Backend: exec.Native, Seed: 2}, Epsilon: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewDyn(tr, DynOptions{Options: Options{Backend: exec.Sim, Seed: 2}, Epsilon: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(14)
	inserted := make([]bool, n0) // by current id: was the vertex inserted?
	var insertedDeletes, lastDeletes, renumbers int
	for i := 0; i < 48; i++ {
		n := nat.N()
		switch i % 4 {
		case 0, 1:
			parent := r.Intn(n)
			v, err := nat.InsertLeaf(parent)
			if err != nil {
				t.Fatal(err)
			}
			if w, err := sim.InsertLeaf(parent); err != nil || w != v {
				t.Fatalf("mutation %d: sim inserted %d (%v), native %d", i, w, err, v)
			}
			inserted = append(inserted, true)
		default:
			// Step 2 deletes the last id, the leaf step 1 just
			// inserted. Step 3 deletes a leaf below it, which
			// renumbers the last vertex into the freed id: every
			// other time an inserted leaf, if there is one.
			leaf := n - 1
			if i%4 == 3 {
				var leaves, fresh []int
				for v := 0; v < n-1; v++ {
					if nat.IsLeaf(v) {
						leaves = append(leaves, v)
						if inserted[v] {
							fresh = append(fresh, v)
						}
					}
				}
				if i%8 == 7 && len(fresh) > 0 {
					leaves = fresh
				}
				leaf = leaves[r.Intn(len(leaves))]
			}
			moved, err := nat.DeleteLeaf(leaf)
			if err != nil {
				t.Fatal(err)
			}
			if m, err := sim.DeleteLeaf(leaf); err != nil || m != moved {
				t.Fatalf("mutation %d: sim moved %d (%v), native %d", i, m, err, moved)
			}
			switch {
			case moved == leaf:
				lastDeletes++
			case inserted[leaf]:
				insertedDeletes++
				renumbers++
			default:
				renumbers++
			}
			inserted[leaf] = inserted[moved]
			inserted = inserted[:n-1]
		}
		checkDynBackendsAgree(t, i, nat, sim, r)
	}
	if insertedDeletes == 0 || lastDeletes == 0 || renumbers == 0 {
		t.Fatalf("sequence missed a delete kind: %d renumbering deletes of inserted leaves, %d of the last id, %d renumbering",
			insertedDeletes, lastDeletes, renumbers)
	}
	if st := nat.Stats(); st.Engine.Cost.Energy != 0 {
		t.Fatalf("native dyn engine accumulated model cost: %+v", st.Engine.Cost)
	}
	if st := sim.Stats(); st.Engine.Cost.Energy == 0 {
		t.Fatal("sim dyn engine metered no model cost")
	}
}

// checkDynBackendsAgree serves one request of each kind on both shards
// and checks the answers against each other and the sequential oracles.
func checkDynBackendsAgree(t *testing.T, step int, nat, sim *DynEngine, r *rng.RNG) {
	t.Helper()
	cur, err := nat.Tree()
	if err != nil {
		t.Fatal(err)
	}
	simTree, err := sim.Tree()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(cur.Parents(), simTree.Parents()) {
		t.Fatalf("mutation %d: native and sim trees differ", step)
	}
	n := cur.N()
	vals := make([]int64, n)
	for j := range vals {
		vals[j] = int64(r.Intn(100)) - 50
	}
	qs := make([]lca.Query, 8)
	for j := range qs {
		qs[j] = lca.Query{U: r.Intn(n), V: r.Intn(n)}
	}
	edges := mincut.RandomGraph(cur, n/2, 9, rng.New(uint64(step)))
	oracle := lca.NewOracle(cur)
	wantUp := treefix.SequentialBottomUp(cur, vals, treefix.Add)
	wantDown := treefix.SequentialTopDown(cur, vals, treefix.Max)
	wantCut := mincut.OneRespectingSequential(cur, edges)
	for _, de := range []*DynEngine{nat, sim} {
		name := de.Backend()
		lres := de.SubmitLCA(qs).Wait()
		up := de.SubmitTreefix(vals, treefix.Add).Wait()
		down := de.SubmitTopDown(vals, treefix.Max).Wait()
		cut := de.SubmitMinCut(edges).Wait()
		for _, res := range []Result{lres, up, down, cut} {
			if res.Err != nil {
				t.Fatalf("mutation %d %s: %v", step, name, res.Err)
			}
		}
		for j, q := range qs {
			if want := oracle.LCA(q.U, q.V); lres.Answers[j] != want {
				t.Fatalf("mutation %d %s: lca(%d, %d) = %d, want %d", step, name, q.U, q.V, lres.Answers[j], want)
			}
		}
		if !slices.Equal(up.Sums, wantUp) || !slices.Equal(down.Sums, wantDown) {
			t.Fatalf("mutation %d %s: treefix sums differ from the sequential oracle", step, name)
		}
		if cut.MinCut.MinWeight != wantCut.MinWeight || cut.MinCut.ArgVertex != wantCut.ArgVertex ||
			!slices.Equal(cut.MinCut.Cuts, wantCut.Cuts) {
			t.Fatalf("mutation %d %s: min-cut (%d at %d), want (%d at %d)", step, name,
				cut.MinCut.MinWeight, cut.MinCut.ArgVertex, wantCut.MinWeight, wantCut.ArgVertex)
		}
	}
}

// TestPlacementOnlyOnSim pins where placements live: only a sim engine
// takes one at construction, a native engine builds one only when asked
// for it, and a native DynEngine epoch holds none.
func TestPlacementOnlyOnSim(t *testing.T) {
	tr := tree.RandomAttachment(300, rng.New(21))
	cache := NewLayoutCache(4)
	if _, err := New(tr, Options{Backend: exec.Native, Cache: cache}); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st != (CacheStats{Capacity: 4}) {
		t.Fatalf("native New touched the layout cache: %+v", st)
	}
	if _, err := New(tr, Options{Backend: exec.Sim, Cache: cache}); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Builds != 1 || st.Misses != 1 {
		t.Fatalf("sim New: %+v, want one build", st)
	}

	// Placement on a native engine: built on the first call, then
	// served from the cache, and the tree's light-first placement.
	cache = NewLayoutCache(4)
	nat, err := New(tr, Options{Backend: exec.Native, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	want := layout.LightFirst(tr, sfc.Hilbert{})
	for call := 0; call < 2; call++ {
		p := nat.Placement()
		if p.Side != want.Side || !slices.Equal(p.Order.Rank, want.Order.Rank) {
			t.Fatalf("call %d: native Placement is not the light-first placement", call)
		}
	}
	if st := cache.Stats(); st.Builds != 1 || st.Hits != 1 {
		t.Fatalf("native Placement twice: %+v, want one build and one hit", st)
	}
	if nat.cur.Load().p != nil {
		t.Fatal("native Placement stored a placement on the engine")
	}

	// DynEngine epochs after a mutation and a query.
	for _, backend := range []string{exec.Native, exec.Sim} {
		cache := NewLayoutCache(4)
		de, err := NewDyn(tr, DynOptions{Options: Options{Backend: backend, Cache: cache}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := de.InsertLeaf(7); err != nil {
			t.Fatal(err)
		}
		if res := de.SubmitLCA([]lca.Query{{U: 3, V: 300}}).Wait(); res.Err != nil {
			t.Fatal(res.Err)
		}
		p := de.eng.cur.Load().p
		if backend == exec.Native {
			if p != nil {
				t.Fatal("native dyn epoch holds a placement")
			}
		} else if p == nil || p.Side != de.dyn.Side() || !slices.Equal(p.Order.Rank, de.dyn.Ranks()) {
			t.Fatal("sim dyn epoch does not run on the dynamic layout's positions")
		}
		if st := cache.Stats(); st != (CacheStats{Capacity: 4}) {
			t.Fatalf("%s dyn shard touched the layout cache: %+v", backend, st)
		}
	}

	// An unknown curve fails construction on both backends.
	for _, backend := range []string{exec.Native, exec.Sim} {
		if _, err := New(tr, Options{Backend: backend, Curve: "bogus"}); err == nil {
			t.Fatalf("%s New accepted an unknown curve", backend)
		}
		if _, err := NewDyn(tr, DynOptions{Options: Options{Backend: backend, Curve: "bogus"}}); err == nil {
			t.Fatalf("%s NewDyn accepted an unknown curve", backend)
		}
	}
}

// TestDynTreeIsServingTree: after a mutation, Tree installs the epoch's
// serving state and returns the tree it serves, validated once. An
// expression built on that tree is the one the next SubmitExpr runs:
// it passes the identity check, so no second tree is built and no
// parent arrays are compared.
func TestDynTreeIsServingTree(t *testing.T) {
	x := exprtree.Random(24, rng.New(4))
	leaf := 0
	for !x.Tree.IsLeaf(leaf) {
		leaf++
	}
	for _, backend := range []string{exec.Native, exec.Sim} {
		de, err := NewDyn(x.Tree, DynOptions{Options: Options{Backend: backend}})
		if err != nil {
			t.Fatal(err)
		}
		// Grow the leaf into an operator over two new leaves.
		for i := 0; i < 2; i++ {
			if _, err := de.InsertLeaf(leaf); err != nil {
				t.Fatal(err)
			}
		}
		before := de.Stats().Refreshes
		cur, err := de.Tree()
		if err != nil {
			t.Fatal(err)
		}
		if again, err := de.Tree(); err != nil || again != cur {
			t.Fatalf("%s: a second Tree call returned another tree (%v)", backend, err)
		}
		if served, err := de.eng.cur.Load().backend.Tree(); err != nil || served != cur {
			t.Fatalf("%s: Tree is not the serving state's tree (%v)", backend, err)
		}
		y := &exprtree.Expr{Tree: cur, Kind: append(slices.Clone(x.Kind), exprtree.Leaf, exprtree.Leaf), Val: append(slices.Clone(x.Val), 3, 5)}
		y.Kind[leaf] = exprtree.Mul
		res := de.SubmitExpr(y).Wait()
		if res.Err != nil {
			t.Fatalf("%s: %v", backend, res.Err)
		}
		if want := y.EvalSequential()[cur.Root()]; res.Value != want {
			t.Fatalf("%s: expr value %d, want %d", backend, res.Value, want)
		}
		if r := de.Stats().Refreshes; r != before+1 {
			t.Fatalf("%s: %d refreshes for one epoch, want 1", backend, r-before)
		}
		if served, _ := de.eng.cur.Load().backend.Tree(); served != cur {
			t.Fatalf("%s: the expression ran on another tree than Tree returned", backend)
		}
	}
}

// TestDynPromotedFollowerLCA: a native shard fed only through
// ApplyRecord — a follower, which serves nothing and so builds no LCA
// table — is promoted and serves. Its LCA answers, through the overlay
// the first query sets up, must match lca.Oracle after every further
// replayed and local mutation.
func TestDynPromotedFollowerLCA(t *testing.T) {
	tr := tree.RandomAttachment(96, rng.New(31))
	opts := DynOptions{Options: Options{Backend: exec.Native}, Epsilon: 0.25}
	owner, err := NewDyn(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	ownerLog := journalTo(t, owner, persist.Options{})
	follower, err := NewDyn(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(32)
	check := func(step int, de *DynEngine) {
		t.Helper()
		cur, err := de.Tree()
		if err != nil {
			t.Fatal(err)
		}
		n := cur.N()
		qs := make([]lca.Query, 64)
		for j := range qs {
			qs[j] = lca.Query{U: r.Intn(n), V: n - 1 - r.Intn(min(n, 8))} // the youngest ids too
		}
		res := de.SubmitLCA(qs).Wait()
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		oracle := lca.NewOracle(cur)
		for j, q := range qs {
			if want := oracle.LCA(q.U, q.V); res.Answers[j] != want {
				t.Fatalf("step %d: lca(%d, %d) = %d, want %d", step, q.U, q.V, res.Answers[j], want)
			}
		}
	}
	for step := 0; step < 120; step++ {
		mutate(t, owner, r)
		if step == 60 {
			// Promotion: the follower catches up and starts serving.
			for _, rec := range recordsAfter(t, ownerLog, follower.Epoch()) {
				if err := follower.ApplyRecord(rec); err != nil {
					t.Fatal(err)
				}
			}
		}
		if step >= 60 {
			for _, rec := range recordsAfter(t, ownerLog, follower.Epoch()) {
				if err := follower.ApplyRecord(rec); err != nil {
					t.Fatal(err)
				}
			}
			check(step, follower)
		}
	}
	// The promoted follower now mutates locally, on its overlay.
	for step := 120; step < 160; step++ {
		mutate(t, follower, r)
		check(step, follower)
	}
	if fe, oe := follower.Epoch(), owner.Epoch(); fe != oe+40 {
		t.Fatalf("follower epoch %d, want the owner's %d plus 40", fe, oe)
	}
}
