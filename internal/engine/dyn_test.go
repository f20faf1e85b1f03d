package engine

import (
	"errors"
	"math"
	"sync"
	"testing"

	"spatialtree/internal/lca"
	"spatialtree/internal/mincut"
	"spatialtree/internal/persist"
	"spatialtree/internal/rng"
	"spatialtree/internal/tree"
	"spatialtree/internal/treefix"
)

// mutate applies one random mutation to de (an insert, or a delete of a
// random leaf) and returns whether it succeeded.
func mutate(t *testing.T, de *DynEngine, r *rng.RNG) {
	t.Helper()
	if r.Intn(3) == 0 && de.N() > 2 {
		// Find a leaf to delete; renumbering keeps ids contiguous.
		for v := de.N() - 1; v > 0; v-- {
			if de.IsLeaf(v) {
				if _, err := de.DeleteLeaf(v); err != nil {
					t.Fatal(err)
				}
				return
			}
		}
	}
	if _, err := de.InsertLeaf(r.Intn(de.N())); err != nil {
		t.Fatal(err)
	}
}

// TestDynDifferential is the acceptance check of the mutable serving
// path: after every burst of random mutations, the DynEngine must return
// kernel results identical to a fresh static engine built from scratch
// on the post-mutation tree, across all request kinds.
func TestDynDifferential(t *testing.T) {
	r := rng.New(77)
	base := tree.RandomAttachment(180, r)
	de, err := NewDyn(base, DynOptions{Options: Options{Window: 64, Seed: 5}, Epsilon: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 8; round++ {
		for m := 0; m < 25; m++ {
			mutate(t, de, r)
		}
		cur, err := de.Tree()
		if err != nil {
			t.Fatal(err)
		}
		static, err := New(cur, Options{Window: 64, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}

		n := cur.N()
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(r.Intn(1000)) - 500
		}
		queries := make([]lca.Query, 40)
		for i := range queries {
			queries[i] = lca.Query{U: r.Intn(n), V: r.Intn(n)}
		}
		edges := mincut.RandomGraph(cur, n/2, 10, rng.New(uint64(round)))

		type pair struct {
			name     string
			dyn, ref *Future
		}
		pairs := []pair{
			{"treefix", de.SubmitTreefix(vals, treefix.Add), static.SubmitTreefix(vals, treefix.Add)},
			{"topdown", de.SubmitTopDown(vals, treefix.Max), static.SubmitTopDown(vals, treefix.Max)},
			{"lca", de.SubmitLCA(queries), static.SubmitLCA(queries)},
			{"mincut", de.SubmitMinCut(edges), static.SubmitMinCut(edges)},
		}
		for _, p := range pairs {
			got, want := p.dyn.Wait(), p.ref.Wait()
			if got.Err != nil || want.Err != nil {
				t.Fatalf("round %d %s: errs %v / %v", round, p.name, got.Err, want.Err)
			}
			switch p.name {
			case "treefix", "topdown":
				for v := range want.Sums {
					if got.Sums[v] != want.Sums[v] {
						t.Fatalf("round %d %s: sum[%d] = %d, want %d", round, p.name, v, got.Sums[v], want.Sums[v])
					}
				}
			case "lca":
				for i := range want.Answers {
					if got.Answers[i] != want.Answers[i] {
						t.Fatalf("round %d lca: answer[%d] = %d, want %d", round, i, got.Answers[i], want.Answers[i])
					}
				}
			case "mincut":
				if got.MinCut.MinWeight != want.MinCut.MinWeight {
					t.Fatalf("round %d mincut: weight %d, want %d", round, got.MinCut.MinWeight, want.MinCut.MinWeight)
				}
			}
		}
	}
	st := de.Stats()
	if st.Epoch != 200 || st.Inserts+st.Deletes != 200 {
		t.Fatalf("epoch %d inserts %d deletes %d after 200 mutations", st.Epoch, st.Inserts, st.Deletes)
	}
	if st.Refreshes == 0 || st.Engine.Batches == 0 {
		t.Fatalf("no refreshes (%d) or batches (%d) recorded", st.Refreshes, st.Engine.Batches)
	}
}

// TestDynMutationDrainsPending asserts the documented ordering: futures
// submitted before a mutation resolve (against the pre-mutation tree)
// before the mutation is applied.
func TestDynMutationDrainsPending(t *testing.T) {
	tr := tree.RandomAttachment(64, rng.New(1))
	de, err := NewDyn(tr, DynOptions{Options: Options{Window: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]int64, 64)
	for i := range vals {
		vals[i] = 1
	}
	fut := de.SubmitTreefix(vals, treefix.Add)
	if fut.Done() {
		t.Fatal("future resolved before any flush")
	}
	if _, err := de.InsertLeaf(0); err != nil {
		t.Fatal(err)
	}
	if !fut.Done() {
		t.Fatal("mutation did not drain the pending batch")
	}
	res := fut.Wait()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.Sums) != 64 {
		t.Fatalf("pre-mutation request saw %d vertices, want 64", len(res.Sums))
	}
	if res.Sums[tr.Root()] != 64 {
		t.Fatalf("root sum %d on the pre-mutation tree, want 64", res.Sums[tr.Root()])
	}
	// The next request serves the mutated tree: old-length vals are now
	// rejected, new-length vals succeed.
	if res := de.SubmitTreefix(vals, treefix.Add).Wait(); res.Err == nil {
		t.Fatal("stale-length vals accepted after mutation")
	}
	vals = append(vals, 1)
	if res := de.SubmitTreefix(vals, treefix.Add).Wait(); res.Err != nil || res.Sums[tr.Root()] != 65 {
		t.Fatalf("post-mutation treefix: err=%v root sum=%v, want 65", res.Err, res.Sums[tr.Root()])
	}
}

// TestDynLazyRefresh asserts mutations are O(1) on the serving side:
// a burst of mutations with no queries in between triggers at most one
// placement refresh, on the next submission.
func TestDynLazyRefresh(t *testing.T) {
	de, err := NewDyn(tree.RandomAttachment(100, rng.New(3)), DynOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r := de.Stats().Refreshes; r != 1 {
		t.Fatalf("refreshes after construction = %d, want 1", r)
	}
	for i := 0; i < 30; i++ {
		if _, err := de.InsertLeaf(0); err != nil {
			t.Fatal(err)
		}
	}
	if r := de.Stats().Refreshes; r != 1 {
		t.Fatalf("refreshes after idle mutations = %d, want still 1", r)
	}
	if res := de.SubmitLCA([]lca.Query{{U: 0, V: 1}}).Wait(); res.Err != nil {
		t.Fatal(res.Err)
	}
	if r := de.Stats().Refreshes; r != 2 {
		t.Fatalf("refreshes after first post-mutation submit = %d, want 2", r)
	}
}

// TestDynInvalidInputs asserts user errors surface as errors, not
// panics, through the mutable engine.
func TestDynInvalidInputs(t *testing.T) {
	de, err := NewDyn(tree.Path(8), DynOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := de.InsertLeaf(-1); err == nil {
		t.Error("negative parent accepted")
	}
	if _, err := de.InsertLeaf(99); err == nil {
		t.Error("out-of-range parent accepted")
	}
	if _, err := de.DeleteLeaf(3); err == nil {
		t.Error("deleting an internal vertex accepted")
	}
	if _, err := de.DeleteLeaf(0); err == nil {
		t.Error("deleting the root accepted")
	}
	if res := de.SubmitTreefix(make([]int64, 3), treefix.Add).Wait(); res.Err == nil {
		t.Error("short vals accepted")
	}
	if res := de.SubmitLCA([]lca.Query{{U: -1, V: 0}}).Wait(); res.Err == nil {
		t.Error("out-of-range LCA query accepted")
	}
	if _, err := NewDyn(tree.MustFromParents(nil), DynOptions{}); err == nil {
		t.Error("empty tree accepted")
	}
	if _, err := NewDyn(tree.Path(4), DynOptions{Options: Options{Curve: "nope"}}); err == nil {
		t.Error("unknown curve accepted")
	}
}

// TestNewDynEpsilonBound: an epsilon the snapshot codec refuses would
// be persisted with the shard and then fail its recovery, so NewDyn
// refuses it up front as a request fault. The bound itself is legal.
func TestNewDynEpsilonBound(t *testing.T) {
	for _, eps := range []float64{10 * persist.MaxEpsilon, math.NaN(), math.Inf(1)} {
		if _, err := NewDyn(tree.Path(4), DynOptions{Epsilon: eps}); !errors.Is(err, ErrInvalid) {
			t.Errorf("epsilon %v: err = %v, want ErrInvalid", eps, err)
		}
	}
	if _, err := NewDyn(tree.Path(4), DynOptions{Epsilon: persist.MaxEpsilon}); err != nil {
		t.Errorf("epsilon at the codec bound: %v", err)
	}
}

// TestDynMutationErrorClass: a mutation that did not apply is the
// caller's mistake — ErrInvalid, epoch unchanged — and one that
// applied but failed afterwards (here, its journal append) is not.
// Callers classify by this type alone; comparing epochs around the
// call races with concurrent mutations.
func TestDynMutationErrorClass(t *testing.T) {
	de, err := NewDyn(tree.Path(8), DynOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		mutate func() error
	}{
		{"insert under a negative parent", func() error { _, err := de.InsertLeaf(-1); return err }},
		{"insert under an out-of-range parent", func() error { _, err := de.InsertLeaf(8); return err }},
		{"delete a non-leaf", func() error { _, err := de.DeleteLeaf(3); return err }},
		{"delete the root with children", func() error { _, err := de.DeleteLeaf(0); return err }},
		{"delete an out-of-range id", func() error { _, err := de.DeleteLeaf(8); return err }},
		{"delete a negative id", func() error { _, err := de.DeleteLeaf(-1); return err }},
	} {
		err := c.mutate()
		if !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: %v, want ErrInvalid", c.name, err)
		}
		if de.Epoch() != 0 || de.N() != 8 {
			t.Errorf("%s changed the shard: epoch %d, n %d", c.name, de.Epoch(), de.N())
		}
	}
	root, err := NewDyn(tree.MustFromParents([]int{-1}), DynOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := root.DeleteLeaf(0); !errors.Is(err, ErrInvalid) || root.N() != 1 {
		t.Errorf("delete the root of a one-vertex tree: %v (n %d), want ErrInvalid", err, root.N())
	}
	if err := journalTo(t, de, persist.Options{}).Close(); err != nil { // a closed log fails every append
		t.Fatal(err)
	}
	v, err := de.InsertLeaf(7)
	if err == nil || errors.Is(err, ErrInvalid) || v != 8 || de.Epoch() != 1 {
		t.Fatalf("applied insert with a failed journal: v=%d epoch=%d err=%v, want v=8 epoch=1 and a non-ErrInvalid error", v, de.Epoch(), err)
	}
	if _, err := de.DeleteLeaf(8); err == nil || errors.Is(err, ErrInvalid) || de.Epoch() != 2 {
		t.Fatalf("applied delete with a failed journal: epoch=%d err=%v", de.Epoch(), err)
	}
}

// TestDynProfileHook asserts the batch observation channel: an
// installed ProfileFunc sees every dispatched batch with its timing,
// keeps reporting across mutation-driven engine refreshes, and stops
// once removed.
func TestDynProfileHook(t *testing.T) {
	r := rng.New(6)
	de, err := NewDyn(tree.RandomAttachment(80, r), DynOptions{Options: Options{Window: 4}, Epsilon: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got []BatchProfile
	de.SetProfile(func(bp BatchProfile) {
		mu.Lock()
		got = append(got, bp)
		mu.Unlock()
	})
	vals := make([]int64, de.N())
	if res := de.SubmitTreefix(vals, treefix.Add).Wait(); res.Err != nil {
		t.Fatal(res.Err)
	}
	// Force a refresh: the profile hook must keep observing the next
	// epoch's batches.
	if _, err := de.InsertLeaf(0); err != nil {
		t.Fatal(err)
	}
	vals = append(vals, 0)
	if res := de.SubmitLCA([]lca.Query{{U: 1, V: 2}, {U: 2, V: 3}}).Wait(); res.Err != nil {
		t.Fatal(res.Err)
	}
	mu.Lock()
	if len(got) != 2 {
		t.Fatalf("profile saw %d batches, want 2 (hook lost across refresh?)", len(got))
	}
	for i, bp := range got {
		if bp.Elapsed <= 0 {
			t.Fatalf("batch %d: no elapsed time recorded", i)
		}
	}
	// Uninstall: no further observations.
	de.SetProfile(nil)
	mu.Unlock()
	if res := de.SubmitTreefix(vals, treefix.Add).Wait(); res.Err != nil {
		t.Fatal(res.Err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 {
		t.Fatal("profile hook still firing after SetProfile(nil)")
	}
}
