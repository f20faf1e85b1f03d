package engine

// Concurrency hammer for the batching and cache paths, meant to run
// under `go test -race`: 16 goroutines submit mixed request kinds to one
// shared engine while flushing concurrently, and every result is checked
// against the sequential oracles. Sizes are small so the test stays in
// short mode.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spatialtree/internal/exec"
	"spatialtree/internal/lca"
	"spatialtree/internal/mincut"
	"spatialtree/internal/rng"
	"spatialtree/internal/tree"
	"spatialtree/internal/treefix"
)

func TestEngineConcurrentHammer(t *testing.T) {
	const (
		goroutines = 16
		rounds     = 12
		n          = 256
	)
	tr := tree.RandomAttachment(n, rng.New(99))
	eng, err := New(tr, Options{Window: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	oracle := lca.NewOracle(tr)
	edges := mincut.RandomGraph(tr, n/2, 10, rng.New(100))
	wantCut := mincut.OneRespectingSequential(tr, edges)

	var wg sync.WaitGroup
	errs := make(chan string, goroutines*rounds)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(1000 + g))
			for round := 0; round < rounds; round++ {
				switch (g + round) % 4 {
				case 0: // bottom-up treefix under a random op
					ops := []treefix.Op{treefix.Add, treefix.Max, treefix.Min, treefix.Xor}
					op := ops[r.Intn(len(ops))]
					vals := make([]int64, n)
					for i := range vals {
						vals[i] = int64(r.Intn(100)) - 50
					}
					want := treefix.SequentialBottomUp(tr, vals, op)
					res := eng.SubmitTreefix(vals, op).Wait()
					if res.Err != nil {
						errs <- res.Err.Error()
						return
					}
					for v := range want {
						if res.Sums[v] != want[v] {
							errs <- "bottom-up mismatch under concurrency"
							return
						}
					}
				case 1: // top-down treefix
					vals := make([]int64, n)
					for i := range vals {
						vals[i] = int64(r.Intn(100))
					}
					want := treefix.SequentialTopDown(tr, vals, treefix.Add)
					res := eng.SubmitTopDown(vals, treefix.Add).Wait()
					if res.Err != nil {
						errs <- res.Err.Error()
						return
					}
					for v := range want {
						if res.Sums[v] != want[v] {
							errs <- "top-down mismatch under concurrency"
							return
						}
					}
				case 2: // LCA batch (coalesces with other goroutines')
					qs := make([]lca.Query, 8)
					for i := range qs {
						qs[i] = lca.Query{U: r.Intn(n), V: r.Intn(n)}
					}
					res := eng.SubmitLCA(qs).Wait()
					if res.Err != nil {
						errs <- res.Err.Error()
						return
					}
					for i, q := range qs {
						if res.Answers[i] != oracle.LCA(q.U, q.V) {
							errs <- "lca mismatch under concurrency"
							return
						}
					}
				case 3: // min-cut plus a concurrent explicit Flush
					res := eng.SubmitMinCut(edges).Wait()
					if res.Err != nil {
						errs <- res.Err.Error()
						return
					}
					if res.MinCut.MinWeight != wantCut.MinWeight {
						errs <- "min-cut mismatch under concurrency"
						return
					}
					eng.Flush()
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}

	st := eng.Stats()
	if want := uint64(goroutines * rounds); st.Requests != want {
		t.Fatalf("Requests = %d, want %d", st.Requests, want)
	}
	if st.Batches == 0 || st.Batches > st.Requests {
		t.Fatalf("Batches = %d out of range (0, %d]", st.Batches, st.Requests)
	}
	if eng.Pending() != 0 {
		t.Fatalf("Pending = %d after all waits, want 0", eng.Pending())
	}
}

// TestDynEngineConcurrentHammer races mutators against submitters on
// one mutable engine. Mutations are confined to vertices ≥ stable, so
// ids below it are never renumbered and the base oracle stays valid for
// the query goroutines: leaf inserts/deletes elsewhere cannot change
// the LCA of two untouched vertices.
func TestDynEngineConcurrentHammer(t *testing.T) {
	const (
		n      = 200
		stable = 100
		rounds = 40
	)
	base := tree.RandomAttachment(n, rng.New(55))
	de, err := NewDyn(base, DynOptions{Options: Options{Window: 5, Seed: 2}, Epsilon: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	oracle := lca.NewOracle(base)

	var wg sync.WaitGroup
	errs := make(chan string, 64)

	// Inserter: parents drawn from the stable prefix are always valid.
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rng.New(7)
		for i := 0; i < rounds; i++ {
			if _, err := de.InsertLeaf(r.Intn(stable)); err != nil {
				errs <- "insert: " + err.Error()
				return
			}
		}
	}()
	// Deleter: only ids ≥ 150 are candidates, so renumbering never
	// touches the stable prefix. IsLeaf→DeleteLeaf is not atomic, so a
	// racing mutation may invalidate the pick — that error is expected.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds/2; i++ {
			if de.N() <= 160 {
				continue
			}
			for v := de.N() - 1; v >= 150; v-- {
				if de.IsLeaf(v) {
					de.DeleteLeaf(v) // racing errors tolerated
					break
				}
			}
		}
	}()
	// Query goroutines: LCA over the stable prefix, checked against the
	// base oracle; treefix with a length snapshot, where a concurrent
	// mutation may legitimately reject the stale length.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(300 + g))
			for i := 0; i < rounds; i++ {
				if g%2 == 0 {
					qs := make([]lca.Query, 4)
					for j := range qs {
						qs[j] = lca.Query{U: r.Intn(stable), V: r.Intn(stable)}
					}
					res := de.SubmitLCA(qs).Wait()
					if res.Err != nil {
						errs <- "lca: " + res.Err.Error()
						return
					}
					for j, q := range qs {
						if res.Answers[j] != oracle.LCA(q.U, q.V) {
							errs <- "lca mismatch under concurrent mutation"
							return
						}
					}
				} else {
					vals := make([]int64, de.N())
					res := de.SubmitTreefix(vals, treefix.Add).Wait()
					if res.Err == nil && len(res.Sums) != len(vals) {
						errs <- "treefix length mismatch"
						return
					}
					de.Flush()
					_ = de.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}

	if _, err := de.Tree(); err != nil {
		t.Fatal(err)
	}
	st := de.Stats()
	if st.Inserts != rounds {
		t.Fatalf("Inserts = %d, want %d", st.Inserts, rounds)
	}
	if st.Epoch != st.Inserts+st.Deletes {
		t.Fatalf("epoch %d != inserts %d + deletes %d", st.Epoch, st.Inserts, st.Deletes)
	}
	// Post-hammer differential: the final tree must serve like a fresh
	// static engine.
	cur, err := de.Tree()
	if err != nil {
		t.Fatal(err)
	}
	finalOracle := lca.NewOracle(cur)
	qs := make([]lca.Query, 16)
	r := rng.New(9)
	for i := range qs {
		qs[i] = lca.Query{U: r.Intn(cur.N()), V: r.Intn(cur.N())}
	}
	res := de.SubmitLCA(qs).Wait()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	for i, q := range qs {
		if res.Answers[i] != finalOracle.LCA(q.U, q.V) {
			t.Fatalf("final lca mismatch at query %d", i)
		}
	}
}

// TestDynNativeOverlayHammer races mutations against LCA and min-cut
// submissions on one native shard. Every mutation updates the shard's LCA overlay
// behind the Quiesce barrier, batches read it concurrently, and with
// ε = 0.05 the base table is rebuilt every few mutations, inside
// whichever batch comes first. One goroutine mutates: inserts under the
// stable prefix, chains below the vertex it inserted last, and deletes
// leaves whose renumbering stays above the prefix, so LCA answers over
// the prefix never change and are checked against the base oracle.
func TestDynNativeOverlayHammer(t *testing.T) {
	const (
		n      = 160
		stable = 80
		rounds = 60
	)
	base := tree.RandomAttachment(n, rng.New(56))
	de, err := NewDyn(base, DynOptions{Options: Options{Backend: exec.Native, Window: 4}, Epsilon: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	oracle := lca.NewOracle(base)
	var wg sync.WaitGroup
	errs := make(chan string, 64)

	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rng.New(8)
		tip := -1
		for i := 0; i < rounds; i++ {
			var err error
			switch {
			case i%3 == 2:
				// The only mutator, so the leaf cannot change under it.
				for v := de.N() - 1; v >= 120; v-- {
					if de.IsLeaf(v) {
						_, err = de.DeleteLeaf(v)
						break
					}
				}
				tip = -1 // it may have been renumbered
			case tip >= 0:
				tip, err = de.InsertLeaf(tip)
			default:
				tip, err = de.InsertLeaf(r.Intn(stable))
			}
			if err != nil {
				errs <- "mutation: " + err.Error()
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(400 + g))
			for i := 0; i < rounds; i++ {
				switch g {
				case 0, 1:
					qs := make([]lca.Query, 6)
					for j := range qs {
						qs[j] = lca.Query{U: r.Intn(stable), V: r.Intn(stable)}
					}
					res := de.SubmitLCA(qs).Wait()
					if res.Err != nil {
						errs <- "lca: " + res.Err.Error()
						return
					}
					for j, q := range qs {
						if res.Answers[j] != oracle.LCA(q.U, q.V) {
							errs <- "lca mismatch under concurrent mutation"
							return
						}
					}
				case 2:
					// Both ends anywhere, inserted vertices included: the
					// same-anchor walks run here. The tree may have moved
					// on by the time the answer arrives, so only the range
					// is checked; the race detector checks the rest.
					m := de.N()
					qs := []lca.Query{{U: r.Intn(m), V: m - 1}, {U: m - 1, V: m - 1 - r.Intn(4)}}
					if res := de.SubmitLCA(qs).Wait(); res.Err == nil {
						for _, a := range res.Answers {
							if a < 0 || a >= n+rounds {
								errs <- "lca answer out of range"
								return
							}
						}
					}
					de.Flush()
				default:
					// Lazy tree builds race the LCA batches of one epoch.
					if _, err := de.Tree(); err != nil {
						errs <- "tree: " + err.Error()
						return
					}
					vals := make([]int64, de.N())
					if res := de.SubmitTreefix(vals, treefix.Add).Wait(); res.Err == nil && len(res.Sums) != len(vals) {
						errs <- "treefix length mismatch"
						return
					}
					// Min-cut's edge LCAs read the overlay too.
					edges := []mincut.Edge{{U: r.Intn(stable), V: r.Intn(stable), W: 1}, {U: r.Intn(stable), V: r.Intn(stable), W: 2}}
					if res := de.SubmitMinCut(edges).Wait(); res.Err != nil {
						errs <- "min-cut: " + res.Err.Error()
						return
					}
					_ = de.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
	cur, err := de.Tree()
	if err != nil {
		t.Fatal(err)
	}
	final := lca.NewOracle(cur)
	var qs []lca.Query
	for u := 0; u < cur.N(); u++ {
		qs = append(qs, lca.Query{U: u, V: (u * 37) % cur.N()}, lca.Query{U: u, V: cur.N() - 1})
	}
	res := de.SubmitLCA(qs).Wait()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	for i, q := range qs {
		if want := final.LCA(q.U, q.V); res.Answers[i] != want {
			t.Fatalf("final lca(%d, %d) = %d, want %d", q.U, q.V, res.Answers[i], want)
		}
	}
}

func TestPoolConcurrentAcrossTrees(t *testing.T) {
	const clients = 8
	pool := NewPool(Options{Window: 4})
	trees := make([]*tree.Tree, 4)
	for i := range trees {
		trees[i] = tree.RandomAttachment(128, rng.New(uint64(200+i)))
	}
	var wg sync.WaitGroup
	errs := make(chan string, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tr := trees[c%len(trees)]
			eng, err := pool.Engine(tr)
			if err != nil {
				errs <- err.Error()
				return
			}
			vals := make([]int64, tr.N())
			for i := range vals {
				vals[i] = int64((c + 1) * i)
			}
			want := treefix.SequentialBottomUp(tr, vals, treefix.Add)
			res := eng.SubmitTreefix(vals, treefix.Add).Wait()
			if res.Err != nil {
				errs <- res.Err.Error()
				return
			}
			for v := range want {
				if res.Sums[v] != want[v] {
					errs <- "pool shard mismatch under concurrency"
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
	if pool.Size() != len(trees) {
		t.Fatalf("pool size = %d, want %d", pool.Size(), len(trees))
	}
}

// TestStatsCountedBeforeReply pins the dispatch-time accounting: a
// batch's requests and LCA queries are folded into Stats before any of
// its futures resolves, so a submitter that has its reply always finds
// every reply seen so far counted. Counting after the replies would let
// a metrics read right after the last reply miss that batch.
func TestStatsCountedBeforeReply(t *testing.T) {
	const (
		goroutines = 8
		rounds     = 40
	)
	tr := tree.RandomAttachment(64, rng.New(7))
	eng, err := New(tr, Options{Backend: "native", Window: 4, FlushDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.StopAutoFlush()
	vals := make([]int64, tr.N())
	var replies, queries atomic.Uint64
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				var res Result
				var nq uint64
				if (g+r)%2 == 0 {
					res = eng.SubmitTreefix(vals, treefix.Add).Wait()
				} else {
					qs := []lca.Query{{U: g, V: r}, {U: r, V: 2 * g}}
					nq = uint64(len(qs))
					res = eng.SubmitLCA(qs).Wait()
				}
				if res.Err != nil {
					errs <- res.Err.Error()
					return
				}
				seenQ := queries.Add(nq)
				seen := replies.Add(1)
				st := eng.Stats()
				if st.Requests < seen || st.LCAQueries < seenQ || st.Batches == 0 {
					errs <- fmt.Sprintf("after %d replies (%d LCA queries): Stats counts %d requests, %d LCA queries, %d batches",
						seen, seenQ, st.Requests, st.LCAQueries, st.Batches)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
	if st := eng.Stats(); st.Requests != goroutines*rounds {
		t.Fatalf("requests = %d, want %d", st.Requests, goroutines*rounds)
	}
}
