package engine

// Tests of work-conserving dispatch, the rule with no autoflush deadline
// armed: Wait on an idle engine runs the pending batch itself, and the
// last running batch hands requests that arrived meanwhile to a new
// goroutine as the next batch. A batchGate holds chosen batches at the
// top of runBatch, so "a batch is running" is a fact the test arranges
// rather than a timing accident.

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spatialtree/internal/lca"
	"spatialtree/internal/treefix"
)

// batchGate holds the first len(release) batches an engine starts: the
// i-th signals started[i] and blocks until release[i] is closed. Later
// batches pass straight through. starts counts every batch started.
type batchGate struct {
	starts  atomic.Int32
	started []chan struct{}
	release []chan struct{}
}

func newBatchGate(held int) *batchGate {
	g := &batchGate{started: make([]chan struct{}, held), release: make([]chan struct{}, held)}
	for i := range g.started {
		g.started[i] = make(chan struct{})
		g.release[i] = make(chan struct{})
	}
	return g
}

// hook is installed as Engine.beforeRun.
func (g *batchGate) hook() {
	if i := int(g.starts.Add(1)) - 1; i < len(g.release) {
		close(g.started[i])
		<-g.release[i]
	}
}

// noSecondBatch is how long a test lets goroutines blocked in Wait act
// before it checks that none of them started a batch. There is no event
// to wait on for something that must not happen; at the old rule (Wait
// always flushed) the second batch started within microseconds.
const noSecondBatch = 20 * time.Millisecond

// TestIdleHandoffCoalesces: while one batch runs, k submitters that Wait
// start no batch of their own; when it retires, exactly one more batch
// carries all k, dispatched as an idle flush, and every answer is right.
func TestIdleHandoffCoalesces(t *testing.T) {
	const k = 6
	tr := testTree(300, 12)
	eng, err := New(tr, Options{Window: 1 << 20, Backend: "native"})
	if err != nil {
		t.Fatal(err)
	}
	g := newBatchGate(1)
	eng.beforeRun = g.hook
	oracle := lca.NewOracle(tr)
	qs := make([][]lca.Query, k+1)
	for i := range qs {
		qs[i] = []lca.Query{{U: i, V: 3*i + 7}, {U: 2 * i, V: 150 + i}}
	}
	results := make([]Result, k+1)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0] = eng.SubmitLCA(qs[0]).Wait() // idle engine: Wait runs it
	}()
	<-g.started[0]
	held := eng.Stats()
	if held.Batches != 1 || held.IdleFlushes != 1 {
		t.Fatalf("first batch: %+v, want 1 batch dispatched by Wait as an idle flush", held)
	}

	var submitted sync.WaitGroup
	for i := 1; i <= k; i++ {
		wg.Add(1)
		submitted.Add(1)
		go func(i int) {
			defer wg.Done()
			fut := eng.SubmitLCA(qs[i])
			submitted.Done()
			results[i] = fut.Wait()
		}(i)
	}
	submitted.Wait()
	time.Sleep(noSecondBatch)
	if n := g.starts.Load(); n != 1 {
		t.Fatalf("%d batches started while the first was running, want 1", n)
	}
	if p := eng.Pending(); p != k {
		t.Fatalf("pending = %d while the first batch runs, want %d", p, k)
	}

	close(g.release[0])
	wg.Wait()
	eng.Quiesce()
	st := eng.Stats()
	if d := st.Batches - held.Batches; d != 1 {
		t.Fatalf("batches +%d after release, want +1 carrying all %d waiters", d, k)
	}
	if d := st.LCARuns - held.LCARuns; d != 1 {
		t.Fatalf("LCA runs +%d after release, want +1", d)
	}
	if d := st.IdleFlushes - held.IdleFlushes; d != 1 {
		t.Fatalf("idle flushes +%d after release, want +1 (the hand-off)", d)
	}
	if d := st.Requests - held.Requests; d != k {
		t.Fatalf("requests +%d after release, want +%d", d, k)
	}
	if st.SizeFlushes != 0 || st.DeadlineFlushes != 0 {
		t.Fatalf("stats = %+v: no size or deadline trigger can fire here", st)
	}
	if n := g.starts.Load(); n != 2 {
		t.Fatalf("%d batches started, want 2", n)
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("request %d: %v", i, res.Err)
		}
		for j, q := range qs[i] {
			if want := oracle.LCA(q.U, q.V); res.Answers[j] != want {
				t.Fatalf("request %d: lca(%d,%d) = %d, want %d", i, q.U, q.V, res.Answers[j], want)
			}
		}
	}
}

// TestDynMutationKeepsSchedulerStatsHandoff is the no-linger twin of
// TestDynMutationKeepsSchedulerStats: a mutation that arrives while a
// handed-off batch runs must wait for it in its Quiesce barrier, so the
// next epoch is installed with every batch counted.
func TestDynMutationKeepsSchedulerStatsHandoff(t *testing.T) {
	const k = 4
	tr := testTree(400, 10)
	de, err := NewDyn(tr, DynOptions{Options: Options{Window: 1 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	g := newBatchGate(2)
	de.eng.beforeRun = g.hook // the one engine serving every epoch
	q := []lca.Query{{U: 1, V: 2}}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		de.SubmitLCA(q).Wait()
	}()
	<-g.started[0]
	var submitted sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		submitted.Add(1)
		go func() {
			defer wg.Done()
			fut := de.SubmitLCA(q)
			submitted.Done()
			fut.Wait()
		}()
	}
	submitted.Wait()
	close(g.release[0])
	<-g.started[1] // the hand-off, carrying all k, is now running
	if p := de.Pending(); p != 0 {
		t.Fatalf("pending = %d with the hand-off running, want 0", p)
	}

	mutated := make(chan error, 1)
	go func() {
		_, err := de.InsertLeaf(0)
		mutated <- err
	}()
	select {
	case err := <-mutated:
		t.Fatalf("mutation returned (err %v) while a handed-off batch was still running", err)
	case <-time.After(noSecondBatch):
	}
	close(g.release[1])
	if err := <-mutated; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if res := de.SubmitLCA([]lca.Query{{U: 3, V: tr.N()}}).Wait(); res.Err != nil {
		t.Fatal(res.Err) // vertex tr.N() exists only after the insert
	}

	st := de.Stats()
	if st.Epoch != 1 || st.Refreshes != 2 {
		t.Fatalf("epoch %d refreshes %d, want 1 and 2", st.Epoch, st.Refreshes)
	}
	if e := st.Engine; e.Requests != k+2 || e.Batches != 3 || e.IdleFlushes != 3 || e.LCAQueries != k+2 || e.LCARuns != 3 {
		t.Fatalf("engine stats across epochs = %+v, want %d requests in 3 idle-dispatched batches", e, k+2)
	}
	if g.starts.Load() != 3 {
		t.Fatalf("%d batches started on the shard's engine, want 3 (two on the first epoch, one on the second)", g.starts.Load())
	}
}

// TestCallerBufferReuse pins the contract the binary listener's decode
// scratch relies on: the engine reads a request's inputs only before
// its future resolves, so a caller may overwrite them the moment Wait
// returns. With no deadline armed every batch is idle-dispatched or
// handed off; under -race this fails if any engine-side read of a
// caller's buffer outlives its reply.
func TestCallerBufferReuse(t *testing.T) {
	const (
		goroutines = 8
		rounds     = 40
	)
	tr := testTree(300, 12)
	n := tr.N()
	eng, err := New(tr, Options{Window: 1 << 20, Backend: "native"})
	if err != nil {
		t.Fatal(err)
	}
	oracle := lca.NewOracle(tr)
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			vals := make([]int64, n)
			queries := make([]lca.Query, 8)
			want := make([]int, len(queries))
			for r := 0; r < rounds; r++ {
				for v := range vals {
					vals[v] = int64(g*rounds + r + v)
				}
				wantSums := treefix.SequentialBottomUp(tr, vals, treefix.Add)
				res := eng.SubmitTreefix(vals, treefix.Add).Wait()
				for v := range vals {
					vals[v] = -1
				}
				if res.Err != nil || !slices.Equal(res.Sums, wantSums) {
					errs <- fmt.Sprintf("goroutine %d round %d: treefix sums wrong (err %v)", g, r, res.Err)
					return
				}

				for j := range queries {
					queries[j] = lca.Query{U: (g + r + j) % n, V: (7*g + 3*j + r) % n}
					want[j] = oracle.LCA(queries[j].U, queries[j].V)
				}
				res = eng.SubmitLCA(queries).Wait()
				for j := range queries {
					queries[j] = lca.Query{U: n - 1 - j, V: 0}
				}
				if res.Err != nil || !slices.Equal(res.Answers, want) {
					errs <- fmt.Sprintf("goroutine %d round %d: LCA answers %v, want %v (err %v)", g, r, res.Answers, want, res.Err)
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
	eng.Quiesce()
	st := eng.Stats()
	if st.Requests != 2*goroutines*rounds {
		t.Fatalf("requests = %d, want %d", st.Requests, 2*goroutines*rounds)
	}
	if st.IdleFlushes != st.Batches || st.SizeFlushes != 0 || st.DeadlineFlushes != 0 {
		t.Fatalf("stats = %+v, want every batch idle-dispatched or handed off", st)
	}
}
