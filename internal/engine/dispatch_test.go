package engine

// Tests of work-conserving dispatch, the rule with no autoflush deadline
// armed: Wait on an idle engine runs the pending batch itself, and the
// last running batch hands requests that arrived meanwhile to a new
// goroutine as the next batch. A batchGate holds chosen batches at the
// top of runBatch, and a heldBackend holds a shadow run, so "a batch is
// running" is a fact the test arranges rather than a timing accident.

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spatialtree/internal/exec"
	"spatialtree/internal/lca"
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
// epoch's engine is retired with every batch counted.
func TestDynMutationKeepsSchedulerStatsHandoff(t *testing.T) {
	const k = 4
	tr := testTree(400, 10)
	de, err := NewDyn(tr, DynOptions{Options: Options{Window: 1 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	g := newBatchGate(2)
	de.mu.Lock()
	de.inner.beforeRun = g.hook // this epoch's engine only
	de.mu.Unlock()
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
	if g.starts.Load() != 2 {
		t.Fatalf("%d batches started on the first epoch's engine, want 2", g.starts.Load())
	}
}

// heldBackend wraps a shadow backend and holds its first Run until
// release is closed; later runs pass straight through.
type heldBackend struct {
	exec.Backend
	runs    atomic.Int32
	started chan struct{}
	release chan struct{}
}

func (h *heldBackend) Run(seed uint64) exec.Run {
	if h.runs.Add(1) == 1 {
		close(h.started)
		<-h.release
	}
	return h.Backend.Run(seed)
}

// within fails the test unless done is closed within a generous bound;
// it guards steps that must not wait for a held shadow run.
func within(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: still blocked after 10s behind a held shadow run", what)
	}
}

// TestShadowRunOffServingPath: a shadow-metered batch stops counting as
// serving once its futures resolve, so its shadow run holds up nobody.
// While the first batch's shadow run is held, its own caller has its
// answer, the k requests that queued behind it are handed off and
// answered, a fresh Wait finds the engine idle and runs a batch of its
// own, and only Quiesce waits for the shadow run.
func TestShadowRunOffServingPath(t *testing.T) {
	const k = 4
	tr := testTree(300, 12)
	eng, err := New(tr, Options{Window: 1 << 20, Backend: "native", ShadowMeter: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := newBatchGate(1)
	eng.beforeRun = g.hook
	held := &heldBackend{Backend: eng.shadow, started: make(chan struct{}), release: make(chan struct{})}
	eng.shadow = held
	oracle := lca.NewOracle(tr)
	qs := make([][]lca.Query, k+2)
	for i := range qs {
		qs[i] = []lca.Query{{U: i, V: 5*i + 11}, {U: 3 * i, V: 200 - i}}
	}
	results := make([]Result, k+2)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0] = eng.SubmitLCA(qs[0]).Wait()
	}()
	<-g.started[0]
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
	close(g.release[0])
	<-held.started // the first batch has served and is now in its shadow run

	answered := make(chan struct{})
	go func() { wg.Wait(); close(answered) }()
	within(t, answered, "the first batch's caller and the handed-off waiters")
	fresh := make(chan struct{})
	go func() {
		results[k+1] = eng.SubmitLCA(qs[k+1]).Wait()
		close(fresh)
	}()
	within(t, fresh, "a Wait on a shard whose only running batch is shadowing")

	st := eng.Stats()
	if st.Batches != 3 || st.IdleFlushes != 3 || st.Requests != k+2 {
		t.Fatalf("stats = %+v, want %d requests in 3 idle-dispatched batches", st, k+2)
	}
	quiesced := make(chan struct{})
	go func() { eng.Quiesce(); close(quiesced) }()
	select {
	case <-quiesced:
		t.Fatal("Quiesce returned while a shadow run was still held")
	case <-time.After(noSecondBatch):
	}
	close(held.release)
	<-quiesced
	if st := eng.Stats(); st.ShadowBatches != 3 || st.ShadowMismatches != 0 {
		t.Fatalf("stats = %+v, want 3 shadow-metered batches and no mismatch", st)
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
