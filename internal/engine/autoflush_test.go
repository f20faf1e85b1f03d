package engine

import (
	"sync"
	"testing"
	"time"

	"spatialtree/internal/lca"
	"spatialtree/internal/treefix"
)

// waitResolved fails the test if the future does not resolve within the
// deadline without anybody calling Flush or Wait (i.e. the scheduler
// alone must dispatch it).
func waitResolved(t *testing.T, f *Future, d time.Duration) Result {
	t.Helper()
	deadline := time.Now().Add(d)
	for !f.Done() {
		if time.Now().After(deadline) {
			t.Fatalf("future unresolved after %v without an explicit flush", d)
		}
		time.Sleep(time.Millisecond)
	}
	return f.Wait()
}

// TestAutoFlushDeadline: with a huge window, a lone submission must be
// dispatched by the MaxDelay deadline, and the flush must be counted as
// deadline-triggered.
func TestAutoFlushDeadline(t *testing.T) {
	tr := testTree(120, 1)
	eng, err := New(tr, Options{Window: 1 << 20, FlushDelay: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	vals := testVals(tr.N(), 2)
	res := waitResolved(t, eng.SubmitTreefix(vals, treefix.Add), 5*time.Second)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	want := treefix.SequentialBottomUp(tr, vals, treefix.Add)
	for v := range want {
		if res.Sums[v] != want[v] {
			t.Fatalf("sum[%d] = %d, want %d", v, res.Sums[v], want[v])
		}
	}
	st := eng.Stats()
	if st.DeadlineFlushes != 1 || st.SizeFlushes != 0 {
		t.Fatalf("flush triggers = %+v, want exactly one deadline flush", st)
	}
}

// TestAutoFlushSize: submissions filling the window must be dispatched
// by the size trigger well before a (long) deadline fires.
func TestAutoFlushSize(t *testing.T) {
	tr := testTree(120, 3)
	eng, err := New(tr, Options{Window: 4, FlushDelay: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	futs := make([]*Future, 4)
	for i := range futs {
		futs[i] = eng.SubmitLCA([]lca.Query{{U: i, V: tr.N() - 1 - i}})
	}
	for _, f := range futs {
		if res := waitResolved(t, f, 5*time.Second); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	st := eng.Stats()
	if st.SizeFlushes != 1 || st.DeadlineFlushes != 0 {
		t.Fatalf("flush triggers = %+v, want exactly one size flush", st)
	}
	if st.Batches != 1 || st.Requests != 4 {
		t.Fatalf("batches=%d requests=%d, want one coalesced batch of 4", st.Batches, st.Requests)
	}
}

// TestAutoFlushWaitDoesNotForceFlush: under the scheduler, Wait must
// block for the deadline instead of flushing eagerly — that is what
// lets concurrent waiters keep coalescing.
func TestAutoFlushWaitDoesNotForceFlush(t *testing.T) {
	tr := testTree(120, 4)
	eng, err := New(tr, Options{Window: 1 << 20, FlushDelay: 40 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const waiters = 8
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if res := eng.SubmitLCA([]lca.Query{{U: i, V: i + 1}}).Wait(); res.Err != nil {
				t.Error(res.Err)
			}
		}(i)
	}
	wg.Wait()
	st := eng.Stats()
	if st.DeadlineFlushes == 0 {
		t.Fatalf("stats = %+v, want at least one deadline flush", st)
	}
	if st.Batches >= waiters {
		t.Fatalf("batches = %d for %d concurrent waiters, want coalescing", st.Batches, waiters)
	}
}

// TestStopAutoFlushDrains: StopAutoFlush must dispatch the pending
// batch so no future waits for a deadline that will never fire, and the
// engine must revert to Wait-flushes semantics.
func TestStopAutoFlushDrains(t *testing.T) {
	tr := testTree(80, 5)
	eng, err := New(tr, Options{Window: 1 << 20, FlushDelay: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	fut := eng.SubmitLCA([]lca.Query{{U: 0, V: 1}})
	eng.StopAutoFlush()
	if !fut.Done() {
		t.Fatal("StopAutoFlush left a pending future unresolved")
	}
	if res := fut.Wait(); res.Err != nil {
		t.Fatal(res.Err)
	}
	// Scheduler off: a fresh submission resolves through Wait's own
	// flush, not a timer.
	if res := eng.SubmitLCA([]lca.Query{{U: 1, V: 2}}).Wait(); res.Err != nil {
		t.Fatal(res.Err)
	}
	if st := eng.Stats(); st.DeadlineFlushes != 0 {
		t.Fatalf("deadline flushes = %d, want 0", st.DeadlineFlushes)
	}
}

// TestAutoFlushStaleTimer: a timer armed for a batch that an explicit
// Flush already dispatched must not fire into the next batch early.
func TestAutoFlushStaleTimer(t *testing.T) {
	tr := testTree(80, 6)
	eng, err := New(tr, Options{Window: 1 << 20, FlushDelay: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	f1 := eng.SubmitLCA([]lca.Query{{U: 0, V: 1}})
	eng.Flush() // takes batch 0, disarms its timer
	if !f1.Done() {
		t.Fatal("explicit Flush left future unresolved")
	}
	// Batch 1 starts its own deadline; it must still resolve (a stale
	// fire from batch 0 being a no-op, not a stolen flush).
	f2 := eng.SubmitLCA([]lca.Query{{U: 1, V: 2}})
	if res := waitResolved(t, f2, 5*time.Second); res.Err != nil {
		t.Fatal(res.Err)
	}
	st := eng.Stats()
	if st.Batches != 2 {
		t.Fatalf("batches = %d, want 2", st.Batches)
	}
}

// TestQuiesce: after Quiesce, every submission is resolved and counted,
// no matter which trigger dispatched its batch.
func TestQuiesce(t *testing.T) {
	tr := testTree(100, 9)
	eng, err := New(tr, Options{Window: 1 << 20, FlushDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	futs := make([]*Future, n)
	for i := range futs {
		futs[i] = eng.SubmitLCA([]lca.Query{{U: i, V: i + 1}})
		time.Sleep(time.Duration(i%3) * time.Millisecond) // let some deadlines fire mid-stream
	}
	eng.Quiesce()
	for i, f := range futs {
		if !f.Done() {
			t.Fatalf("future %d unresolved after Quiesce", i)
		}
	}
	if st := eng.Stats(); st.Requests != n {
		t.Fatalf("requests = %d after Quiesce, want %d", st.Requests, n)
	}
	if eng.Pending() != 0 {
		t.Fatalf("pending = %d after Quiesce", eng.Pending())
	}
}

// TestDynMutationKeepsSchedulerStats: a mutation's drain must wait for
// batches the deadline timer dispatched, so no request vanishes from
// the stats when the next epoch is installed. (The race is
// timing-dependent; the invariant is exact either way.)
func TestDynMutationKeepsSchedulerStats(t *testing.T) {
	// A tree big enough that an LCA batch takes real wall-clock time:
	// the loss window is "batch dispatched by the timer but its
	// runBatch not finished when the post-mutation refresh retires the
	// engine", so the batch must outlive the mutation.
	tr := testTree(4000, 10)
	de, err := NewDyn(tr, DynOptions{Options: Options{
		Window:     1 << 20,
		FlushDelay: 200 * time.Microsecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 24
	for i := 0; i < rounds; i++ {
		de.SubmitLCA([]lca.Query{{U: 0, V: 1}}) // deliberately not waited on
		// Sleep past the deadline so the timer dispatches the batch; the
		// mutation then races its still-running runBatch.
		time.Sleep(300 * time.Microsecond)
		if _, err := de.InsertLeaf(0); err != nil {
			t.Fatal(err)
		}
	}
	de.Flush()
	st := de.Stats()
	if st.Engine.Requests != rounds {
		t.Fatalf("requests = %d, want %d: batch counters lost across epoch retirement", st.Engine.Requests, rounds)
	}
}

// TestDynEngineAutoFlush: the scheduler must survive epoch refreshes —
// a mutation installs a new serving state on the engine, which keeps
// its FlushDelay.
func TestDynEngineAutoFlush(t *testing.T) {
	tr := testTree(150, 7)
	de, err := NewDyn(tr, DynOptions{Options: Options{
		Window:     1 << 20,
		FlushDelay: 5 * time.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	res := waitResolved(t, de.SubmitLCA([]lca.Query{{U: 3, V: 4}}), 5*time.Second)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if _, err := de.InsertLeaf(0); err != nil {
		t.Fatal(err)
	}
	res = waitResolved(t, de.SubmitLCA([]lca.Query{{U: 3, V: tr.N()}}), 5*time.Second)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if st := de.Stats(); st.Engine.DeadlineFlushes < 2 {
		t.Fatalf("deadline flushes across epochs = %d, want >= 2", st.Engine.DeadlineFlushes)
	}
}
