package engine

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"spatialtree/internal/exec"
	"spatialtree/internal/lca"
	"spatialtree/internal/persist"
	"spatialtree/internal/rng"
	"spatialtree/internal/tree"
	"spatialtree/internal/treefix"
)

// TestDynStateRestoreRoundTrip: State → RestoreDyn must reproduce the
// shard exactly — tree, epoch, counters, and served answers.
func TestDynStateRestoreRoundTrip(t *testing.T) {
	base := tree.RandomAttachment(120, rng.New(3))
	de, err := NewDyn(base, DynOptions{Epsilon: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 45; i++ {
		if _, err := de.InsertLeaf(i % 120); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := de.DeleteLeaf(120); err != nil { // first inserted leaf
		t.Fatal(err)
	}
	st := de.State()

	de2, err := RestoreDyn(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := de.Stats(), de2.Stats()
	if s1.Epoch != s2.Epoch || s1.N != s2.N || s1.Inserts != s2.Inserts ||
		s1.Deletes != s2.Deletes || s1.Rebuilds != s2.Rebuilds ||
		s1.ParkEnergy != s2.ParkEnergy || s1.MigrateEnergy != s2.MigrateEnergy {
		t.Fatalf("restored stats diverge:\n%+v\n%+v", s1, s2)
	}
	t1, err := de.Tree()
	if err != nil {
		t.Fatal(err)
	}
	t2, err := de2.Tree()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(t1.Parents(), t2.Parents()) {
		t.Fatal("restored tree differs")
	}
	vals := make([]int64, t1.N())
	for i := range vals {
		vals[i] = int64(i * 7)
	}
	r1 := de.SubmitTreefix(vals, treefix.Add).Wait()
	r2 := de2.SubmitTreefix(vals, treefix.Add).Wait()
	if r1.Err != nil || r2.Err != nil {
		t.Fatal(r1.Err, r2.Err)
	}
	if !reflect.DeepEqual(r1.Sums, r2.Sums) {
		t.Fatal("restored shard serves different sums")
	}

	// Mutations continue cleanly from the restored epoch.
	if _, err := de2.InsertLeaf(0); err != nil {
		t.Fatal(err)
	}
	if de2.Epoch() != st.Epoch+1 {
		t.Fatalf("epoch after restored mutation = %d, want %d", de2.Epoch(), st.Epoch+1)
	}
}

// journalTo attaches a fresh WAL to de, in a store under t.TempDir()
// opened with opts (Dir aside), and returns it.
func journalTo(t testing.TB, de *DynEngine, opts persist.Options) *persist.ShardLog {
	t.Helper()
	opts.Dir = t.TempDir()
	st, err := persist.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	log, err := st.CreateShardLog("d1", de.State())
	if err != nil {
		t.Fatal(err)
	}
	de.SetJournal(log)
	return log
}

// recordsAfter reads back the records log holds past epoch.
func recordsAfter(t testing.TB, log *persist.ShardLog, epoch uint64) []persist.Record {
	t.Helper()
	recs, err := log.RecordsAfter(epoch)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestJournalOrdering: the WAL receives every applied mutation exactly
// once, with epochs advancing by exactly one, and inserts/deletes that
// failed validation never journal.
func TestJournalOrdering(t *testing.T) {
	base := tree.RandomAttachment(40, rng.New(5))
	de, err := NewDyn(base, DynOptions{Epsilon: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	log := journalTo(t, de, persist.Options{})
	v, err := de.InsertLeaf(7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := de.InsertLeaf(-1); err == nil { // invalid: must not journal
		t.Fatal("insert under invalid parent succeeded")
	}
	if _, err := de.DeleteLeaf(0); err == nil { // root: must not journal
		t.Fatal("root delete succeeded")
	}
	moved, err := de.DeleteLeaf(v)
	if err != nil {
		t.Fatal(err)
	}
	want := []persist.Record{
		{Type: persist.RecInsert, Epoch: 1, Arg: 7, Result: v},
		{Type: persist.RecDelete, Epoch: 2, Arg: v, Result: moved},
	}
	if recs := recordsAfter(t, log, 0); !reflect.DeepEqual(recs, want) {
		t.Fatalf("journal = %+v, want %+v", recs, want)
	}
}

// TestJournalFailureSurfaces: a failing append fails the mutation
// call, and the caller can tell the mutation itself still applied (the
// tree changed; durability did not).
func TestJournalFailureSurfaces(t *testing.T) {
	base := tree.RandomAttachment(20, rng.New(6))
	de, err := NewDyn(base, DynOptions{Epsilon: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if err := journalTo(t, de, persist.Options{}).Close(); err != nil { // a closed log fails every append
		t.Fatal(err)
	}
	nBefore := de.N()
	v, err := de.InsertLeaf(0)
	if err == nil || errors.Is(err, ErrInvalid) {
		t.Fatalf("InsertLeaf = %v, want a non-ErrInvalid error", err)
	}
	// The mutation applied, so its result must come back with the
	// error — the caller still needs the new id to reconcile.
	if v != nBefore {
		t.Fatalf("InsertLeaf returned id %d with the journal error, want %d", v, nBefore)
	}
	if de.N() != nBefore+1 || de.Epoch() != 1 {
		t.Fatalf("in-memory mutation should stand: n=%d epoch=%d", de.N(), de.Epoch())
	}
	moved, err := de.DeleteLeaf(v)
	if err == nil || errors.Is(err, ErrInvalid) {
		t.Fatalf("DeleteLeaf = %v, want a non-ErrInvalid error", err)
	}
	if moved != v {
		t.Fatalf("DeleteLeaf returned moved %d with the journal error, want %d (last id)", moved, v)
	}
}

// TestApplyRecord pins the one replay path that follower apply, boot
// recovery and the handback tail share: duplicates skip without
// journaling, a gap leaves the cursor alone, owner records reproduce the
// owner's results and journal themselves, a record that does not
// reproduce is ErrReplicaDiverged, and only inserts and deletes apply.
func TestApplyRecord(t *testing.T) {
	owner, err := NewDyn(tree.RandomAttachment(30, rng.New(8)), DynOptions{Epsilon: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	start := owner.State()
	ownerLog := journalTo(t, owner, persist.Options{})
	v, err := owner.InsertLeaf(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := owner.InsertLeaf(v); err != nil {
		t.Fatal(err)
	}
	leaf := 1
	for !owner.IsLeaf(leaf) {
		leaf++
	}
	// An original leaf, not the last id: the delete renumbers, so its
	// result is worth verifying.
	if moved, err := owner.DeleteLeaf(leaf); err != nil || moved == leaf {
		t.Fatalf("DeleteLeaf(%d) = %d, %v; want a renumbering delete", leaf, moved, err)
	}
	shipped := recordsAfter(t, ownerLog, start.Epoch)

	replica, err := RestoreDyn(start, Options{})
	if err != nil {
		t.Fatal(err)
	}
	replicaLog := journalTo(t, replica, persist.Options{})
	journaled := func() []persist.Record { return recordsAfter(t, replicaLog, start.Epoch) }

	if err := replica.ApplyRecord(shipped[1]); !errors.Is(err, ErrReplicaGap) {
		t.Fatalf("cursor+2 = %v, want ErrReplicaGap", err)
	}
	if replica.Epoch() != start.Epoch || replica.N() != len(start.Parents) || len(journaled()) != 0 {
		t.Fatalf("gap moved the replica: epoch %d n %d journaled %d", replica.Epoch(), replica.N(), len(journaled()))
	}
	for _, rec := range shipped {
		if err := replica.ApplyRecord(rec); err != nil {
			t.Fatalf("ApplyRecord(%+v) = %v", rec, err)
		}
	}
	if !reflect.DeepEqual(journaled(), shipped) {
		t.Fatalf("replica journaled %+v, owner shipped %+v", journaled(), shipped)
	}
	ot, err := owner.Tree()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := replica.Tree()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rt.Parents(), ot.Parents()) {
		t.Fatal("replica tree differs from the owner's")
	}

	for _, dup := range []persist.Record{shipped[0], shipped[len(shipped)-1]} {
		if err := replica.ApplyRecord(dup); err != nil {
			t.Fatalf("duplicate %+v = %v, want a skip", dup, err)
		}
	}
	if replica.Epoch() != owner.Epoch() || len(journaled()) != len(shipped) {
		t.Fatalf("duplicates moved the replica: epoch %d, journaled %d", replica.Epoch(), len(journaled()))
	}

	// The mutation applies but its result disagrees with the owner's.
	wrong := persist.Record{Type: persist.RecInsert, Epoch: replica.Epoch() + 1, Arg: 0, Result: replica.N() + 1}
	if err := replica.ApplyRecord(wrong); !errors.Is(err, ErrReplicaDiverged) {
		t.Fatalf("wrong result = %v, want ErrReplicaDiverged", err)
	}
	// The mutation cannot apply at all: the root is not a leaf.
	root := persist.Record{Type: persist.RecDelete, Epoch: replica.Epoch() + 1, Arg: 0}
	if err := replica.ApplyRecord(root); !errors.Is(err, ErrReplicaDiverged) {
		t.Fatalf("unappliable record = %v, want ErrReplicaDiverged", err)
	}
	if got := journaled(); len(got) != len(shipped) {
		t.Fatalf("diverged records journaled: %+v", got[len(shipped):])
	}

	for _, typ := range []persist.RecordType{persist.RecFence, 0, 9} {
		rec := persist.Record{Type: typ, Epoch: replica.Epoch() + 1}
		if err := replica.ApplyRecord(rec); err == nil || errors.Is(err, ErrReplicaGap) || errors.Is(err, ErrReplicaDiverged) {
			t.Fatalf("record type %d = %v, want a type rejection", typ, err)
		}
	}
}

// TestDynCompactsOwnJournal: a shard folds its WAL into a snapshot once
// k records pass the snapshot, on every mutation path — InsertLeaf and
// DeleteLeaf on the owner, ApplyRecord on a replica — so neither log
// ever holds k records past its snapshot.
func TestDynCompactsOwnJournal(t *testing.T) {
	const k = 3
	owner, err := NewDyn(tree.RandomAttachment(40, rng.New(11)), DynOptions{Epsilon: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	replica, err := RestoreDyn(owner.State(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ownerLog := journalTo(t, owner, persist.Options{CompactAfter: k})
	replicaLog := journalTo(t, replica, persist.Options{CompactAfter: k})
	step := func(rec persist.Record) {
		t.Helper()
		if err := replica.ApplyRecord(rec); err != nil {
			t.Fatal(err)
		}
		for name, log := range map[string]*persist.ShardLog{"owner": ownerLog, "replica": replicaLog} {
			if got, want := log.Compactions(), rec.Epoch/k; got != want {
				t.Fatalf("%s at epoch %d: %d compactions, want %d", name, rec.Epoch, got, want)
			}
			if got := log.RecordsSinceSnapshot(); got >= k {
				t.Fatalf("%s at epoch %d: %d records past the snapshot at CompactAfter %d", name, rec.Epoch, got, k)
			}
		}
	}
	for i := 0; i < 2*k; i++ {
		v, err := owner.InsertLeaf(0)
		if err != nil {
			t.Fatal(err)
		}
		step(persist.Record{Type: persist.RecInsert, Epoch: owner.Epoch(), Arg: 0, Result: v})
	}
	for i := 0; i < 2*k; i++ {
		leaf := owner.N() - 1 // an inserted leaf
		moved, err := owner.DeleteLeaf(leaf)
		if err != nil {
			t.Fatal(err)
		}
		step(persist.Record{Type: persist.RecDelete, Epoch: owner.Epoch(), Arg: leaf, Result: moved})
	}
	if !reflect.DeepEqual(replica.State(), owner.State()) {
		t.Fatal("replica state differs from the owner's")
	}
}

// TestOpenDynCompactsOnRecovery: OpenDyn replays a WAL that is already
// past its compaction threshold, folds it into a snapshot, and gives
// back the shard's tree, epoch and answers; the next recovery replays
// nothing.
func TestOpenDynCompactsOnRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := persist.Open(persist.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	de, err := NewDyn(tree.RandomAttachment(50, rng.New(12)), DynOptions{Epsilon: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	log, err := st.CreateShardLog("d1", de.State())
	if err != nil {
		t.Fatal(err)
	}
	de.SetJournal(log)
	r := rng.New(13)
	const muts = 10
	for i := 0; i < muts; i++ {
		mutate(t, de, r)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	vals := make([]int64, de.N())
	qs := make([]lca.Query, de.N())
	for i := range vals {
		vals[i] = int64(i)
		qs[i] = lca.Query{U: i, V: r.Intn(de.N())}
	}
	wantSums := de.SubmitTreefix(vals, treefix.Add).Wait()
	wantLCA := de.SubmitLCA(qs).Wait()
	if wantSums.Err != nil || wantLCA.Err != nil {
		t.Fatal(wantSums.Err, wantLCA.Err)
	}

	for _, wantReplayed := range []int{muts, 0} {
		st, err := persist.Open(persist.Options{Dir: dir, CompactAfter: 4})
		if err != nil {
			t.Fatal(err)
		}
		got, replayed, err := OpenDyn(st, "d1", Options{})
		if err != nil {
			t.Fatal(err)
		}
		if replayed != wantReplayed {
			t.Fatalf("OpenDyn replayed %d records, want %d", replayed, wantReplayed)
		}
		if n := got.Journal().RecordsSinceSnapshot(); n != 0 {
			t.Fatalf("recovered log holds %d records past its snapshot at CompactAfter 4", n)
		}
		if !reflect.DeepEqual(got.State(), de.State()) {
			t.Fatal("recovered state differs from the journaled shard's")
		}
		sums, lcas := got.SubmitTreefix(vals, treefix.Add).Wait(), got.SubmitLCA(qs).Wait()
		if !reflect.DeepEqual(sums.Sums, wantSums.Sums) || !reflect.DeepEqual(lcas.Answers, wantLCA.Answers) {
			t.Fatal("recovered shard answers differ")
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDynJournalHammer: a shard compacts its WAL outside the mutation
// lock, beside batches, other mutations and State/Journal readers. On
// both backends, with a compaction every two records, LCA answers stay
// right under churn, and recovering the directory afterwards gives back
// the live shard exactly.
func TestDynJournalHammer(t *testing.T) {
	const stable = 64 // the base tree; mutations insert and delete leaves above it
	for _, backend := range []string{exec.Native, exec.Sim} {
		t.Run(backend, func(t *testing.T) {
			base := tree.RandomAttachment(stable, rng.New(21))
			de, err := NewDyn(base, DynOptions{Options: Options{Backend: backend, Window: 4}, Epsilon: 0.2})
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			st, err := persist.Open(persist.Options{Dir: dir, CompactAfter: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close() // closed again before the directory is reopened; a second Close is a no-op
			log, err := st.CreateShardLog("d1", de.State())
			if err != nil {
				t.Fatal(err)
			}
			de.SetJournal(log)
			oracle := lca.NewOracle(base)
			var wg sync.WaitGroup
			errs := make(chan error, 4) // one per goroutine, each sends at most once
			done := make(chan struct{})
			run := func(f func(r *rng.RNG) error, seed uint64) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					r := rng.New(seed)
					if err := f(r); err != nil {
						errs <- err
					}
				}()
			}
			var mutators sync.WaitGroup
			mutators.Add(2)
			run(func(r *rng.RNG) error { // inserts only under base vertices, so every vertex above stable stays a leaf
				defer mutators.Done()
				for i := 0; i < 80; i++ {
					if _, err := de.InsertLeaf(r.Intn(stable)); err != nil {
						return fmt.Errorf("insert: %w", err)
					}
				}
				return nil
			}, 1)
			run(func(r *rng.RNG) error {
				defer mutators.Done()
				for i := 0; i < 40; i++ {
					// Only this goroutine deletes, so N cannot shrink under it.
					if v := de.N() - 1; v >= stable {
						if _, err := de.DeleteLeaf(stable + r.Intn(v-stable+1)); err != nil {
							return fmt.Errorf("delete: %w", err)
						}
					}
				}
				return nil
			}, 2)
			run(func(r *rng.RNG) error {
				for {
					select {
					case <-done:
						return nil
					default:
					}
					qs := make([]lca.Query, 8)
					for j := range qs {
						qs[j] = lca.Query{U: r.Intn(stable), V: r.Intn(stable)}
					}
					res := de.SubmitLCA(qs).Wait()
					if res.Err != nil {
						return fmt.Errorf("lca: %w", res.Err)
					}
					for j, q := range qs {
						if want := oracle.LCA(q.U, q.V); res.Answers[j] != want {
							return fmt.Errorf("lca(%d, %d) = %d, want %d", q.U, q.V, res.Answers[j], want)
						}
					}
				}
			}, 3)
			run(func(*rng.RNG) error {
				for {
					select {
					case <-done:
						return nil
					default:
					}
					if snap := de.State(); len(snap.Parents) < stable {
						return fmt.Errorf("state holds %d vertices, fewer than the base's %d", len(snap.Parents), stable)
					}
					l := de.Journal()
					_, _, _ = l.LastEpoch(), l.RecordsSinceSnapshot(), l.Compactions()
				}
			}, 4)
			mutators.Wait()
			close(done)
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			if t.Failed() {
				return
			}
			if log.Compactions() == 0 {
				t.Fatal("no compaction at CompactAfter 2")
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st2, err := persist.Open(persist.Options{Dir: dir, CompactAfter: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			got, _, err := OpenDyn(st2, "d1", Options{Backend: backend})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.State(), de.State()) {
				t.Fatalf("recovered shard at epoch %d differs from the live one at epoch %d", got.Epoch(), de.Epoch())
			}
		})
	}
}
