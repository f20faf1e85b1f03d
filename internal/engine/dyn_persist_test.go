package engine

import (
	"errors"
	"reflect"
	"testing"

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

// TestJournalOrdering: the hook sees every applied mutation exactly
// once, with epochs advancing by exactly one, and inserts/deletes that
// failed validation never journal.
func TestJournalOrdering(t *testing.T) {
	base := tree.RandomAttachment(40, rng.New(5))
	de, err := NewDyn(base, DynOptions{Epsilon: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	var recs []persist.Record
	de.SetJournal(func(rec persist.Record) error {
		recs = append(recs, rec)
		return nil
	})
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
	if !reflect.DeepEqual(recs, want) {
		t.Fatalf("journal = %+v, want %+v", recs, want)
	}
}

// TestJournalFailureSurfaces: a failing hook fails the mutation call,
// and the caller can tell the mutation itself still applied (the tree
// changed; durability did not).
func TestJournalFailureSurfaces(t *testing.T) {
	base := tree.RandomAttachment(20, rng.New(6))
	de, err := NewDyn(base, DynOptions{Epsilon: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("disk full")
	de.SetJournal(func(persist.Record) error { return sentinel })
	nBefore := de.N()
	v, err := de.InsertLeaf(0)
	if !errors.Is(err, sentinel) {
		t.Fatalf("InsertLeaf = %v, want wrapped sentinel", err)
	}
	// The mutation applied, so its result must come back with the
	// error — the caller still needs the new id to reconcile.
	if v != nBefore {
		t.Fatalf("InsertLeaf returned id %d with the journal error, want %d", v, nBefore)
	}
	if de.N() != nBefore+1 || de.Epoch() != 1 {
		t.Fatalf("in-memory mutation should stand: n=%d epoch=%d", de.N(), de.Epoch())
	}
	de.SetJournal(func(persist.Record) error { return sentinel })
	moved, err := de.DeleteLeaf(v)
	if !errors.Is(err, sentinel) {
		t.Fatalf("DeleteLeaf = %v, want wrapped sentinel", err)
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
	var shipped []persist.Record
	owner.SetJournal(func(rec persist.Record) error {
		shipped = append(shipped, rec)
		return nil
	})
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

	replica, err := RestoreDyn(start, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var journaled []persist.Record
	replica.SetJournal(func(rec persist.Record) error {
		journaled = append(journaled, rec)
		return nil
	})

	if err := replica.ApplyRecord(shipped[1]); !errors.Is(err, ErrReplicaGap) {
		t.Fatalf("cursor+2 = %v, want ErrReplicaGap", err)
	}
	if replica.Epoch() != start.Epoch || replica.N() != len(start.Parents) || len(journaled) != 0 {
		t.Fatalf("gap moved the replica: epoch %d n %d journaled %d", replica.Epoch(), replica.N(), len(journaled))
	}
	for _, rec := range shipped {
		if err := replica.ApplyRecord(rec); err != nil {
			t.Fatalf("ApplyRecord(%+v) = %v", rec, err)
		}
	}
	if !reflect.DeepEqual(journaled, shipped) {
		t.Fatalf("replica journaled %+v, owner shipped %+v", journaled, shipped)
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
	if replica.Epoch() != owner.Epoch() || len(journaled) != len(shipped) {
		t.Fatalf("duplicates moved the replica: epoch %d, journaled %d", replica.Epoch(), len(journaled))
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
	if len(journaled) != len(shipped) {
		t.Fatalf("diverged records journaled: %+v", journaled[len(shipped):])
	}

	for _, typ := range []persist.RecordType{persist.RecFence, 0, 9} {
		rec := persist.Record{Type: typ, Epoch: replica.Epoch() + 1}
		if err := replica.ApplyRecord(rec); err == nil || errors.Is(err, ErrReplicaGap) || errors.Is(err, ErrReplicaDiverged) {
			t.Fatalf("record type %d = %v, want a type rejection", typ, err)
		}
	}
}
