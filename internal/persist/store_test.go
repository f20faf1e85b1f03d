package persist

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func testStore(t *testing.T, opts Options) *Store {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestSaveLoadTrees(t *testing.T) {
	s := testStore(t, Options{})
	a := []int{-1, 0, 0, 1, 1, 2, 2, 3}
	b := []int{-1, 0, 1}
	if err := s.SaveTree("t1", a); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveTree("t2", b); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveTree("t1", a); err != nil { // overwrite is idempotent
		t.Fatal(err)
	}
	// A placement snapshot, the form older data directories hold trees
	// in, loads as its parents.
	old := samplePlacement()
	old.Parents = []int{-1, 0, 0, 0, 1, 1, 2, 2}
	if err := os.WriteFile(filepath.Join(s.Dir(), "trees", "t3.snap"), EncodePlacement(old), 0o644); err != nil {
		t.Fatal(err)
	}
	saved, err := s.LoadTrees()
	if err != nil {
		t.Fatal(err)
	}
	want := []SavedTree{{ID: "t1", Parents: a}, {ID: "t2", Parents: b}, {ID: "t3", Parents: old.Parents}}
	if !reflect.DeepEqual(saved, want) {
		t.Fatalf("LoadTrees = %+v, want %+v", saved, want)
	}
	if err := s.SaveTree("../evil", a); err == nil {
		t.Fatal("SaveTree accepted a path-traversal id")
	}
	// A dyn frame is no registered tree.
	if err := os.WriteFile(filepath.Join(s.Dir(), "trees", "t4.snap"), EncodeDyn(sampleDyn()), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadTrees(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("LoadTrees over a dyn frame = %v, want ErrCorrupt", err)
	}
}

// mutationRecords fabricates a consecutive-epoch run of insert records
// starting after epoch from.
func mutationRecords(from uint64, n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Type: RecInsert, Epoch: from + 1 + uint64(i), Arg: i, Result: i + 1}
	}
	return recs
}

func TestShardLogAppendReopen(t *testing.T) {
	dir := t.TempDir()
	s := testStore(t, Options{Dir: dir})
	snap := sampleDyn()
	snap.Epoch = 0
	log, err := s.CreateShardLog("d1", snap)
	if err != nil {
		t.Fatal(err)
	}
	recs := mutationRecords(0, 10)
	for _, r := range recs {
		if err := log.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	// Out-of-order epochs are refused.
	if err := log.Append(Record{Type: RecInsert, Epoch: 99}); err == nil {
		t.Fatal("Append accepted an epoch gap")
	}
	if got := log.RecordsSinceSnapshot(); got != 10 {
		t.Fatalf("RecordsSinceSnapshot = %d, want 10", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := testStore(t, Options{Dir: dir})
	ids, err := s2.ShardIDs()
	if err != nil || len(ids) != 1 || ids[0] != "d1" {
		t.Fatalf("ShardIDs = %v, %v", ids, err)
	}
	log2, snap2, got, err := s2.OpenShardLog("d1")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap2, snap) {
		t.Fatalf("snapshot drifted: %+v", snap2)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("recovered records mismatch:\n got %+v\nwant %+v", got, recs)
	}
	// The reopened log appends where the old one left off.
	if err := log2.Append(Record{Type: RecInsert, Epoch: 11, Arg: 7, Result: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestShardLogRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation every few records.
	s := testStore(t, Options{Dir: dir, SegmentBytes: 64, CompactAfter: 1 << 30})
	snap := sampleDyn()
	snap.Epoch = 0
	log, err := s.CreateShardLog("d1", snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range mutationRecords(0, 40) {
		if err := log.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := listSegments(filepath.Join(dir, "dyn", "d1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %v", segs)
	}

	// Compact at epoch 40: all closed segments are covered and deleted,
	// and recovery needs no records.
	after := snap
	after.Epoch = 40
	if err := log.Compact(after); err != nil {
		t.Fatal(err)
	}
	segs2, _ := listSegments(filepath.Join(dir, "dyn", "d1"))
	if len(segs2) != 1 {
		t.Fatalf("compaction left segments %v", segs2)
	}
	if got := log.RecordsSinceSnapshot(); got != 0 {
		t.Fatalf("RecordsSinceSnapshot after compact = %d", got)
	}

	// More records after compaction, then recover: only the new ones
	// replay, on top of the epoch-40 snapshot.
	for _, r := range mutationRecords(40, 5) {
		if err := log.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	s2 := testStore(t, Options{Dir: dir})
	_, snap2, recs, err := s2.OpenShardLog("d1")
	if err != nil {
		t.Fatal(err)
	}
	if snap2.Epoch != 40 {
		t.Fatalf("recovered snapshot epoch %d, want 40", snap2.Epoch)
	}
	if len(recs) != 5 || recs[0].Epoch != 41 || recs[4].Epoch != 45 {
		t.Fatalf("recovered records %+v", recs)
	}
}

// TestRecordsAfter pins the log-shipping read path: consecutive
// mutation records and never a fence (each rotated segment opens with
// one), ErrCompacted below a compaction's snapshot, and nil at or past
// the last epoch.
func TestRecordsAfter(t *testing.T) {
	dir := t.TempDir()
	s := testStore(t, Options{Dir: dir, SegmentBytes: 64, CompactAfter: 1 << 30})
	snap := sampleDyn()
	snap.Epoch = 0
	log, err := s.CreateShardLog("d1", snap)
	if err != nil {
		t.Fatal(err)
	}
	all := mutationRecords(0, 30)
	for _, r := range all {
		if err := log.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if segs, err := listSegments(filepath.Join(dir, "dyn", "d1")); err != nil || len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %v, %v", segs, err)
	}
	for _, after := range []uint64{0, 1, 7, 29} {
		got, err := log.RecordsAfter(after)
		if err != nil {
			t.Fatalf("RecordsAfter(%d): %v", after, err)
		}
		if !reflect.DeepEqual(got, all[after:]) {
			t.Fatalf("RecordsAfter(%d) = %+v, want %+v", after, got, all[after:])
		}
	}
	for _, after := range []uint64{30, 31} {
		if got, err := log.RecordsAfter(after); got != nil || err != nil {
			t.Fatalf("RecordsAfter(%d) at the last epoch 30 = %+v, %v; want nil, nil", after, got, err)
		}
	}

	compacted := snap
	compacted.Epoch = 20
	if err := log.Compact(compacted); err != nil {
		t.Fatal(err)
	}
	if _, err := log.RecordsAfter(19); !errors.Is(err, ErrCompacted) {
		t.Fatalf("RecordsAfter(19) below the epoch-20 snapshot = %v, want ErrCompacted", err)
	}
	got, err := log.RecordsAfter(20)
	if err != nil || !reflect.DeepEqual(got, all[20:]) {
		t.Fatalf("RecordsAfter(20) after compaction = %+v, %v; want %+v", got, err, all[20:])
	}
}

// TestCompactKeepsRacingRecords pins the compaction/mutation race the
// server can produce: a record appended between the state capture and
// the Compact call is newer than the snapshot and must survive it.
func TestCompactKeepsRacingRecords(t *testing.T) {
	dir := t.TempDir()
	s := testStore(t, Options{Dir: dir, SegmentBytes: 1 << 20})
	snap := sampleDyn()
	snap.Epoch = 0
	log, err := s.CreateShardLog("d1", snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range mutationRecords(0, 3) {
		if err := log.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	// State captured at epoch 3... then a mutation lands at epoch 4
	// before Compact runs.
	captured := snap
	captured.Epoch = 3
	if err := log.Append(Record{Type: RecInsert, Epoch: 4, Arg: 0, Result: 5}); err != nil {
		t.Fatal(err)
	}
	if err := log.Compact(captured); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := testStore(t, Options{Dir: dir})
	_, snap2, recs, err := s2.OpenShardLog("d1")
	if err != nil {
		t.Fatal(err)
	}
	if snap2.Epoch != 3 {
		t.Fatalf("snapshot epoch %d, want 3", snap2.Epoch)
	}
	if len(recs) != 1 || recs[0].Epoch != 4 {
		t.Fatalf("racing record lost: recovered %+v", recs)
	}
}

func TestOpenShardLogTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	s := testStore(t, Options{Dir: dir})
	snap := sampleDyn()
	snap.Epoch = 0
	log, err := s.CreateShardLog("d1", snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range mutationRecords(0, 5) {
		if err := log.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Tear the last record mid-frame.
	seg := segPath(filepath.Join(dir, "dyn", "d1"), 1)
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	s2 := testStore(t, Options{Dir: dir})
	log2, _, recs, err := s2.OpenShardLog("d1")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("recovered %d records, want 4 (torn fifth dropped)", len(recs))
	}
	// Appending continues cleanly at the surviving epoch, and the file
	// was truncated to the valid boundary (no garbage between records).
	if err := log2.Append(Record{Type: RecInsert, Epoch: 5, Arg: 1, Result: 6}); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3 := testStore(t, Options{Dir: dir})
	_, _, recs3, err := s3.OpenShardLog("d1")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs3) != 5 || recs3[4].Epoch != 5 {
		t.Fatalf("post-repair log inconsistent: %+v", recs3)
	}
}

func TestCreateShardLogRefusesExisting(t *testing.T) {
	s := testStore(t, Options{})
	if _, err := s.CreateShardLog("d1", sampleDyn()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateShardLog("d1", sampleDyn()); err == nil {
		t.Fatal("CreateShardLog accepted a duplicate id")
	}
}

// TestShardLogDrop: dropping a log closes it and deletes the shard's
// durable state, so the store lists no such shard and the id can be
// created afresh; dropping a nil log is a no-op.
func TestShardLogDrop(t *testing.T) {
	s := testStore(t, Options{})
	l, err := s.CreateShardLog("d1", sampleDyn())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(mutationRecords(sampleDyn().Epoch, 1)[0]); err != nil {
		t.Fatal(err)
	}
	if err := l.Drop(); err != nil {
		t.Fatal(err)
	}
	if ids, err := s.ShardIDs(); err != nil || len(ids) != 0 {
		t.Fatalf("ShardIDs after Drop = %v, %v; want none", ids, err)
	}
	if err := l.Append(mutationRecords(sampleDyn().Epoch+1, 1)[0]); err == nil {
		t.Fatal("a dropped log took an append")
	}
	if _, err := s.CreateShardLog("d1", sampleDyn()); err != nil {
		t.Fatalf("CreateShardLog after Drop: %v", err)
	}
	if err := (*ShardLog)(nil).Drop(); err != nil {
		t.Fatalf("nil Drop = %v", err)
	}
}

// TestCompactResyncsAfterLostAppend pins the journal repair path: after
// a failed append the engine's epoch runs ahead of the log, the gap can
// never be filled, and a Compact at the engine's current state must
// bring the log back into service instead of wedging it (or
// underflowing the records-since-snapshot accounting).
func TestCompactResyncsAfterLostAppend(t *testing.T) {
	dir := t.TempDir()
	s := testStore(t, Options{Dir: dir})
	snap := sampleDyn()
	snap.Epoch = 0
	log, err := s.CreateShardLog("d1", snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range mutationRecords(0, 3) {
		if err := log.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	// Epoch 4's record was lost (its append failed); the engine moved on
	// to epoch 5. The strict continuity check must refuse epoch 5...
	if err := log.Append(Record{Type: RecInsert, Epoch: 5}); err == nil {
		t.Fatal("Append accepted a record across a gap")
	}
	// ...and a snapshot at the engine's current epoch 5 supersedes the
	// gap entirely.
	repaired := snap
	repaired.Epoch = 5
	if err := log.Compact(repaired); err != nil {
		t.Fatal(err)
	}
	if got := log.RecordsSinceSnapshot(); got != 0 {
		t.Fatalf("RecordsSinceSnapshot after repair = %d, want 0", got)
	}
	if got := log.LastEpoch(); got != 5 {
		t.Fatalf("LastEpoch after repair = %d, want 5", got)
	}
	if err := log.Append(Record{Type: RecInsert, Epoch: 6, Arg: 1, Result: 2}); err != nil {
		t.Fatalf("append after repair: %v", err)
	}
	s.Close()

	s2 := testStore(t, Options{Dir: dir})
	_, snap2, recs, err := s2.OpenShardLog("d1")
	if err != nil {
		t.Fatal(err)
	}
	if snap2.Epoch != 5 || len(recs) != 1 || recs[0].Epoch != 6 {
		t.Fatalf("recovered snap epoch %d, records %+v", snap2.Epoch, recs)
	}
}

// TestRecoveryRefusesCorruptNewestSnapshot: a shard whose newest
// snapshot fails its CRC must fail recovery loudly. Falling back to an
// older snapshot would hit the already-compacted WAL's epoch gap and
// destroy acknowledged records — silent rollback.
func TestRecoveryRefusesCorruptNewestSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := testStore(t, Options{Dir: dir})
	snap := sampleDyn()
	snap.Epoch = 0
	log, err := s.CreateShardLog("d1", snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range mutationRecords(0, 4) {
		if err := log.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	snapFile := filepath.Join(dir, "dyn", "d1", "snap-00000000000000000000.snap")
	raw, err := os.ReadFile(snapFile)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(snapFile, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := testStore(t, Options{Dir: dir})
	if _, _, _, err := s2.OpenShardLog("d1"); err == nil {
		t.Fatal("recovery accepted a corrupt snapshot")
	}
}

// TestStoreLockExcludesSecondProcess: a second Open of the same data
// dir must fail while the first store holds it, and succeed after
// Close — the guard against two daemons interleaving one WAL.
func TestStoreLockExcludesSecondProcess(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}); err == nil {
		s1.Close()
		t.Fatal("second Open of a held data dir succeeded")
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	s3.Close()
}
