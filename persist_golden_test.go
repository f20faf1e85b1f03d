package spatialtree

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"spatialtree/internal/persist"
)

// The golden fixtures pin the snapshot wire format: re-encoding the
// reference values must reproduce the checked-in bytes exactly, so any
// codec change that drifts the format — field order, varint widths,
// header layout — fails loudly here and forces a conscious version
// bump instead of silently orphaning every existing data directory.

func goldenPlacement() persist.PlacementSnapshot {
	return persist.PlacementSnapshot{
		Parents: []int{-1, 0, 0, 1, 1, 2, 2, 3},
		Curve:   "hilbert",
		Order:   "light-first",
		Side:    4,
		Ranks:   []int{0, 1, 4, 2, 3, 5, 6, 7},
	}
}

func goldenDyn() persist.DynSnapshot {
	return persist.DynSnapshot{
		Parents:       []int{-1, 0, 0, 1},
		Curve:         "hilbert",
		Side:          4,
		Ranks:         []int{0, 2, 8, 4},
		Epsilon:       2.5,
		Epoch:         17,
		Drift:         9,
		Inserts:       11,
		Deletes:       6,
		Rebuilds:      2,
		ParkEnergy:    123,
		MigrateEnergy: 456,
	}
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "persist", name))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestGoldenTreeFormat pins the registered-tree snapshot: the parents
// and nothing else.
func TestGoldenTreeFormat(t *testing.T) {
	want := readGolden(t, "tree.v1.snap")
	parents := goldenPlacement().Parents
	if got := persist.EncodeTree(parents); !bytes.Equal(got, want) {
		t.Fatalf("tree wire format drifted from testdata/persist/tree.v1.snap:\n got %x\nwant %x\n(bump the format version rather than regenerate silently)", got, want)
	}
	snap, err := persist.Decode(want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, persist.TreeSnapshot{Parents: parents}) {
		t.Fatalf("golden tree decodes to %+v", snap)
	}
}

// TestGoldenPlacementFormat pins the placement snapshot, the format of
// the public SaveSnapshot and the one older data directories hold
// registered trees in.
func TestGoldenPlacementFormat(t *testing.T) {
	want := readGolden(t, "placement.v1.snap")
	if got := persist.EncodePlacement(goldenPlacement()); !bytes.Equal(got, want) {
		t.Fatalf("placement wire format drifted from testdata/persist/placement.v1.snap:\n got %x\nwant %x\n(bump the format version rather than regenerate silently)", got, want)
	}
	snap, err := persist.DecodePlacement(want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, goldenPlacement()) {
		t.Fatalf("golden placement decodes to %+v", snap)
	}
}

func TestGoldenDynFormat(t *testing.T) {
	want := readGolden(t, "dyn.v1.snap")
	if got := persist.EncodeDyn(goldenDyn()); !bytes.Equal(got, want) {
		t.Fatalf("dyn wire format drifted from testdata/persist/dyn.v1.snap:\n got %x\nwant %x\n(bump the format version rather than regenerate silently)", got, want)
	}
	snap, err := persist.DecodeDyn(want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, goldenDyn()) {
		t.Fatalf("golden dyn decodes to %+v", snap)
	}
}

// goldenWALRecords are the mutations the WAL fixture journals on top
// of goldenDyn (epoch 17, four vertices): an insert under vertex 1 that
// creates vertex 4, then a delete of leaf 2 that renames vertex 4 into
// its place.
func goldenWALRecords() []persist.Record {
	return []persist.Record{
		{Type: persist.RecInsert, Epoch: 18, Arg: 1, Result: 4},
		{Type: persist.RecDelete, Epoch: 19, Arg: 2, Result: 4},
	}
}

// TestGoldenWALFormat pins a WAL segment as a shard log writes it — a
// fence at the snapshot epoch, then one record per mutation — and
// checks that a store recovering from the checked-in bytes replays
// exactly those mutations, as an upgraded daemon must.
func TestGoldenWALFormat(t *testing.T) {
	want := readGolden(t, "wal.v1.log")
	dir := t.TempDir()
	store, err := persist.Open(persist.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	l, err := store.CreateShardLog("d1", goldenDyn())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range goldenWALRecords() {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "dyn", "d1", "wal-000001.log")
	got, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("WAL format drifted from testdata/persist/wal.v1.log:\n got %x\nwant %x\n(bump the format version rather than regenerate silently)", got, want)
	}

	if err := os.WriteFile(seg, want, 0o644); err != nil {
		t.Fatal(err)
	}
	store, err = persist.Open(persist.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	_, snap, recs, err := store.OpenShardLog("d1")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Epoch != goldenDyn().Epoch || !reflect.DeepEqual(recs, goldenWALRecords()) {
		t.Fatalf("golden WAL replays %+v on epoch %d", recs, snap.Epoch)
	}
}

// TestGoldenCorruptCRC: a stored snapshot whose payload no longer
// matches its CRC must come back as the typed ErrSnapshotCorrupt — from
// the raw decoder and from the public LoadSnapshot alike — never as a
// panic.
func TestGoldenCorruptCRC(t *testing.T) {
	raw := readGolden(t, "corrupt-crc.snap")
	if _, err := persist.Decode(raw); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("Decode(corrupt) = %v, want ErrSnapshotCorrupt", err)
	}
	if _, err := LoadSnapshot(bytes.NewReader(raw)); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("LoadSnapshot(corrupt) = %v, want ErrSnapshotCorrupt", err)
	}
}

// TestSaveLoadSnapshotRoundTrip covers the public API end to end: a
// real layout is saved, loaded, and must serve identical kernel
// results.
func TestSaveLoadSnapshotRoundTrip(t *testing.T) {
	tr := RandomTree(500, 11)
	p, err := Layout(tr, "hilbert")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveSnapshot(&buf, p); err != nil {
		t.Fatal(err)
	}
	p2, err := LoadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if p2.Side != p.Side || p2.Curve.Name() != p.Curve.Name() || p2.Order.Name != p.Order.Name {
		t.Fatalf("snapshot round trip changed the placement shape")
	}
	if !reflect.DeepEqual(p2.Order.Rank, p.Order.Rank) {
		t.Fatal("snapshot round trip changed the ranks")
	}
	vals := make([]int64, tr.N())
	for i := range vals {
		vals[i] = int64(i)
	}
	a := TreefixSum(tr, p, vals)
	b := TreefixSum(p2.Tree, p2, vals)
	if !reflect.DeepEqual(a.Sums, b.Sums) {
		t.Fatal("loaded placement serves different treefix sums")
	}
}
