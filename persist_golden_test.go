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
