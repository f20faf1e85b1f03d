package persist

import (
	"errors"
	"reflect"
	"testing"
)

func samplePlacement() PlacementSnapshot {
	return PlacementSnapshot{
		Parents: []int{-1, 0, 0, 1, 1, 2, 2, 3},
		Curve:   "hilbert",
		Order:   "light-first",
		Side:    4,
		Ranks:   []int{0, 1, 4, 2, 3, 5, 6, 7},
	}
}

// sampleDyn deliberately uses an epsilon above 1 with a drift beyond
// the tree size — a state only large-epsilon shards reach, and exactly
// the one an over-tight decoder bound once rejected (which would have
// poisoned the data dir at the next boot).
func sampleDyn() DynSnapshot {
	return DynSnapshot{
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
		MigrateEnergy: -0 + 456,
	}
}

func TestPlacementRoundTrip(t *testing.T) {
	want := samplePlacement()
	got, err := DecodePlacement(EncodePlacement(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestTreeRoundTrip(t *testing.T) {
	want := TreeSnapshot{Parents: []int{-1, 0, 0, 1, 1, 2, 2, 3}}
	got, err := Decode(EncodeTree(want.Parents))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestDynRoundTrip(t *testing.T) {
	want := sampleDyn()
	got, err := DecodeDyn(EncodeDyn(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestDecodeKindMismatch(t *testing.T) {
	if _, err := DecodeDyn(EncodePlacement(samplePlacement())); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("DecodeDyn(placement frame) = %v, want ErrCorrupt", err)
	}
	if _, err := DecodePlacement(EncodeDyn(sampleDyn())); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("DecodePlacement(dyn frame) = %v, want ErrCorrupt", err)
	}
	tree := EncodeTree(samplePlacement().Parents)
	if _, err := DecodePlacement(tree); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("DecodePlacement(tree frame) = %v, want ErrCorrupt", err)
	}
	if _, err := DecodeDyn(tree); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("DecodeDyn(tree frame) = %v, want ErrCorrupt", err)
	}
}

func TestDecodeCorruptions(t *testing.T) {
	base := EncodePlacement(samplePlacement())
	cases := map[string]func([]byte) []byte{
		"empty":          func(b []byte) []byte { return nil },
		"short header":   func(b []byte) []byte { return b[:10] },
		"bad magic":      func(b []byte) []byte { b[0] ^= 0xff; return b },
		"truncated":      func(b []byte) []byte { return b[:len(b)-3] },
		"extended":       func(b []byte) []byte { return append(b, 0) },
		"flipped crc":    func(b []byte) []byte { b[10] ^= 1; return b },
		"flipped body":   func(b []byte) []byte { b[len(b)-1] ^= 1; return b },
		"length too big": func(b []byte) []byte { b[6] ^= 0x40; return b },
	}
	for name, mutate := range cases {
		in := mutate(append([]byte(nil), base...))
		if _, err := Decode(in); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Decode = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestDecodeVersionSkew(t *testing.T) {
	b := EncodePlacement(samplePlacement())
	b[4] = 99
	if _, err := Decode(b); !errors.Is(err, ErrVersion) {
		t.Fatalf("Decode(version 99) = %v, want ErrVersion", err)
	}
}

func TestDecodeRejectsHostileFields(t *testing.T) {
	// A frame whose payload claims far more vertices than it carries
	// bytes must fail fast, before allocating anything proportional to
	// the claim.
	var e encoder
	e.uvarint(1 << 40)
	for _, kind := range []byte{kindTree, kindPlacement, kindDyn} {
		if _, err := Decode(frame(kind, e.buf)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("kind %d, huge count: %v, want ErrCorrupt", kind, err)
		}
	}

	// Every kind shares one parents decoder, so a parent outside
	// [-1, n) is corrupt in each of them.
	p := samplePlacement()
	p.Parents[2] = 99
	dy := sampleDyn()
	dy.Parents[2] = -2
	for name, raw := range map[string][]byte{
		"tree":      EncodeTree([]int{-1, 5}),
		"placement": EncodePlacement(p),
		"dyn":       EncodeDyn(dy),
	} {
		if _, err := Decode(raw); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s with an out-of-range parent: %v, want ErrCorrupt", name, err)
		}
	}
	// A tree frame carries nothing after its parents.
	var tr encoder
	tr.parents([]int{-1, 0})
	tr.uvarint(1)
	if _, err := Decode(frame(kindTree, tr.buf)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tree frame with trailing bytes: %v, want ErrCorrupt", err)
	}

	// A side far out of proportion to the tree is rejected, so a tiny
	// frame cannot demand an O(side²) grid from its consumer.
	s := samplePlacement()
	s.Side = 1 << 19
	if _, err := Decode(EncodePlacement(s)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized side: %v, want ErrCorrupt", err)
	}

	d := sampleDyn()
	d.Epsilon = -1
	if _, err := Decode(EncodeDyn(d)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("negative epsilon: %v, want ErrCorrupt", err)
	}

	// Drift beyond the rebuild threshold is unreachable: the layout
	// rebuilds (and resets drift) as soon as drift exceeds epsilon·n.
	d = sampleDyn()
	d.Epsilon = 0.2
	d.Drift = 3 // threshold for n=4 is 0.2·4+1
	if _, err := Decode(EncodeDyn(d)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("impossible drift: %v, want ErrCorrupt", err)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		{Type: RecFence, Epoch: 0},
		{Type: RecInsert, Epoch: 1, Arg: 0, Result: 4},
		{Type: RecDelete, Epoch: 2, Arg: 4, Result: 7},
		{Type: RecInsert, Epoch: 3, Arg: 2, Result: 8},
	}
	var buf []byte
	for _, r := range recs {
		buf = appendRecord(buf, r)
	}
	got, starts, valid := scanRecords(buf)
	if valid != len(buf) {
		t.Fatalf("valid = %d, want %d", valid, len(buf))
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("records mismatch:\n got %+v\nwant %+v", got, recs)
	}
	if starts[0] != 0 || len(starts) != len(recs) {
		t.Fatalf("starts = %v", starts)
	}

	// Every truncation point recovers exactly the complete-record
	// prefix before it.
	ends := append(append([]int(nil), starts[1:]...), len(buf))
	for cut := 0; cut <= len(buf); cut++ {
		got, _, valid := scanRecords(buf[:cut])
		want := 0
		for want < len(ends) && ends[want] <= cut {
			want++
		}
		if len(got) != want {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(got), want)
		}
		if valid > cut {
			t.Fatalf("cut %d: valid offset %d beyond input", cut, valid)
		}
	}
}

func TestScanRecordsStopsAtCorruption(t *testing.T) {
	var buf []byte
	buf = appendRecord(buf, Record{Type: RecInsert, Epoch: 1, Arg: 0, Result: 1})
	mark := len(buf)
	buf = appendRecord(buf, Record{Type: RecInsert, Epoch: 2, Arg: 1, Result: 2})
	buf[mark+recordHeaderLen] ^= 0xff // corrupt the second record's payload
	got, _, valid := scanRecords(buf)
	if len(got) != 1 || valid != mark {
		t.Fatalf("got %d records, valid %d; want 1 record, valid %d", len(got), valid, mark)
	}
}
