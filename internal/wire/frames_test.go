package wire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"spatialtree/internal/persist"
)

var updateGolden = flag.Bool("update", false, "rewrite golden frame files under testdata/wire/")

// goldenFrames pins one encoding of every cluster-era frame. The bytes
// under testdata/wire/ are the protocol contract: a codec change that
// alters them breaks rolling upgrades between cluster nodes, so this
// test only goes green on purpose (regenerate with -update).
var goldenFrames = []struct {
	name   string
	kind   uint8
	encode func(dst []byte) []byte
	decode func(payload []byte) (any, error)
	want   any
}{
	{
		name: "dyncreate",
		kind: FrameDynCreate,
		encode: func(dst []byte) []byte {
			return AppendDynCreate(dst, &DynCreate{
				ID: 7, ShardID: "c00000000000002a-3",
				Parents: []int{-1, 0, 0, 1}, Epsilon: 0.25, Backend: "native",
			})
		},
		decode: func(p []byte) (any, error) { var v DynCreate; err := v.Decode(p); return &v, err },
		want: &DynCreate{ID: 7, ShardID: "c00000000000002a-3",
			Parents: []int{-1, 0, 0, 1}, Epsilon: 0.25, Backend: "native"},
	},
	{
		name: "dyncreated",
		kind: FrameDynCreated,
		encode: func(dst []byte) []byte {
			return AppendDynCreated(dst, &DynCreated{ID: 7, ShardID: "c00000000000002a-3", N: 4, Backend: "native"})
		},
		decode: func(p []byte) (any, error) { var v DynCreated; err := v.Decode(p); return &v, err },
		want:   &DynCreated{ID: 7, ShardID: "c00000000000002a-3", N: 4, Backend: "native"},
	},
	{
		name: "mutate",
		kind: FrameMutate,
		encode: func(dst []byte) []byte {
			return AppendMutate(dst, &Mutate{ID: 8, ShardID: "c00000000000002a-3", Op: OpInsert, Arg: 2})
		},
		decode: func(p []byte) (any, error) { var v Mutate; err := v.Decode(p); return &v, err },
		want:   &Mutate{ID: 8, ShardID: "c00000000000002a-3", Op: OpInsert, Arg: 2},
	},
	{
		name: "mutated",
		kind: FrameMutated,
		encode: func(dst []byte) []byte {
			return AppendMutated(dst, &Mutated{ID: 8, Vertex: 4, Moved: 0, Epoch: 11, N: 5})
		},
		decode: func(p []byte) (any, error) { var v Mutated; err := v.Decode(p); return &v, err },
		want:   &Mutated{ID: 8, Vertex: 4, Moved: 0, Epoch: 11, N: 5},
	},
	{
		name: "repsnapshot",
		kind: FrameRepSnapshot,
		encode: func(dst []byte) []byte {
			return AppendRepSnapshot(dst, &RepSnapshot{ID: 9, ShardID: "c00000000000002a-3", Blob: []byte{0xde, 0xad, 0xbe, 0xef}})
		},
		decode: func(p []byte) (any, error) { var v RepSnapshot; err := v.Decode(p); return &v, err },
		want:   &RepSnapshot{ID: 9, ShardID: "c00000000000002a-3", Blob: []byte{0xde, 0xad, 0xbe, 0xef}},
	},
	{
		name: "reprecords",
		kind: FrameRepRecords,
		encode: func(dst []byte) []byte {
			return AppendRepRecords(dst, &RepRecords{ID: 10, ShardID: "c00000000000002a-3", Recs: []persist.Record{
				{Type: persist.RecInsert, Epoch: 12, Arg: 2, Result: 5},
				{Type: persist.RecDelete, Epoch: 13, Arg: 5, Result: 4},
			}})
		},
		decode: func(p []byte) (any, error) { var v RepRecords; err := v.Decode(p); return &v, err },
		want: &RepRecords{ID: 10, ShardID: "c00000000000002a-3", Recs: []persist.Record{
			{Type: persist.RecInsert, Epoch: 12, Arg: 2, Result: 5},
			{Type: persist.RecDelete, Epoch: 13, Arg: 5, Result: 4},
		}},
	},
	{
		name: "repack",
		kind: FrameRepAck,
		encode: func(dst []byte) []byte {
			return AppendRepAck(dst, &RepAck{ID: 10, ShardID: "c00000000000002a-3", Cursor: 13, Code: AckNeedSync, Msg: "gap"})
		},
		decode: func(p []byte) (any, error) { var v RepAck; err := v.Decode(p); return &v, err },
		want:   &RepAck{ID: 10, ShardID: "c00000000000002a-3", Cursor: 13, Code: AckNeedSync, Msg: "gap"},
	},
	{
		name: "handbackoffer",
		kind: FrameHandbackOffer,
		encode: func(dst []byte) []byte {
			return AppendHandbackOffer(dst, &HandbackOffer{
				ID: 11, ShardID: "c00000000000002a-3", Phase: HandbackClaim, Cursor: 13,
				Recs: []persist.Record{
					{Type: persist.RecInsert, Epoch: 12, Arg: 2, Result: 5},
					{Type: persist.RecDelete, Epoch: 13, Arg: 5, Result: 4},
				},
			})
		},
		decode: func(p []byte) (any, error) { var v HandbackOffer; err := v.Decode(p); return &v, err },
		want: &HandbackOffer{ID: 11, ShardID: "c00000000000002a-3", Phase: HandbackClaim, Cursor: 13,
			Recs: []persist.Record{
				{Type: persist.RecInsert, Epoch: 12, Arg: 2, Result: 5},
				{Type: persist.RecDelete, Epoch: 13, Arg: 5, Result: 4},
			}},
	},
	{
		name: "handbackgrant",
		kind: FrameHandbackGrant,
		encode: func(dst []byte) []byte {
			return AppendHandbackGrant(dst, &HandbackGrant{
				ID: 11, ShardID: "c00000000000002a-3", Mode: GrantTail, Fence: 15,
				Recs: []persist.Record{
					{Type: persist.RecInsert, Epoch: 14, Arg: 1, Result: 6},
					{Type: persist.RecInsert, Epoch: 15, Arg: 6, Result: 7},
				},
			})
		},
		decode: func(p []byte) (any, error) { var v HandbackGrant; err := v.Decode(p); return &v, err },
		want: &HandbackGrant{ID: 11, ShardID: "c00000000000002a-3", Mode: GrantTail, Fence: 15,
			Recs: []persist.Record{
				{Type: persist.RecInsert, Epoch: 14, Arg: 1, Result: 6},
				{Type: persist.RecInsert, Epoch: 15, Arg: 6, Result: 7},
			}},
	},
}

// TestClusterFrameRoundTrip: encode → frame-read → decode must
// reproduce every field of every cluster-era frame.
func TestClusterFrameRoundTrip(t *testing.T) {
	for _, tc := range goldenFrames {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.encode(nil)
			rd := NewReader(bufio.NewReader(bytes.NewReader(b)), 0)
			kind, payload, err := rd.Next()
			if err != nil {
				t.Fatalf("frame read: %v", err)
			}
			if kind != tc.kind {
				t.Fatalf("kind = %d, want %d", kind, tc.kind)
			}
			got, err := tc.decode(payload)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("round trip:\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}

// TestGoldenFrames pins the exact bytes under testdata/wire/.
func TestGoldenFrames(t *testing.T) {
	for _, tc := range goldenFrames {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join("testdata", "wire", tc.name+".hex")
			b := tc.encode(nil)
			enc := hex.EncodeToString(b) + "\n"
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(enc), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if string(want) != enc {
				t.Fatalf("frame bytes changed vs %s:\n got %s\nwant %s\n(an intentional protocol change must bump the version and regenerate with -update)",
					path, enc, want)
			}
			// The checked-in bytes must also still decode to the same
			// struct — the other half of cross-version compatibility.
			raw, err := hex.DecodeString(string(bytes.TrimSpace(want)))
			if err != nil {
				t.Fatal(err)
			}
			rd := NewReader(bufio.NewReader(bytes.NewReader(raw)), 0)
			_, payload, err := rd.Next()
			if err != nil {
				t.Fatalf("golden frame read: %v", err)
			}
			got, err := tc.decode(payload)
			if err != nil {
				t.Fatalf("golden decode: %v", err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("golden decode:\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}

// TestDecodeRefusesNonMutationRecords: the record lists of rep-records
// and of both handback frames carry only inserts and deletes. A fence
// (a segment marker of one WAL) or an unknown type fails the decode.
func TestDecodeRefusesNonMutationRecords(t *testing.T) {
	for _, typ := range []persist.RecordType{persist.RecFence, 9} {
		recs := []persist.Record{
			{Type: persist.RecInsert, Epoch: 1, Arg: 0, Result: 1},
			{Type: typ, Epoch: 2},
		}
		for _, tc := range []struct {
			name   string
			frame  []byte
			decode func(payload []byte) error
		}{
			{"reprecords", AppendRepRecords(nil, &RepRecords{ID: 1, ShardID: "s", Recs: recs}),
				func(p []byte) error { var v RepRecords; return v.Decode(p) }},
			{"handbackoffer", AppendHandbackOffer(nil, &HandbackOffer{ID: 1, ShardID: "s", Phase: HandbackClaim, Cursor: 2, Recs: recs}),
				func(p []byte) error { var v HandbackOffer; return v.Decode(p) }},
			{"handbackgrant", AppendHandbackGrant(nil, &HandbackGrant{ID: 1, ShardID: "s", Mode: GrantTail, Fence: 2, Recs: recs}),
				func(p []byte) error { var v HandbackGrant; return v.Decode(p) }},
		} {
			if err := tc.decode(tc.frame[HeaderLen:]); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s carrying a record of type %d: decode = %v, want ErrCorrupt", tc.name, typ, err)
			}
		}
	}
}
