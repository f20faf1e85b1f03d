// Package persist is the durability subsystem behind cmd/spatialtreed:
// a versioned binary snapshot codec for registered trees, static
// placements and dynamic-layout state, an append-only mutation WAL for
// mutable shards, and a directory Store tying them together with
// atomic snapshot rotation and log compaction.
//
// Only state is durable. A registered tree's state is its parent array:
// a placement is preprocessing that a sim shard rebuilds on first
// sight and a native shard never reads, so a tree snapshot holds the
// parents and nothing else. A mutable shard's state is its parked
// placement — positions that record the mutation history, which no
// pipeline can recompute — plus the mutation stream since it was
// parked. A snapshot is one self-checking frame in internal/binfmt's
// format under the magic "STSN" (docs/protocol.md, "Frame header"), so
// a decoder can reject truncation, bit rot and format drift with a
// typed error instead of a panic. The WAL is a sequence of sealed
// records — the header's length and CRC-32C, without magic, version or
// kind — one per applied mutation, with epochs that advance by exactly
// one per record; a torn tail (the only corruption a crash can produce
// under write-then-fsync) is detected by the CRC and cut off, so
// recovery always yields the longest surviving prefix.
//
// Decoders never trust a length field further than the bytes actually
// present: every count is validated against the remaining input before
// any allocation, so arbitrary (fuzzed or corrupt) bytes can neither
// panic nor over-allocate.
package persist

import (
	"encoding/binary"
	"errors"

	"spatialtree/internal/binfmt"
)

// Snapshot kinds (the frame header's kind byte) and payload bounds.
const (
	kindPlacement     = 1
	kindDyn           = 2
	kindTree          = 3
	maxNameLen        = 64      // curve / order name bound
	maxSide           = 1 << 20 // absolute grid bound; also keeps side*side in uint64
	sideSlackFactor   = 128     // placement side*side must be <= 128*n + 64 (bounds consumer allocations to O(n))
	sideSlackConstant = 64
)

// MaxEpsilon bounds a dyn shard's drift budget: a snapshot holding an
// epsilon outside (0, MaxEpsilon], or NaN, is corrupt, so a shard must
// never be created with one.
const MaxEpsilon = 1e6

// ErrCorrupt reports a snapshot or WAL frame that failed structural
// validation: bad magic, a length prefix disagreeing with the bytes
// present, a CRC mismatch, or payload fields violating their invariants.
var ErrCorrupt = errors.New("persist: corrupt data")

// ErrVersion reports a frame written by an incompatible format version.
var ErrVersion = errors.New("persist: unsupported format version")

// format is the snapshot frame family; WAL records share its sentinels.
var format = binfmt.Format{Magic: [4]byte{'S', 'T', 'S', 'N'}, Version: 1, ErrCorrupt: ErrCorrupt, ErrVersion: ErrVersion}

// TreeSnapshot is the durable form of a registered tree: its parent
// array and nothing else.
type TreeSnapshot struct {
	Parents []int
}

// PlacementSnapshot is the serialized form of a static placement: the
// tree (as its parent array), the curve and order names, and the
// per-vertex curve ranks on a side×side grid. It is the format of the
// public SaveSnapshot. Older data directories also hold registered
// trees in it; Store.LoadTrees keeps their parents and drops the rest.
type PlacementSnapshot struct {
	Parents []int
	Curve   string
	Order   string
	Side    int
	Ranks   []int
}

// DynSnapshot is the durable form of a mutable shard: the dynamic
// layout's full parked state (parents, sparse ranks, grid side, drift
// since the last rebuild), the shard's configuration (curve, epsilon),
// the serving epoch the snapshot captures, and the lifetime counters so
// restarts do not reset the maintenance-cost accounting.
type DynSnapshot struct {
	Parents       []int
	Curve         string
	Side          int
	Ranks         []int
	Epsilon       float64
	Epoch         uint64
	Drift         int
	Inserts       uint64
	Deletes       uint64
	Rebuilds      uint64
	ParkEnergy    int64
	MigrateEnergy int64
}

// EncodeTree serializes a registered tree's parent array into one
// self-checking snapshot frame.
func EncodeTree(parents []int) []byte {
	return format.Append(nil, kindTree, func(b []byte) []byte {
		return binfmt.AppendInts(b, parents)
	})
}

// EncodePlacement serializes s into one self-checking snapshot frame.
func EncodePlacement(s PlacementSnapshot) []byte {
	return format.Append(nil, kindPlacement, func(b []byte) []byte {
		b = binfmt.AppendInts(b, s.Parents)
		b = binfmt.AppendStr(b, s.Curve)
		b = binfmt.AppendStr(b, s.Order)
		return appendRanks(b, s.Side, s.Ranks)
	})
}

// EncodeDyn serializes s into one self-checking snapshot frame.
func EncodeDyn(s DynSnapshot) []byte {
	return format.Append(nil, kindDyn, func(b []byte) []byte {
		b = binfmt.AppendInts(b, s.Parents)
		b = binfmt.AppendStr(b, s.Curve)
		b = appendRanks(b, s.Side, s.Ranks)
		b = binfmt.AppendFloat64(b, s.Epsilon)
		b = binary.AppendUvarint(b, s.Epoch)
		b = binary.AppendUvarint(b, uint64(s.Drift))
		b = binary.AppendUvarint(b, s.Inserts)
		b = binary.AppendUvarint(b, s.Deletes)
		b = binary.AppendUvarint(b, s.Rebuilds)
		b = binary.AppendVarint(b, s.ParkEnergy)
		return binary.AppendVarint(b, s.MigrateEnergy)
	})
}

// appendRanks appends a grid side and one curve rank per vertex; the
// vertex count is the parents block's.
func appendRanks(b []byte, side int, ranks []int) []byte {
	b = binary.AppendUvarint(b, uint64(side))
	for _, r := range ranks {
		b = binary.AppendUvarint(b, uint64(r))
	}
	return b
}

// DecodePlacement decodes a placement snapshot frame. It returns
// ErrCorrupt (wrapped) on any structural violation and ErrVersion on a
// version it cannot read; it never panics on arbitrary input.
//
//spatialvet:errclass
func DecodePlacement(data []byte) (PlacementSnapshot, error) {
	v, err := Decode(data)
	if err != nil {
		return PlacementSnapshot{}, err
	}
	s, ok := v.(PlacementSnapshot)
	if !ok {
		return PlacementSnapshot{}, format.Corruptf("frame holds a %T, not a placement", v)
	}
	return s, nil
}

// DecodeDyn decodes a dyn-shard snapshot frame; error semantics as in
// DecodePlacement.
//
//spatialvet:errclass
func DecodeDyn(data []byte) (DynSnapshot, error) {
	v, err := Decode(data)
	if err != nil {
		return DynSnapshot{}, err
	}
	s, ok := v.(DynSnapshot)
	if !ok {
		return DynSnapshot{}, format.Corruptf("frame holds a %T, not a dyn snapshot", v)
	}
	return s, nil
}

// Decode decodes any snapshot frame, returning a TreeSnapshot, a
// PlacementSnapshot or a DynSnapshot. Arbitrary input bytes can neither
// panic nor allocate more than O(len(data)).
//
//spatialvet:errclass
func Decode(data []byte) (any, error) {
	kind, payload, err := format.Open(data)
	if err != nil {
		return nil, err
	}
	d := format.Decoder(payload)
	var v any
	switch kind {
	case kindTree:
		v = TreeSnapshot{Parents: decodeParents(&d)}
	case kindPlacement:
		v = decodePlacement(&d)
	case kindDyn:
		v = decodeDyn(&d)
	default:
		return nil, format.Corruptf("unknown snapshot kind %d", kind)
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return v, nil
}

// decodeParents reads the vertex count and parent array every snapshot
// kind starts with. Each parent must lie in [-1, n); whether the array
// forms one tree is the consumer's check (tree.FromParents).
func decodeParents(d *binfmt.Decoder) []int {
	ps := d.Ints(nil)
	for i, p := range ps {
		if p < -1 || p >= len(ps) {
			d.Failf("vertex %d has parent %d outside [-1,%d)", i, p, len(ps))
			break
		}
	}
	return ps
}

func decodePlacement(d *binfmt.Decoder) PlacementSnapshot {
	var s PlacementSnapshot
	s.Parents = decodeParents(d)
	n := uint64(len(s.Parents))
	s.Curve = d.Str(maxNameLen)
	s.Order = d.Str(maxNameLen)
	// A placement's side is the curve's smallest legal side, so a side
	// whose square exceeds sideSlackFactor·n is corrupt — and would
	// otherwise let one frame demand an O(side²) allocation (e.g. in
	// layout.FromRanks via the public LoadSnapshot) unrelated to its own
	// size.
	side := d.Uvarint()
	if side > maxSide || side*side < n || side*side > sideSlackFactor*n+sideSlackConstant {
		d.Failf("side %d is illegal for %d vertices", side, n)
	}
	s.Side, s.Ranks = int(side), decodeRanks(d, len(s.Parents), side)
	return s
}

func decodeDyn(d *binfmt.Decoder) DynSnapshot {
	var s DynSnapshot
	s.Parents = decodeParents(d)
	n := len(s.Parents)
	s.Curve = d.Str(maxNameLen)
	// Unlike placements, a dyn grid is not derivable from n: large
	// epsilons let deletions shrink the tree far below the grid before
	// any rebuild, so only the absolute cap applies here. Decoding
	// itself still allocates O(n) regardless of side; the O(side²)
	// grids are built downstream, from CRC-validated local state only.
	side := d.Uvarint()
	if side > maxSide || side*side < uint64(n) {
		d.Failf("side %d is illegal for %d vertices", side, n)
	}
	s.Side, s.Ranks = int(side), decodeRanks(d, n, side)
	if s.Epsilon = d.Float64(); !(s.Epsilon > 0) || s.Epsilon > MaxEpsilon { // rejects NaN too
		d.Failf("epsilon %v outside (0,%v]", s.Epsilon, float64(MaxEpsilon))
	}
	s.Epoch = d.Uvarint()
	// The layout rebuilds as soon as drift exceeds epsilon·n, so any
	// state a shard can actually persist satisfies this bound.
	drift := d.Uvarint()
	if drift > uint64(MaxEpsilon)*uint64(n)+1 || float64(drift) > s.Epsilon*float64(n)+1 {
		d.Failf("drift %d exceeds the epsilon %v rebuild threshold for %d vertices", drift, s.Epsilon, n)
	}
	s.Drift = int(drift)
	s.Inserts, s.Deletes, s.Rebuilds = d.Uvarint(), d.Uvarint(), d.Uvarint()
	s.ParkEnergy, s.MigrateEnergy = d.Varint(), d.Varint()
	return s
}

// decodeRanks reads n curve ranks, each within the side×side grid.
func decodeRanks(d *binfmt.Decoder, n int, side uint64) []int {
	ranks := make([]int, n)
	for i := range ranks {
		r := d.Uvarint()
		if r >= side*side {
			d.Failf("vertex %d at rank %d outside the %d×%d grid", i, r, side, side)
			break
		}
		ranks[i] = int(r)
	}
	return ranks
}
