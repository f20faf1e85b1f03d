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
// parked. A snapshot is one self-checking frame: magic,
// version, kind, a length prefix and a CRC-32C over the payload, so a
// decoder can reject truncation, bit rot and format drift with a typed
// error instead of a panic. The WAL is a sequence of the same kind of
// frame, one per applied mutation, with epochs that advance by exactly
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
	"fmt"
	"hash/crc32"
	"math"
)

// Snapshot frame layout (all integers little-endian):
//
//	offset 0: magic "STSN" (4 bytes)
//	offset 4: format version (1 byte; currently 1)
//	offset 5: kind (1 byte; 1 = placement, 2 = dyn shard, 3 = tree)
//	offset 6: payload length (uint32)
//	offset 10: CRC-32C (Castagnoli) of the payload (uint32)
//	offset 14: payload
const (
	snapshotVersion   = 1
	kindPlacement     = 1
	kindDyn           = 2
	kindTree          = 3
	headerLen         = 14
	maxNameLen        = 64 // curve / order name bound
	maxEpsilon        = 1e6
	maxSide           = 1 << 20 // absolute grid bound; also keeps side*side in uint64
	sideSlackFactor   = 128     // placement side*side must be <= 128*n + 64 (bounds consumer allocations to O(n))
	sideSlackConstant = 64
)

var snapshotMagic = [4]byte{'S', 'T', 'S', 'N'}

// castagnoli is the CRC-32C table shared by snapshots and WAL records.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a snapshot or WAL frame that failed structural
// validation: bad magic, a length prefix disagreeing with the bytes
// present, a CRC mismatch, or payload fields violating their invariants.
var ErrCorrupt = errors.New("persist: corrupt data")

// ErrVersion reports a frame written by an incompatible format version.
var ErrVersion = errors.New("persist: unsupported format version")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

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
	var e encoder
	e.parents(parents)
	return frame(kindTree, e.buf)
}

// EncodePlacement serializes s into one self-checking snapshot frame.
func EncodePlacement(s PlacementSnapshot) []byte {
	var e encoder
	e.parents(s.Parents)
	e.str(s.Curve)
	e.str(s.Order)
	e.uvarint(uint64(s.Side))
	for _, r := range s.Ranks {
		e.uvarint(uint64(r))
	}
	return frame(kindPlacement, e.buf)
}

// EncodeDyn serializes s into one self-checking snapshot frame.
func EncodeDyn(s DynSnapshot) []byte {
	var e encoder
	e.parents(s.Parents)
	e.str(s.Curve)
	e.uvarint(uint64(s.Side))
	for _, r := range s.Ranks {
		e.uvarint(uint64(r))
	}
	e.f64(s.Epsilon)
	e.uvarint(s.Epoch)
	e.uvarint(uint64(s.Drift))
	e.uvarint(s.Inserts)
	e.uvarint(s.Deletes)
	e.uvarint(s.Rebuilds)
	e.varint(s.ParkEnergy)
	e.varint(s.MigrateEnergy)
	return frame(kindDyn, e.buf)
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
		return PlacementSnapshot{}, corruptf("frame holds a %T, not a placement", v)
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
		return DynSnapshot{}, corruptf("frame holds a %T, not a dyn snapshot", v)
	}
	return s, nil
}

// Decode decodes any snapshot frame, returning a TreeSnapshot, a
// PlacementSnapshot or a DynSnapshot. Arbitrary input bytes can neither
// panic nor allocate more than O(len(data)).
//
//spatialvet:errclass
func Decode(data []byte) (any, error) {
	kind, payload, err := openFrame(data)
	if err != nil {
		return nil, err
	}
	d := decoder{buf: payload}
	switch kind {
	case kindTree:
		s, err := decodeTreePayload(&d)
		if err != nil {
			return nil, err
		}
		return s, nil
	case kindPlacement:
		s, err := decodePlacementPayload(&d)
		if err != nil {
			return nil, err
		}
		return s, nil
	case kindDyn:
		s, err := decodeDynPayload(&d)
		if err != nil {
			return nil, err
		}
		return s, nil
	default:
		return nil, corruptf("unknown snapshot kind %d", kind)
	}
}

func decodeTreePayload(d *decoder) (TreeSnapshot, error) {
	var s TreeSnapshot
	var err error
	if s.Parents, err = d.parents(); err != nil {
		return s, err
	}
	if err := d.drained(); err != nil {
		return s, err
	}
	return s, nil
}

func decodePlacementPayload(d *decoder) (PlacementSnapshot, error) {
	var s PlacementSnapshot
	var err error
	if s.Parents, err = d.parents(); err != nil {
		return s, err
	}
	n := len(s.Parents)
	if s.Curve, err = d.str(); err != nil {
		return s, err
	}
	if s.Order, err = d.str(); err != nil {
		return s, err
	}
	if s.Side, err = d.side(n); err != nil {
		return s, err
	}
	if s.Ranks, err = d.ranks(n, s.Side); err != nil {
		return s, err
	}
	if err := d.drained(); err != nil {
		return s, err
	}
	return s, nil
}

func decodeDynPayload(d *decoder) (DynSnapshot, error) {
	var s DynSnapshot
	var err error
	if s.Parents, err = d.parents(); err != nil {
		return s, err
	}
	n := len(s.Parents)
	if s.Curve, err = d.str(); err != nil {
		return s, err
	}
	// Unlike placements, a dyn grid is not derivable from n: large
	// epsilons let deletions shrink the tree far below the grid before
	// any rebuild, so only the absolute cap applies here. Decoding
	// itself still allocates O(n) regardless of side; the O(side²)
	// grids are built downstream, from CRC-validated local state only.
	side, err := d.uvarint()
	if err != nil {
		return s, err
	}
	if side > maxSide || side*side < uint64(n) {
		return s, corruptf("side %d is illegal for %d vertices", side, n)
	}
	s.Side = int(side)
	if s.Ranks, err = d.ranks(n, s.Side); err != nil {
		return s, err
	}
	if s.Epsilon, err = d.f64(); err != nil {
		return s, err
	}
	if !(s.Epsilon > 0) || s.Epsilon > maxEpsilon { // rejects NaN too
		return s, corruptf("epsilon %v outside (0,%v]", s.Epsilon, float64(maxEpsilon))
	}
	if s.Epoch, err = d.uvarint(); err != nil {
		return s, err
	}
	drift, err := d.uvarint()
	if err != nil {
		return s, err
	}
	// The layout rebuilds as soon as drift exceeds epsilon·n, so any
	// state a shard can actually persist satisfies this bound.
	if drift > uint64(maxEpsilon)*uint64(n)+1 || float64(drift) > s.Epsilon*float64(n)+1 {
		return s, corruptf("drift %d exceeds the epsilon %v rebuild threshold for %d vertices", drift, s.Epsilon, n)
	}
	s.Drift = int(drift)
	if s.Inserts, err = d.uvarint(); err != nil {
		return s, err
	}
	if s.Deletes, err = d.uvarint(); err != nil {
		return s, err
	}
	if s.Rebuilds, err = d.uvarint(); err != nil {
		return s, err
	}
	if s.ParkEnergy, err = d.varint(); err != nil {
		return s, err
	}
	if s.MigrateEnergy, err = d.varint(); err != nil {
		return s, err
	}
	if err := d.drained(); err != nil {
		return s, err
	}
	return s, nil
}

// frame wraps a payload in the snapshot header.
func frame(kind byte, payload []byte) []byte {
	out := make([]byte, headerLen+len(payload))
	copy(out, snapshotMagic[:])
	out[4] = snapshotVersion
	out[5] = kind
	binary.LittleEndian.PutUint32(out[6:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[10:], crc32.Checksum(payload, castagnoli))
	copy(out[headerLen:], payload)
	return out
}

// openFrame validates the header and CRC and returns the kind and
// payload slice (aliasing data).
func openFrame(data []byte) (kind byte, payload []byte, err error) {
	if len(data) < headerLen {
		return 0, nil, corruptf("truncated header: %d bytes", len(data))
	}
	if [4]byte(data[:4]) != snapshotMagic {
		return 0, nil, corruptf("bad magic %q", data[:4])
	}
	if data[4] != snapshotVersion {
		return 0, nil, fmt.Errorf("%w: version %d (supported: %d)", ErrVersion, data[4], snapshotVersion)
	}
	plen := binary.LittleEndian.Uint32(data[6:])
	if int64(plen) != int64(len(data)-headerLen) {
		return 0, nil, corruptf("payload length %d disagrees with %d bytes present", plen, len(data)-headerLen)
	}
	payload = data[headerLen:]
	if sum := crc32.Checksum(payload, castagnoli); sum != binary.LittleEndian.Uint32(data[10:]) {
		return 0, nil, corruptf("payload CRC mismatch")
	}
	return data[5], payload, nil
}

// encoder appends primitive values to a growing buffer.
type encoder struct{ buf []byte }

func (e *encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) varint(v int64)   { e.buf = binary.AppendVarint(e.buf, v) }
func (e *encoder) f64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}
func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// parents writes a vertex count and the parent array, the prefix every
// snapshot kind starts with.
func (e *encoder) parents(ps []int) {
	e.uvarint(uint64(len(ps)))
	for _, p := range ps {
		e.varint(int64(p))
	}
}

// decoder consumes primitive values, validating every length against
// the bytes actually remaining before allocating anything.
type decoder struct{ buf []byte }

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		return 0, corruptf("truncated or overlong uvarint")
	}
	d.buf = d.buf[n:]
	return v, nil
}

func (d *decoder) varint() (int64, error) {
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		return 0, corruptf("truncated or overlong varint")
	}
	d.buf = d.buf[n:]
	return v, nil
}

func (d *decoder) f64() (float64, error) {
	if len(d.buf) < 8 {
		return 0, corruptf("truncated float64")
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf))
	d.buf = d.buf[8:]
	return v, nil
}

func (d *decoder) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxNameLen {
		return "", corruptf("name length %d exceeds %d", n, maxNameLen)
	}
	if n > uint64(len(d.buf)) {
		return "", corruptf("name length %d exceeds %d remaining bytes", n, len(d.buf))
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s, nil
}

// count reads a vertex count, bounded by the remaining payload (every
// encoded vertex costs at least one byte, so a count exceeding the
// bytes present is corrupt — and rejecting it here is what keeps
// allocations O(input)).
func (d *decoder) count(what string) (int, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(len(d.buf)) {
		return 0, corruptf("%s count %d exceeds %d remaining bytes", what, n, len(d.buf))
	}
	return int(n), nil
}

// parents reads the vertex count and parent array every snapshot kind
// starts with. Each parent must lie in [-1, n); whether the array forms
// one tree is the consumer's check (tree.FromParents).
func (d *decoder) parents() ([]int, error) {
	n, err := d.count("vertex")
	if err != nil {
		return nil, err
	}
	ps := make([]int, n)
	for i := range ps {
		p, err := d.varint()
		if err != nil {
			return nil, err
		}
		if p < -1 || p >= int64(n) {
			return nil, corruptf("vertex %d has parent %d outside [-1,%d)", i, p, n)
		}
		ps[i] = int(p)
	}
	return ps, nil
}

// side reads a static placement's grid side and checks it against the
// vertex count: a placement's side is the curve's smallest legal side,
// so a side whose square exceeds sideSlackFactor·n is corrupt — and
// would otherwise let one frame demand an O(side²) allocation (e.g. in
// layout.FromRanks via the public LoadSnapshot) unrelated to its own
// size. Dyn snapshots use a looser rule; see decodeDynPayload.
func (d *decoder) side(n int) (int, error) {
	s, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if s > maxSide {
		return 0, corruptf("side %d is implausibly large", s)
	}
	if s*s < uint64(n) || s*s > sideSlackFactor*uint64(n)+sideSlackConstant {
		return 0, corruptf("side %d is illegal for %d vertices", s, n)
	}
	return int(s), nil
}

// ranks reads n curve ranks, each within the side×side grid.
func (d *decoder) ranks(n, side int) ([]int, error) {
	slots := uint64(side) * uint64(side)
	ranks := make([]int, n)
	for i := range ranks {
		r, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if r >= slots {
			return nil, corruptf("vertex %d at rank %d outside the %d×%d grid", i, r, side, side)
		}
		ranks[i] = int(r)
	}
	return ranks, nil
}

// drained asserts the payload was consumed exactly.
func (d *decoder) drained() error {
	if len(d.buf) != 0 {
		return corruptf("%d trailing payload bytes", len(d.buf))
	}
	return nil
}
