package wire

// Mutation and replication frames (PR 8). DynCreate/Mutate are the
// binary twins of POST /v1/dyn and /v1/dyn/{id}/mutate, added so
// cluster nodes can proxy dyn traffic to shard owners over the same
// protocol clients speak. RepSnapshot/RepRecords/RepAck are the
// log-shipping replication conversation: the owner ships a full state
// blob (internal/persist's snapshot codec, opaque here) or the WAL
// records past the follower's apply cursor, and the follower acks with
// the cursor it reached — or asks for a resync when it sees an epoch
// gap. HandbackOffer/HandbackGrant are the rejoin reconciliation
// conversation: a restarted ring owner claims a shard back from the
// successor that absorbed it, and the successor answers with a fence
// epoch plus the diff (tail or snapshot) that reaches it. All
// server→client frames lead with the request ID, so one pipelined
// connection multiplexes every conversation kind.

import (
	"encoding/binary"
	"math"

	"spatialtree/internal/binfmt"
	"spatialtree/internal/persist"
)

// Mutation opcodes: the WAL's two mutation record types, so a Mutate's
// Op and a shipped record's type byte are one number.
const (
	// OpInsert inserts a leaf under Arg (the parent vertex).
	OpInsert = uint8(persist.RecInsert)
	// OpDelete deletes leaf Arg.
	OpDelete = uint8(persist.RecDelete)
)

// Replication ack codes.
const (
	// AckOK: the follower applied everything shipped; Cursor is its new
	// apply cursor.
	AckOK = 0
	// AckNeedSync: the shipped records leave an epoch gap (or address an
	// unknown shard); the owner must ship a RepSnapshot first. Cursor is
	// the follower's current cursor.
	AckNeedSync = 1
	// AckRefused: the follower rejected the shipment (apply divergence,
	// storage failure); Msg says why. The owner treats the follower as
	// failed.
	AckRefused = 2
)

// DynCreate asks the server to create a mutable shard from Parents.
// The server assigns the shard id: ShardID stays empty, and a frame
// that sets it is refused with StatusBadRequest.
type DynCreate struct {
	ID      uint64
	ShardID string
	Parents []int
	// Epsilon is the drift budget: <= 0 means the server default, and
	// NaN, +Inf or a value above persist.MaxEpsilon (1e6) is a bad
	// request. It travels as the uvarint of its IEEE 754 bits.
	Epsilon float64
	// Backend overrides the serving backend ("" means the server
	// default).
	Backend string
}

// DynCreated answers a DynCreate.
type DynCreated struct {
	ID      uint64
	ShardID string
	N       int
	Backend string
}

// Mutate inserts or deletes a leaf of a mutable shard: Op is OpInsert
// (Arg = parent vertex) or OpDelete (Arg = leaf).
type Mutate struct {
	ID      uint64
	ShardID string
	Op      uint8
	Arg     int
}

// Mutated answers a Mutate: Vertex is the inserted leaf (OpInsert),
// Moved the vertex renamed into the hole (OpDelete), Epoch and N the
// shard's state after the mutation.
type Mutated struct {
	ID     uint64
	Vertex int
	Moved  int
	Epoch  uint64
	N      int
}

// RepSnapshot resets a follower's replica of ShardID to Blob, a full
// dyn shard state in internal/persist's snapshot encoding (opaque at
// the wire layer).
type RepSnapshot struct {
	ID      uint64
	ShardID string
	Blob    []byte
}

// RepRecords ships the WAL records of ShardID past the follower's
// cursor, in epoch order. Only the two mutation types cross the wire
// (a fence marks a segment of one log); the follower verifies its
// replay of each reproduces the record's Result exactly.
type RepRecords struct {
	ID      uint64
	ShardID string
	Recs    []persist.Record
}

// RepAck answers a RepSnapshot or RepRecords with the follower's apply
// cursor (the last epoch it holds) and an ack code.
type RepAck struct {
	ID      uint64
	ShardID string
	Cursor  uint64
	Code    uint8
	Msg     string
}

// Handback offer phases. A rejoined owner first probes the successor
// (no state changes anywhere), then claims: the claim is the fencing
// step, after which the successor stops serving the shard.
const (
	// HandbackProbe asks whether the peer currently serves the shard and
	// at what cursor. Carries no records; changes no state.
	HandbackProbe = 1
	// HandbackClaim takes ownership: the successor quiesces the shard,
	// stamps the fence epoch, releases the shard from serving, and
	// grants the diff that brings the rejoiner's cursor to the fence.
	HandbackClaim = 2
)

// Handback grant modes.
const (
	// GrantRetry: the claim cannot be honored right now; Msg says why.
	// The rejoiner backs off and re-offers.
	GrantRetry = 0
	// GrantOwn: the peer neither serves the shard nor holds state past
	// the offered cursor — the rejoiner's own copy is the best there is.
	GrantOwn = 1
	// GrantServing (probe answer only): the peer serves the shard;
	// Fence reports its current epoch. The rejoiner proxies to it until
	// its claim is granted.
	GrantServing = 2
	// GrantTail (claim answer): Recs carry the records from the offered
	// cursor up to Fence; the peer has fenced and released the shard.
	GrantTail = 3
	// GrantSnapshot (claim answer): Blob is a full state snapshot at
	// Fence (the offered copy diverged or the tail was compacted away);
	// the peer has fenced and released the shard.
	GrantSnapshot = 4
)

// HandbackOffer is a restarted ring owner's request to take a shard
// back from the successor that absorbed it (rejoin reconciliation).
// Cursor is the rejoiner's apply cursor; a claim also ships the
// rejoiner's recent WAL records so the successor can check the two
// histories agree below the fence before granting a cheap tail.
type HandbackOffer struct {
	ID      uint64
	ShardID string
	Phase   uint8
	Cursor  uint64
	Recs    []persist.Record
}

// HandbackGrant answers a HandbackOffer. Fence is the epoch the
// successor stopped at (no applies past it are accepted once granted);
// Mode says how the rejoiner reaches the fence — see the Grant*
// constants.
type HandbackGrant struct {
	ID      uint64
	ShardID string
	Mode    uint8
	Fence   uint64
	Recs    []persist.Record
	Blob    []byte
	Msg     string
}

// AppendDynCreate appends c as one frame to dst.
func AppendDynCreate(dst []byte, c *DynCreate) []byte {
	return format.Append(dst, FrameDynCreate, func(b []byte) []byte {
		b = binary.AppendUvarint(b, c.ID)
		b = binfmt.AppendStr(b, c.ShardID)
		b = binfmt.AppendInts(b, c.Parents)
		b = binary.AppendUvarint(b, math.Float64bits(c.Epsilon))
		return binfmt.AppendStr(b, c.Backend)
	})
}

// Decode decodes the payload of a dyn-create frame into c.
//
//spatialvet:errclass
func (c *DynCreate) Decode(payload []byte) error {
	d := format.Decoder(payload)
	c.ID = d.Uvarint()
	c.ShardID = d.Str(maxNameLen)
	c.Parents = d.Ints(c.Parents)
	c.Epsilon = math.Float64frombits(d.Uvarint())
	c.Backend = d.Str(maxNameLen)
	return d.Finish()
}

// AppendDynCreated appends c as one frame to dst.
func AppendDynCreated(dst []byte, c *DynCreated) []byte {
	return format.Append(dst, FrameDynCreated, func(b []byte) []byte {
		b = binary.AppendUvarint(b, c.ID)
		b = binfmt.AppendStr(b, c.ShardID)
		b = binary.AppendUvarint(b, uint64(c.N))
		return binfmt.AppendStr(b, c.Backend)
	})
}

// Decode decodes the payload of a dyn-created frame into c.
//
//spatialvet:errclass
func (c *DynCreated) Decode(payload []byte) error {
	d := format.Decoder(payload)
	c.ID = d.Uvarint()
	c.ShardID = d.Str(maxNameLen)
	c.N = int(d.Uvarint())
	c.Backend = d.Str(maxNameLen)
	return d.Finish()
}

// AppendMutate appends m as one frame to dst.
func AppendMutate(dst []byte, m *Mutate) []byte {
	return format.Append(dst, FrameMutate, func(b []byte) []byte {
		b = binary.AppendUvarint(b, m.ID)
		b = binfmt.AppendStr(b, m.ShardID)
		b = append(b, m.Op)
		return binary.AppendVarint(b, int64(m.Arg))
	})
}

// Decode decodes the payload of a mutate frame into m.
//
//spatialvet:errclass
func (m *Mutate) Decode(payload []byte) error {
	d := format.Decoder(payload)
	m.ID = d.Uvarint()
	m.ShardID = d.Str(maxNameLen)
	if m.Op = d.Byte(); m.Op != OpInsert && m.Op != OpDelete {
		d.Failf("unknown mutation op %d", m.Op)
	}
	m.Arg = int(d.Varint())
	return d.Finish()
}

// AppendMutated appends m as one frame to dst.
func AppendMutated(dst []byte, m *Mutated) []byte {
	return format.Append(dst, FrameMutated, func(b []byte) []byte {
		b = binary.AppendUvarint(b, m.ID)
		b = binary.AppendVarint(b, int64(m.Vertex))
		b = binary.AppendVarint(b, int64(m.Moved))
		b = binary.AppendUvarint(b, m.Epoch)
		return binary.AppendUvarint(b, uint64(m.N))
	})
}

// Decode decodes the payload of a mutated frame into m.
//
//spatialvet:errclass
func (m *Mutated) Decode(payload []byte) error {
	d := format.Decoder(payload)
	m.ID = d.Uvarint()
	m.Vertex = int(d.Varint())
	m.Moved = int(d.Varint())
	m.Epoch = d.Uvarint()
	m.N = int(d.Uvarint())
	return d.Finish()
}

// AppendRepSnapshot appends s as one frame to dst.
func AppendRepSnapshot(dst []byte, s *RepSnapshot) []byte {
	return format.Append(dst, FrameRepSnapshot, func(b []byte) []byte {
		b = binary.AppendUvarint(b, s.ID)
		b = binfmt.AppendStr(b, s.ShardID)
		return binfmt.AppendBytes(b, s.Blob)
	})
}

// Decode decodes the payload of a rep-snapshot frame into s. The blob
// is freshly allocated: it outlives the reader's frame buffer.
//
//spatialvet:errclass
func (s *RepSnapshot) Decode(payload []byte) error {
	d := format.Decoder(payload)
	s.ID = d.Uvarint()
	s.ShardID = d.Str(maxNameLen)
	s.Blob = d.Bytes(nil)
	return d.Finish()
}

// AppendRepRecords appends r as one frame to dst.
func AppendRepRecords(dst []byte, r *RepRecords) []byte {
	return format.Append(dst, FrameRepRecords, func(b []byte) []byte {
		b = binary.AppendUvarint(b, r.ID)
		b = binfmt.AppendStr(b, r.ShardID)
		return appendRecs(b, r.Recs)
	})
}

// Decode decodes the payload of a rep-records frame into r, reusing
// r.Recs when its capacity suffices.
//
//spatialvet:errclass
func (r *RepRecords) Decode(payload []byte) error {
	d := format.Decoder(payload)
	r.ID = d.Uvarint()
	r.ShardID = d.Str(maxNameLen)
	r.Recs = decodeRecs(&d, r.Recs)
	return d.Finish()
}

// AppendRepAck appends a as one frame to dst.
func AppendRepAck(dst []byte, a *RepAck) []byte {
	return format.Append(dst, FrameRepAck, func(b []byte) []byte {
		b = binary.AppendUvarint(b, a.ID)
		b = binfmt.AppendStr(b, a.ShardID)
		b = binary.AppendUvarint(b, a.Cursor)
		b = append(b, a.Code)
		return appendMsg(b, a.Msg)
	})
}

// Decode decodes the payload of a rep-ack frame into a.
//
//spatialvet:errclass
func (a *RepAck) Decode(payload []byte) error {
	d := format.Decoder(payload)
	a.ID = d.Uvarint()
	a.ShardID = d.Str(maxNameLen)
	a.Cursor = d.Uvarint()
	if a.Code = d.Byte(); a.Code > AckRefused {
		d.Failf("unknown ack code %d", a.Code)
	}
	a.Msg = d.Str(maxErrLen)
	return d.Finish()
}

// appendRecs appends a counted record list: the RepRecords layout,
// shared by the handback frames.
func appendRecs(b []byte, recs []persist.Record) []byte {
	b = binary.AppendUvarint(b, uint64(len(recs)))
	for _, rec := range recs {
		b = append(b, byte(rec.Type))
		b = binary.AppendUvarint(b, rec.Epoch)
		b = binary.AppendVarint(b, int64(rec.Arg))
		b = binary.AppendVarint(b, int64(rec.Result))
	}
	return b
}

// decodeRecs decodes a counted record list into dst, reusing its
// capacity. A type other than the two mutations is refused.
func decodeRecs(d *binfmt.Decoder, dst []persist.Record) []persist.Record {
	dst = binfmt.Grow(dst, d.Count())
	for i := range dst {
		dst[i] = persist.Record{Type: persist.RecordType(d.Byte()), Epoch: d.Uvarint(), Arg: int(d.Varint()), Result: int(d.Varint())}
		if t := dst[i].Type; t != persist.RecInsert && t != persist.RecDelete {
			d.Failf("unknown record type %d", t)
			break
		}
	}
	return dst
}

// AppendHandbackOffer appends o as one frame to dst.
func AppendHandbackOffer(dst []byte, o *HandbackOffer) []byte {
	return format.Append(dst, FrameHandbackOffer, func(b []byte) []byte {
		b = binary.AppendUvarint(b, o.ID)
		b = binfmt.AppendStr(b, o.ShardID)
		b = append(b, o.Phase)
		b = binary.AppendUvarint(b, o.Cursor)
		return appendRecs(b, o.Recs)
	})
}

// Decode decodes the payload of a handback-offer frame into o, reusing
// o.Recs when its capacity suffices.
//
//spatialvet:errclass
func (o *HandbackOffer) Decode(payload []byte) error {
	d := format.Decoder(payload)
	o.ID = d.Uvarint()
	o.ShardID = d.Str(maxNameLen)
	if o.Phase = d.Byte(); o.Phase != HandbackProbe && o.Phase != HandbackClaim {
		d.Failf("unknown handback phase %d", o.Phase)
	}
	o.Cursor = d.Uvarint()
	o.Recs = decodeRecs(&d, o.Recs)
	return d.Finish()
}

// AppendHandbackGrant appends g as one frame to dst.
func AppendHandbackGrant(dst []byte, g *HandbackGrant) []byte {
	return format.Append(dst, FrameHandbackGrant, func(b []byte) []byte {
		b = binary.AppendUvarint(b, g.ID)
		b = binfmt.AppendStr(b, g.ShardID)
		b = append(b, g.Mode)
		b = binary.AppendUvarint(b, g.Fence)
		b = appendRecs(b, g.Recs)
		b = binfmt.AppendBytes(b, g.Blob)
		return appendMsg(b, g.Msg)
	})
}

// Decode decodes the payload of a handback-grant frame into g. The
// blob is freshly allocated: it outlives the reader's frame buffer.
//
//spatialvet:errclass
func (g *HandbackGrant) Decode(payload []byte) error {
	d := format.Decoder(payload)
	g.ID = d.Uvarint()
	g.ShardID = d.Str(maxNameLen)
	if g.Mode = d.Byte(); g.Mode > GrantSnapshot {
		d.Failf("unknown handback grant mode %d", g.Mode)
	}
	g.Fence = d.Uvarint()
	g.Recs = decodeRecs(&d, g.Recs)
	g.Blob = d.Bytes(nil)
	g.Msg = d.Str(maxErrLen)
	return d.Finish()
}
