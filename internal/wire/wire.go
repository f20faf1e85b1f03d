// Package wire is the binary serving protocol behind spatialtreed's
// -tcp-addr listener: a length-prefixed, CRC-checked frame format over
// raw TCP that carries the same queries as the HTTP/JSON API at a
// fraction of the encode/decode cost. It exists because the native
// backend made kernels cheap enough (E16: a 16-request treefix batch in
// ~13 ms) that HTTP/JSON marshalling and per-request heap churn became
// the dominant per-query cost for small queries — the wire tax the
// ROADMAP targets.
//
// # Frame layout
//
// Every message is one self-checking frame in internal/binfmt's format
// under the magic "STWR": a 14-byte header (magic, version, kind,
// payload length, CRC-32C) and a payload of varint fields, so a typical
// small query costs tens of bytes where its JSON form costs hundreds.
// docs/protocol.md ("Frame header") describes the header once for both
// binary formats. A decoder never trusts a count further than the bytes
// actually present, so arbitrary (fuzzed or corrupt) input can neither
// panic nor over-allocate — the same hardening contract as the persist
// codec, pinned by FuzzWireDecode.
//
// # Conversation shape
//
// A connection carries a sequence of frames in each direction. Clients
// send FrameQuery (or FramePing); the server answers each query with
// exactly one FrameResult or FrameError carrying the query's ID.
// Queries on one connection are processed in arrival order (like
// HTTP/1.1 on one connection); concurrency comes from multiple
// connections, whose requests coalesce into shared batches on the
// server's scheduler exactly as HTTP traffic does. ID 0 is reserved
// for connection-level errors (a frame the server could not attribute
// to a query, e.g. an oversized one).
//
// # Allocation discipline
//
// The hot path is allocation-free where lifetimes allow it: Reader owns
// a single growable frame buffer reused across frames, encoders append
// into caller-supplied buffers, and
// Query.Decode reuses the Query's own slices across frames. Results
// decoded by the client are fresh allocations — they outlive the
// connection's read loop by design.
//
// # Versioning
//
// The version byte covers the whole conversation: a server receiving a
// frame with an unknown version replies with a connection-level
// StatusBadRequest error and closes. Additive changes (new frame
// kinds, new trailing payload fields guarded by their own counts) do
// not bump the version; changes to existing payload layouts do. See
// docs/protocol.md for the full rules.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"spatialtree/internal/binfmt"
)

// Protocol constants.
const (
	// Version is the protocol version this package speaks.
	Version = 1
	// HeaderLen is the fixed frame header size.
	HeaderLen = binfmt.HeaderLen
	// DefaultMaxFrame bounds a peer's declared payload length (matching
	// the HTTP layer's default body limit).
	DefaultMaxFrame = 64 << 20
	// maxNameLen bounds tree-id and operator strings.
	maxNameLen = 256
	// maxErrLen bounds error message strings.
	maxErrLen = 4096
)

// Frame kinds.
const (
	// FrameQuery carries a Query (client → server).
	FrameQuery = 1
	// FrameResult carries a Result (server → client, status OK).
	FrameResult = 2
	// FrameError carries an Error (server → client, status != OK).
	FrameError = 3
	// FramePing is an empty liveness probe (client → server).
	FramePing = 4
	// FramePong answers a ping (server → client).
	FramePong = 5
	// FrameDynCreate carries a DynCreate (client → server): create a
	// mutable shard.
	FrameDynCreate = 6
	// FrameDynCreated carries a DynCreated (server → client).
	FrameDynCreated = 7
	// FrameMutate carries a Mutate (client → server): insert/delete a
	// leaf of a mutable shard.
	FrameMutate = 8
	// FrameMutated carries a Mutated (server → client).
	FrameMutated = 9
	// FrameRepSnapshot carries a RepSnapshot (owner → follower): a full
	// dyn shard state the follower resets its replica to. The blob is
	// opaque to this package (internal/persist's snapshot codec).
	FrameRepSnapshot = 10
	// FrameRepRecords carries a RepRecords (owner → follower): WAL
	// mutation records past the follower's apply cursor.
	FrameRepRecords = 11
	// FrameRepAck carries a RepAck (follower → owner): the follower's
	// apply cursor after a RepSnapshot/RepRecords, or a resync request.
	FrameRepAck = 12
	// FrameHandbackOffer carries a HandbackOffer (rejoiner → successor):
	// a restarted ring owner asking for its shard back — a cursor probe,
	// or a claim shipping the rejoiner's stale WAL tail.
	FrameHandbackOffer = 13
	// FrameHandbackGrant carries a HandbackGrant (successor → rejoiner):
	// the fence epoch plus whatever brings the rejoiner to it — a record
	// tail, a full snapshot, or nothing (the rejoiner's copy suffices).
	FrameHandbackGrant = 14
)

// Magic is the frame magic, first on the wire.
var Magic = [4]byte{'S', 'T', 'W', 'R'}

// format is the protocol's frame family.
var format = binfmt.Format{Magic: Magic, Version: Version, ErrCorrupt: ErrCorrupt, ErrVersion: ErrVersion}

// Query kinds, mirroring the HTTP API's kind strings.
const (
	KindTreefix = 1
	KindTopDown = 2
	KindLCA     = 3
	KindMinCut  = 4
	KindExpr    = 5
)

// KindName maps a binary query kind to the HTTP API's kind string
// ("" for an unknown kind).
func KindName(k uint8) string {
	switch k {
	case KindTreefix:
		return "treefix"
	case KindTopDown:
		return "topdown"
	case KindLCA:
		return "lca"
	case KindMinCut:
		return "mincut"
	case KindExpr:
		return "expr"
	}
	return ""
}

// KindByName maps an HTTP API kind string to the binary query kind;
// ok is false for an unknown name.
func KindByName(name string) (kind uint8, ok bool) {
	switch name {
	case "treefix":
		return KindTreefix, true
	case "topdown":
		return KindTopDown, true
	case "lca":
		return KindLCA, true
	case "mincut":
		return KindMinCut, true
	case "expr":
		return KindExpr, true
	}
	return 0, false
}

// Status is the binary protocol's response status, mirroring the HTTP
// layer's classification: client-fault statuses correspond to 4xx,
// StatusInternal to 500.
type Status uint8

// Statuses. The numeric values are part of the wire format.
const (
	StatusOK          Status = 0 // carried implicitly by FrameResult
	StatusBadRequest  Status = 1 // invalid request (HTTP 400)
	StatusNotFound    Status = 2 // unknown tree or shard id (HTTP 404)
	StatusTooMany     Status = 3 // admission queue full — backpressure (HTTP 429)
	StatusUnavailable Status = 4 // server draining (HTTP 503)
	StatusTooLarge    Status = 5 // frame beyond the size limit (HTTP 413)
	StatusInternal    Status = 6 // server-side failure (HTTP 500)
	// StatusRedirect reports that another cluster node owns the shard
	// the request addressed; the error message carries the owner's
	// binary-protocol address. Smart clients re-issue the request there
	// (HTTP 421).
	StatusRedirect Status = 7
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusBadRequest:
		return "bad request"
	case StatusNotFound:
		return "not found"
	case StatusTooMany:
		return "too many requests"
	case StatusUnavailable:
		return "unavailable"
	case StatusTooLarge:
		return "frame too large"
	case StatusInternal:
		return "internal error"
	case StatusRedirect:
		return "redirect"
	}
	return fmt.Sprintf("status %d", uint8(s))
}

// Routing discriminators inside a Query payload.
const (
	routeTreeID  = 1
	routeParents = 2
	routeShard   = 3
)

// ErrCorrupt reports a frame that failed structural validation: bad
// magic, a length prefix disagreeing with the bytes present, a CRC
// mismatch, or payload fields violating their invariants. A stream
// that produced it cannot be resynchronized; close the connection.
var ErrCorrupt = errors.New("wire: corrupt frame")

// ErrVersion reports a frame written by an incompatible protocol
// version.
var ErrVersion = errors.New("wire: unsupported protocol version")

// ErrTooLarge reports a frame whose declared payload exceeds the
// reader's limit. The reader discards the payload, so the stream stays
// synchronized: the caller may answer with StatusTooLarge and continue.
var ErrTooLarge = errors.New("wire: frame exceeds size limit")

// LCAQuery is one lowest-common-ancestor query.
type LCAQuery struct{ U, V int }

// Edge is a weighted undirected graph edge for min-cut queries.
type Edge struct {
	U, V int
	W    int64
}

// Cost is the spatial-model cost attributed to a request (zero on
// unmetered native backends, like the JSON API's cost block).
type Cost struct{ Energy, Messages, Depth int64 }

// Query is one request, the binary twin of the HTTP API's QueryRequest.
// Exactly one of ShardID / TreeID / Parents routes it (the frame format
// makes the choice explicit, so "both set" is unrepresentable): ShardID
// addresses a mutable shard (the binary twin of /v1/dyn/{id}/query),
// TreeID a registered tree, Parents an ad-hoc tree. Vals carries
// treefix/topdown inputs and expr leaf constants; ExprKinds labels
// expr vertices (0 = leaf, 1 = add, 2 = mul).
type Query struct {
	// ID correlates the response; the client assigns it (never 0).
	ID        uint64
	Kind      uint8
	ShardID   string
	TreeID    string
	Parents   []int
	Op        string
	Vals      []int64
	Queries   []LCAQuery
	Edges     []Edge
	ExprKinds []uint8
}

// Result is one successful response, the binary twin of QueryResponse.
type Result struct {
	ID      uint64
	Kind    uint8
	Sums    []int64
	Answers []int
	// MinWeight/ArgVertex are meaningful for KindMinCut.
	MinWeight int64
	ArgVertex int
	// Value is meaningful for KindExpr.
	Value int64
	Cost  Cost
}

// Error is one failed response. ID 0 marks a connection-level error
// (the server could not attribute the frame to a query).
type Error struct {
	ID     uint64
	Status Status
	Msg    string
}

// Error implements the error interface, so an *Error can travel as the
// client's returned error.
func (e *Error) Error() string {
	return fmt.Sprintf("wire: %s: %s", e.Status, e.Msg)
}

// AppendPing appends a ping frame to dst.
func AppendPing(dst []byte) []byte { return format.Append(dst, FramePing, nil) }

// AppendPong appends a pong frame to dst.
func AppendPong(dst []byte) []byte { return format.Append(dst, FramePong, nil) }

// AppendQuery appends q as one query frame to dst.
func AppendQuery(dst []byte, q *Query) []byte {
	return format.Append(dst, FrameQuery, func(b []byte) []byte {
		b = binary.AppendUvarint(b, q.ID)
		b = append(b, q.Kind)
		if q.ShardID != "" {
			b = append(b, routeShard)
			b = binfmt.AppendStr(b, q.ShardID)
		} else if q.TreeID != "" {
			b = append(b, routeTreeID)
			b = binfmt.AppendStr(b, q.TreeID)
		} else {
			b = append(b, routeParents)
			b = binfmt.AppendInts(b, q.Parents)
		}
		switch q.Kind {
		case KindTreefix, KindTopDown:
			b = binfmt.AppendStr(b, q.Op)
			b = binfmt.AppendInt64s(b, q.Vals)
		case KindLCA:
			b = binary.AppendUvarint(b, uint64(len(q.Queries)))
			for _, lq := range q.Queries {
				b = binary.AppendUvarint(b, uint64(lq.U))
				b = binary.AppendUvarint(b, uint64(lq.V))
			}
		case KindMinCut:
			b = binary.AppendUvarint(b, uint64(len(q.Edges)))
			for _, e := range q.Edges {
				b = binary.AppendUvarint(b, uint64(e.U))
				b = binary.AppendUvarint(b, uint64(e.V))
				b = binary.AppendVarint(b, e.W)
			}
		case KindExpr:
			b = binfmt.AppendBytes(b, q.ExprKinds)
			b = binfmt.AppendInt64s(b, q.Vals)
		}
		return b
	})
}

// AppendResult appends r as one result frame to dst.
func AppendResult(dst []byte, r *Result) []byte {
	return format.Append(dst, FrameResult, func(b []byte) []byte {
		b = binary.AppendUvarint(b, r.ID)
		b = append(b, r.Kind)
		b = binary.AppendVarint(b, r.Cost.Energy)
		b = binary.AppendVarint(b, r.Cost.Messages)
		b = binary.AppendVarint(b, r.Cost.Depth)
		switch r.Kind {
		case KindTreefix, KindTopDown:
			b = binfmt.AppendInt64s(b, r.Sums)
		case KindLCA:
			b = binary.AppendUvarint(b, uint64(len(r.Answers)))
			for _, a := range r.Answers {
				b = binary.AppendUvarint(b, uint64(a))
			}
		case KindMinCut:
			b = binary.AppendVarint(b, r.MinWeight)
			b = binary.AppendVarint(b, int64(r.ArgVertex))
		case KindExpr:
			b = binary.AppendVarint(b, r.Value)
		}
		return b
	})
}

// AppendError appends e as one error frame to dst.
func AppendError(dst []byte, e *Error) []byte {
	return format.Append(dst, FrameError, func(b []byte) []byte {
		b = binary.AppendUvarint(b, e.ID)
		b = append(b, byte(e.Status))
		return appendMsg(b, e.Msg)
	})
}

// appendMsg appends an error or ack message, cut to maxErrLen.
func appendMsg(dst []byte, msg string) []byte {
	if len(msg) > maxErrLen {
		msg = msg[:maxErrLen]
	}
	return binfmt.AppendStr(dst, msg)
}

// Decode decodes the payload of a query frame into q, reusing q's
// slices when their capacity suffices — the zero-alloc path a serving
// connection leans on. Any structural violation returns ErrCorrupt
// (wrapped); q's contents are then unspecified.
//
//spatialvet:errclass
func (q *Query) Decode(payload []byte) error {
	d := format.Decoder(payload)
	q.ID = d.Uvarint()
	q.Kind = d.Byte()
	route := d.Byte()
	q.ShardID, q.TreeID, q.Parents = "", "", q.Parents[:0]
	switch route {
	case routeShard:
		q.ShardID = d.Str(maxNameLen)
	case routeTreeID:
		q.TreeID = d.Str(maxNameLen)
	case routeParents:
		q.Parents = d.Ints(q.Parents)
	default:
		d.Failf("unknown route %d", route)
	}
	q.Op, q.Vals, q.Queries, q.Edges, q.ExprKinds =
		"", q.Vals[:0], q.Queries[:0], q.Edges[:0], q.ExprKinds[:0]
	switch q.Kind {
	case KindTreefix, KindTopDown:
		q.Op = d.Str(maxNameLen)
		q.Vals = d.Int64s(q.Vals)
	case KindLCA:
		q.Queries = binfmt.Grow(q.Queries, d.Count())
		for i := range q.Queries {
			q.Queries[i] = LCAQuery{U: int(d.Uvarint()), V: int(d.Uvarint())}
		}
	case KindMinCut:
		q.Edges = binfmt.Grow(q.Edges, d.Count())
		for i := range q.Edges {
			q.Edges[i] = Edge{U: int(d.Uvarint()), V: int(d.Uvarint()), W: d.Varint()}
		}
	case KindExpr:
		q.ExprKinds = d.Bytes(q.ExprKinds)
		q.Vals = d.Int64s(q.Vals)
	default:
		d.Failf("unknown query kind %d", q.Kind)
	}
	return d.Finish()
}

// Decode decodes the payload of a result frame into r. Slices are
// freshly allocated: a decoded Result owns its memory.
//
//spatialvet:errclass
func (r *Result) Decode(payload []byte) error {
	d := format.Decoder(payload)
	r.ID = d.Uvarint()
	r.Kind = d.Byte()
	r.Cost = Cost{Energy: d.Varint(), Messages: d.Varint(), Depth: d.Varint()}
	r.Sums, r.Answers, r.MinWeight, r.ArgVertex, r.Value = nil, nil, 0, 0, 0
	switch r.Kind {
	case KindTreefix, KindTopDown:
		r.Sums = d.Int64s(nil)
	case KindLCA:
		r.Answers = make([]int, d.Count())
		for i := range r.Answers {
			r.Answers[i] = int(d.Uvarint())
		}
	case KindMinCut:
		r.MinWeight = d.Varint()
		r.ArgVertex = int(d.Varint())
	case KindExpr:
		r.Value = d.Varint()
	default:
		d.Failf("unknown result kind %d", r.Kind)
	}
	return d.Finish()
}

// Decode decodes the payload of an error frame into e.
//
//spatialvet:errclass
func (e *Error) Decode(payload []byte) error {
	d := format.Decoder(payload)
	e.ID = d.Uvarint()
	e.Status = Status(d.Byte())
	e.Msg = d.Str(maxErrLen)
	return d.Finish()
}

// Reader reads frames from a stream, reusing one growable buffer: the
// payload returned by Next is valid only until the following Next
// call. The reader never allocates in proportion to a declared length
// it has not actually received.
type Reader struct {
	r      io.Reader
	header [HeaderLen]byte
	buf    []byte
	max    int
}

// NewReader wraps r; maxFrame bounds accepted payload lengths
// (<= 0 means DefaultMaxFrame). Wrap r in a bufio.Reader if it is an
// unbuffered connection.
func NewReader(r io.Reader, maxFrame int) *Reader {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	return &Reader{r: r, max: maxFrame}
}

// Next reads one frame and returns its kind and payload (valid until
// the next call). io.EOF on a clean frame boundary means the peer
// closed; ErrTooLarge means the oversized payload was discarded and
// the stream remains usable; ErrCorrupt and ErrVersion mean the stream
// cannot be trusted further.
//
//spatialvet:errclass
func (r *Reader) Next() (kind byte, payload []byte, err error) {
	if _, err := io.ReadFull(r.r, r.header[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, format.Corruptf("truncated header")
		}
		return 0, nil, err
	}
	kind, plen, err := format.Header(&r.header)
	if err != nil {
		return 0, nil, err
	}
	if plen > r.max {
		// Discard the payload so the stream stays framed; the caller
		// can answer StatusTooLarge and keep serving.
		if _, err := io.CopyN(io.Discard, r.r, int64(plen)); err != nil {
			return kind, nil, format.Corruptf("discarding oversized frame: %v", err)
		}
		return kind, nil, fmt.Errorf("%w: %d bytes (limit %d)", ErrTooLarge, plen, r.max)
	}
	if cap(r.buf) < plen {
		r.buf = make([]byte, plen)
	}
	payload = r.buf[:plen]
	if _, err := io.ReadFull(r.r, payload); err != nil {
		return kind, nil, format.Corruptf("truncated payload: %v", err)
	}
	if err := format.Check(&r.header, payload); err != nil {
		return kind, nil, err
	}
	return kind, payload, nil
}
