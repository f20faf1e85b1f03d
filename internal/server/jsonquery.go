package server

// The HTTP/JSON query codec's fast path: a decoder for the canonical
// form of a QueryRequest body — the form json.Marshal emits — that
// fills a pooled wire.Query directly. A body outside that form is
// declined, and handleQuery decodes it with encoding/json and
// queryFromJSON instead, so every accept/reject decision and every error
// text stays theirs. FuzzQueryJSON holds the two paths to the same
// query.

import (
	"math"
	"sync"

	"spatialtree/internal/wire"
)

// httpQuery is the state one HTTP query is served from: its body, the
// decoded query and the submission scratch — what a binary connection
// keeps for its lifetime (serveConn), pooled here across requests. Reuse
// is safe for the same reason: the engine reads a request's inputs only
// until its future resolves (engine.TestCallerBufferReuse), and
// handleQuery releases the state only after serveQuery has waited.
type httpQuery struct {
	body    []byte
	q       wire.Query
	scratch wireScratch
}

var httpQueries = sync.Pool{New: func() any { return new(httpQuery) }}

// maxPooledBody caps the body buffer a pooled httpQuery may keep: the
// state of an outsized request goes to the garbage collector instead of
// waiting for the next. It bounds the decoded slices too, since every
// element takes at least two bytes of body.
const maxPooledBody = 256 << 10

// release returns hq to the pool unless its body outgrew maxPooledBody.
func (hq *httpQuery) release() {
	if cap(hq.body) <= maxPooledBody {
		httpQueries.Put(hq)
	}
}

// decodeQuery decodes a canonical QueryRequest body straight into q,
// reusing q's slices, and reports whether body was canonical. shardID is
// the dyn endpoint's path id ("" on /v1/query), as for queryFromJSON.
//
// A body is canonical when it is one object with only whitespace around
// its tokens; its keys are exactly QueryRequest's tags (u, v and w in
// elements), each at most once per object; its strings are printable
// ASCII without '"' or '\'; its numbers match -?(0|[1-9][0-9]*) and fit
// their field, expr_kinds entries in 0–255; it holds no null, true or
// false; kind is in the vocabulary; and, off the dyn route, tree_id and
// a non-empty parents are not both set. encoding/json and queryFromJSON
// turn such a body into the same query, nil and empty slices aside. On
// any other body decodeQuery returns false and leaves q unspecified.
func decodeQuery(body []byte, shardID string, q *wire.Query) bool {
	*q = wire.Query{ShardID: shardID, Parents: q.Parents[:0], Vals: q.Vals[:0],
		Queries: q.Queries[:0], Edges: q.Edges[:0], ExprKinds: q.ExprKinds[:0]}
	d := jsonScan{b: body}
	if !d.next('{') {
		return false
	}
	const hasKind = 1 << 2
	var seen uint8
	if !d.next('}') {
		for more := true; more; more = d.next(',') {
			key, ok := d.str()
			if !ok || !d.next(':') {
				return false
			}
			var bit uint8
			var v []byte
			switch string(key) {
			case "tree_id":
				bit = 1 << 0
				if v, ok = d.str(); ok {
					q.TreeID = string(v)
				}
			case "parents":
				bit = 1 << 1
				q.Parents, ok = array(&d, q.Parents, intElem)
			case "kind":
				bit = hasKind
				if v, ok = d.str(); ok {
					q.Kind, ok = wire.KindByName(string(v))
				}
			case "op":
				bit = 1 << 3
				if v, ok = d.str(); ok {
					q.Op = string(v)
				}
			case "vals":
				bit = 1 << 4
				q.Vals, ok = array(&d, q.Vals, (*jsonScan).int)
			case "queries":
				bit = 1 << 5
				q.Queries, ok = array(&d, q.Queries, lcaElem)
			case "edges":
				bit = 1 << 6
				q.Edges, ok = array(&d, q.Edges, edgeElem)
			case "expr_kinds":
				bit = 1 << 7
				q.ExprKinds, ok = array(&d, q.ExprKinds, uint8Elem)
			}
			if !ok || bit == 0 || seen&bit != 0 {
				return false
			}
			seen |= bit
		}
		if !d.next('}') {
			return false
		}
	}
	if !d.end() || seen&hasKind == 0 {
		return false
	}
	if shardID != "" {
		q.TreeID, q.Parents = "", q.Parents[:0]
	} else if q.TreeID != "" && len(q.Parents) > 0 {
		return false
	}
	return true
}

// jsonScan is decodeQuery's cursor over a body.
type jsonScan struct {
	b []byte
	i int
}

// skip advances past whitespace.
func (d *jsonScan) skip() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// next consumes c if it is the next token.
func (d *jsonScan) next(c byte) bool {
	d.skip()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// end reports whether only whitespace remains.
func (d *jsonScan) end() bool {
	d.skip()
	return d.i == len(d.b)
}

// str consumes a string of printable ASCII without '"' or '\' and
// returns its contents, a view into the body.
func (d *jsonScan) str() ([]byte, bool) {
	if !d.next('"') {
		return nil, false
	}
	for j := d.i; j < len(d.b); j++ {
		switch c := d.b[j]; {
		case c == '"':
			s := d.b[d.i:j]
			d.i = j + 1
			return s, true
		case c < ' ' || c > '~' || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// int consumes an integer of the form -?(0|[1-9][0-9]*) that fits in
// an int64. What follows it is the caller's to check, so "01", "1.5"
// and "1e3" fail there.
func (d *jsonScan) int() (int64, bool) {
	d.skip()
	b, i := d.b, d.i
	neg := i < len(b) && b[i] == '-'
	limit := uint64(1<<63 - 1)
	if neg {
		i++
		limit++
	}
	start := i
	var u uint64
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		c := uint64(b[i] - '0')
		if u > (limit-c)/10 {
			return 0, false
		}
		u = u*10 + c
	}
	if n := i - start; n == 0 || n > 1 && b[start] == '0' {
		return 0, false
	}
	d.i = i
	v := int64(u)
	if neg {
		v = -v
	}
	return v, true
}

// intInRange consumes an integer that fits in [lo, hi].
func (d *jsonScan) intInRange(lo, hi int64) (int64, bool) {
	v, ok := d.int()
	return v, ok && lo <= v && v <= hi
}

// array consumes an array into dst[:0], each element by elem.
func array[T any](d *jsonScan, dst []T, elem func(*jsonScan) (T, bool)) ([]T, bool) {
	dst = dst[:0]
	if !d.next('[') {
		return dst, false
	}
	if d.next(']') {
		return dst, true
	}
	for {
		v, ok := elem(d)
		if !ok {
			return dst, false
		}
		dst = append(dst, v)
		if !d.next(',') {
			return dst, d.next(']')
		}
	}
}

// The element decoders array takes.

func intElem(d *jsonScan) (int, bool) {
	v, ok := d.intInRange(math.MinInt, math.MaxInt)
	return int(v), ok
}

func uint8Elem(d *jsonScan) (uint8, bool) {
	v, ok := d.intInRange(0, math.MaxUint8)
	return uint8(v), ok
}

func lcaElem(d *jsonScan) (wire.LCAQuery, bool) {
	var e wire.Edge
	ok := d.elem(&e, false)
	return wire.LCAQuery{U: e.U, V: e.V}, ok
}

func edgeElem(d *jsonScan) (wire.Edge, bool) {
	var e wire.Edge
	ok := d.elem(&e, true)
	return e, ok
}

// elem consumes an LCA query or, with weighted, an edge object into e:
// keys u and v (and w), each at most once, absent ones left zero.
func (d *jsonScan) elem(e *wire.Edge, weighted bool) bool {
	if !d.next('{') {
		return false
	}
	if d.next('}') {
		return true
	}
	var seen uint8
	for {
		key, ok := d.str()
		if !ok || !d.next(':') {
			return false
		}
		var bit uint8
		switch string(key) {
		case "u":
			bit = 1
			e.U, ok = intElem(d)
		case "v":
			bit = 2
			e.V, ok = intElem(d)
		case "w":
			if weighted {
				bit = 4
				e.W, ok = d.int()
			}
		}
		if !ok || bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
		if !d.next(',') {
			return d.next('}')
		}
	}
}
