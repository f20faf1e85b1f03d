package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"
)

func sampleQueries() []*Query {
	return []*Query{
		{Kind: KindTreefix, TreeID: "t1", Op: "add", Vals: []int64{1, -2, 3}},
		{Kind: KindTopDown, Parents: []int{-1, 0, 0, 1}, Op: "max", Vals: []int64{5, 0, -7, 9}},
		{Kind: KindLCA, TreeID: "t1", Queries: []LCAQuery{{U: 1, V: 2}, {U: 3, V: 0}}},
		{Kind: KindMinCut, Parents: []int{-1, 0, 0}, Edges: []Edge{{U: 0, V: 1, W: 4}, {U: 1, V: 2, W: -0x7fffffff}}},
		{Kind: KindExpr, TreeID: "e", ExprKinds: []uint8{1, 0, 0}, Vals: []int64{0, 2, 3}},
	}
}

func sampleResults() []*Result {
	return []*Result{
		{ID: 1, Kind: KindTreefix, Sums: []int64{2, -1, 4}, Cost: Cost{Energy: 10, Messages: 3, Depth: 2}},
		{ID: 2, Kind: KindLCA, Answers: []int{0, 0}},
		{ID: 3, Kind: KindMinCut, MinWeight: -5, ArgVertex: 2},
		{ID: 4, Kind: KindExpr, Value: 5},
		{ID: 5, Kind: KindTopDown, Sums: []int64{}},
	}
}

// TestQueryRoundTrip: every query kind survives encode → frame read →
// decode byte-for-byte, including negative values and both routes.
func TestQueryRoundTrip(t *testing.T) {
	for i, q := range sampleQueries() {
		q.ID = uint64(i + 1)
		frame := AppendQuery(nil, q)
		rd := NewReader(bytes.NewReader(frame), 0)
		kind, payload, err := rd.Next()
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if kind != FrameQuery {
			t.Fatalf("query %d: frame kind %d", i, kind)
		}
		var got Query
		if err := got.Decode(payload); err != nil {
			t.Fatalf("query %d: decode: %v", i, err)
		}
		if !queriesEqual(&got, q) {
			t.Fatalf("query %d round trip:\n got %+v\nwant %+v", i, got, *q)
		}
	}
}

// queriesEqual compares semantically: decode normalizes absent slices
// to empty ones because it reuses buffers.
func queriesEqual(a, b *Query) bool {
	return a.ID == b.ID && a.Kind == b.Kind && a.TreeID == b.TreeID && a.Op == b.Op &&
		intsEq(a.Parents, b.Parents) && valsEq(a.Vals, b.Vals) &&
		reflect.DeepEqual(norm(a.Queries), norm(b.Queries)) &&
		reflect.DeepEqual(norm(a.Edges), norm(b.Edges)) &&
		reflect.DeepEqual(norm(a.ExprKinds), norm(b.ExprKinds))
}

func norm[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}
func intsEq(a, b []int) bool   { return reflect.DeepEqual(norm(a), norm(b)) }
func valsEq(a, b []int64) bool { return reflect.DeepEqual(norm(a), norm(b)) }

func TestResultRoundTrip(t *testing.T) {
	for i, r := range sampleResults() {
		frame := AppendResult(nil, r)
		rd := NewReader(bytes.NewReader(frame), 0)
		kind, payload, err := rd.Next()
		if err != nil {
			t.Fatalf("result %d: %v", i, err)
		}
		if kind != FrameResult {
			t.Fatalf("result %d: frame kind %d", i, kind)
		}
		var got Result
		if err := got.Decode(payload); err != nil {
			t.Fatalf("result %d: decode: %v", i, err)
		}
		if got.ID != r.ID || got.Kind != r.Kind || got.Cost != r.Cost ||
			got.MinWeight != r.MinWeight || got.ArgVertex != r.ArgVertex || got.Value != r.Value ||
			!valsEq(got.Sums, r.Sums) || !reflect.DeepEqual(norm(got.Answers), norm(r.Answers)) {
			t.Fatalf("result %d round trip:\n got %+v\nwant %+v", i, got, *r)
		}
	}
}

func TestErrorRoundTrip(t *testing.T) {
	e := &Error{ID: 42, Status: StatusTooMany, Msg: "queue full"}
	frame := AppendError(nil, e)
	rd := NewReader(bytes.NewReader(frame), 0)
	kind, payload, err := rd.Next()
	if err != nil || kind != FrameError {
		t.Fatalf("kind %d err %v", kind, err)
	}
	var got Error
	if err := got.Decode(payload); err != nil {
		t.Fatal(err)
	}
	if got != *e {
		t.Fatalf("got %+v want %+v", got, *e)
	}
	if !strings.Contains(got.Error(), "queue full") || !strings.Contains(got.Error(), "too many") {
		t.Fatalf("error text %q", got.Error())
	}
}

// TestQueryDecodeReuse: decoding into the same Query must reuse its
// slices (capacity permitting) and fully overwrite stale state.
func TestQueryDecodeReuse(t *testing.T) {
	var q Query
	frames := sampleQueries()
	var buf []byte
	for round := 0; round < 3; round++ {
		for i, want := range frames {
			want.ID = uint64(100*round + i)
			buf = AppendQuery(buf[:0], want)
			if err := q.Decode(buf[HeaderLen:]); err != nil {
				t.Fatal(err)
			}
			if !queriesEqual(&q, want) {
				t.Fatalf("round %d query %d: reuse drifted:\n got %+v\nwant %+v", round, i, q, *want)
			}
		}
	}
}

// TestDecodeAllocs pins what decoding costs the serving hot path. Into
// a reused Query, a decode allocates only the strings it keeps: one per
// non-empty tree id, shard id and operator, so a parents-routed LCA or
// expr query allocates nothing. A Result owns its slices: an LCA result
// allocates its answers once.
func TestDecodeAllocs(t *testing.T) {
	parents := []int{-1, 0, 0, 1, 1}
	for i, want := range []*Query{
		{ID: 1, Kind: KindLCA, Parents: parents, Queries: []LCAQuery{{U: 3, V: 4}, {U: 2, V: 3}}},
		{ID: 2, Kind: KindExpr, Parents: []int{-1, 0, 0}, ExprKinds: []uint8{1, 0, 0}, Vals: []int64{0, 2, 3}},
		{ID: 3, Kind: KindMinCut, Parents: parents, Edges: []Edge{{U: 3, V: 2, W: 5}}},
		{ID: 4, Kind: KindTreefix, TreeID: "t69286a04bcfab1e6", Op: "max", Vals: []int64{5, -2, 0, 1, 7}},
		{ID: 5, Kind: KindTopDown, Parents: parents, Op: "add", Vals: []int64{1, 2, 3, 4, 5}},
		{ID: 6, Kind: KindLCA, TreeID: "t69286a04bcfab1e6", Queries: []LCAQuery{{U: 3, V: 4}}},
		{ID: 7, Kind: KindLCA, ShardID: "c00000000000002a-3", Queries: []LCAQuery{{U: 3, V: 4}}},
	} {
		payload := AppendQuery(nil, want)[HeaderLen:]
		var q Query
		if err := q.Decode(payload); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		strs := 0
		for _, s := range []string{want.TreeID, want.ShardID, want.Op} {
			if s != "" {
				strs++
			}
		}
		if got := testing.AllocsPerRun(100, func() { _ = q.Decode(payload) }); got != float64(strs) {
			t.Errorf("query %d (kind %d): %v allocs per decode, want %d", i, want.Kind, got, strs)
		}
	}
	payload := AppendResult(nil, &Result{ID: 1, Kind: KindLCA, Answers: []int{0, 1, 0}})[HeaderLen:]
	var r Result
	if got := testing.AllocsPerRun(100, func() { _ = r.Decode(payload) }); got != 1 {
		t.Errorf("LCA result: %v allocs per decode, want 1", got)
	}
}

func TestReaderMultipleFrames(t *testing.T) {
	var stream []byte
	stream = AppendPing(stream)
	stream = AppendQuery(stream, &Query{ID: 7, Kind: KindTreefix, TreeID: "x", Op: "add"})
	stream = AppendPong(stream)
	rd := NewReader(bytes.NewReader(stream), 0)
	wantKinds := []byte{FramePing, FrameQuery, FramePong}
	for i, want := range wantKinds {
		kind, _, err := rd.Next()
		if err != nil || kind != want {
			t.Fatalf("frame %d: kind %d err %v, want kind %d", i, kind, err, want)
		}
	}
	if _, _, err := rd.Next(); err != io.EOF {
		t.Fatalf("after stream: %v, want io.EOF", err)
	}
}

func TestReaderRejects(t *testing.T) {
	valid := AppendQuery(nil, &Query{ID: 1, Kind: KindTreefix, TreeID: "t", Op: "add", Vals: []int64{1}})

	t.Run("bad magic", func(t *testing.T) {
		bad := bytes.Clone(valid)
		bad[0] = 'X'
		if _, _, err := NewReader(bytes.NewReader(bad), 0).Next(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		bad := bytes.Clone(valid)
		bad[4] = 99
		if _, _, err := NewReader(bytes.NewReader(bad), 0).Next(); !errors.Is(err, ErrVersion) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("crc mismatch", func(t *testing.T) {
		bad := bytes.Clone(valid)
		bad[len(bad)-1] ^= 0xff
		if _, _, err := NewReader(bytes.NewReader(bad), 0).Next(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		if _, _, err := NewReader(bytes.NewReader(valid[:len(valid)-2]), 0).Next(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("truncated header", func(t *testing.T) {
		if _, _, err := NewReader(bytes.NewReader(valid[:HeaderLen-3]), 0).Next(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("declared length beyond stream", func(t *testing.T) {
		bad := bytes.Clone(valid)
		binary.LittleEndian.PutUint32(bad[6:], uint32(len(bad))) // longer than remaining bytes
		if _, _, err := NewReader(bytes.NewReader(bad), 0).Next(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v", err)
		}
	})
}

// TestReaderTooLargeKeepsStream: an oversized frame is reported as
// ErrTooLarge, its payload discarded, and the following frame still
// reads cleanly — the server leans on this to answer 413-equivalents
// without dropping the connection.
func TestReaderTooLargeKeepsStream(t *testing.T) {
	big := AppendQuery(nil, &Query{ID: 1, Kind: KindTreefix, TreeID: "t", Op: "add", Vals: make([]int64, 100)})
	small := AppendPing(nil)
	rd := NewReader(bytes.NewReader(append(bytes.Clone(big), small...)), 32)
	if _, _, err := rd.Next(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized frame: %v, want ErrTooLarge", err)
	}
	kind, _, err := rd.Next()
	if err != nil || kind != FramePing {
		t.Fatalf("frame after oversized: kind %d err %v", kind, err)
	}
}

// TestDecodeRejectsHostileCounts: counts larger than the remaining
// payload must be rejected before any allocation happens.
func TestDecodeRejectsHostileCounts(t *testing.T) {
	// Hand-build a treefix query payload claiming 2^40 values.
	var p []byte
	p = binary.AppendUvarint(p, 1) // id
	p = append(p, KindTreefix, routeTreeID)
	p = binary.AppendUvarint(p, 1)
	p = append(p, 't')
	p = binary.AppendUvarint(p, 3)
	p = append(p, 'a', 'd', 'd')
	p = binary.AppendUvarint(p, 1<<40) // hostile count
	var q Query
	if err := q.Decode(p); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("hostile count: %v, want ErrCorrupt", err)
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	frame := AppendPingPayloadTrailer(t)
	var q Query
	if err := q.Decode(frame); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing bytes: %v, want ErrCorrupt", err)
	}
}

func AppendPingPayloadTrailer(t *testing.T) []byte {
	t.Helper()
	full := AppendQuery(nil, &Query{ID: 1, Kind: KindLCA, TreeID: "t"})
	return append(bytes.Clone(full[HeaderLen:]), 0x00)
}

func TestStatusMapping(t *testing.T) {
	for s := Status(0); s < 7; s++ {
		if s.String() == "" || strings.HasPrefix(s.String(), "status ") {
			t.Errorf("Status(%d) has no name", s)
		}
	}
}

func TestKindNames(t *testing.T) {
	for k, want := range map[uint8]string{
		KindTreefix: "treefix", KindTopDown: "topdown", KindLCA: "lca",
		KindMinCut: "mincut", KindExpr: "expr", 99: "",
	} {
		if got := KindName(k); got != want {
			t.Errorf("KindName(%d) = %q, want %q", k, got, want)
		}
	}
}

// TestClientAgainstEchoServer exercises Dial/Do/Ping/Close against a
// minimal in-test server that echoes queries back as results.
func TestClientAgainstEchoServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		rd := NewReader(conn, 0)
		var q Query
		var out []byte
		for {
			kind, payload, err := rd.Next()
			if err != nil {
				return
			}
			switch kind {
			case FramePing:
				out = AppendPong(out[:0])
			case FrameQuery:
				if err := q.Decode(payload); err != nil {
					return
				}
				if q.TreeID == "missing" {
					out = AppendError(out[:0], &Error{ID: q.ID, Status: StatusNotFound, Msg: "no such tree"})
				} else {
					out = AppendResult(out[:0], &Result{ID: q.ID, Kind: q.Kind, Sums: q.Vals})
				}
			default:
				return
			}
			if _, err := conn.Write(out); err != nil {
				return
			}
		}
	}()

	c, err := Dial(ln.Addr().String(), DialOptions{DialTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	res, err := c.Do(&Query{Kind: KindTreefix, TreeID: "t", Op: "add", Vals: []int64{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !valsEq(res.Sums, []int64{1, 2, 3}) {
		t.Fatalf("echo sums %v", res.Sums)
	}
	_, err = c.Do(&Query{Kind: KindTreefix, TreeID: "missing", Op: "add"})
	var we *Error
	if !errors.As(err, &we) || we.Status != StatusNotFound {
		t.Fatalf("missing tree: %v, want StatusNotFound", err)
	}
	// After Close, calls fail fast.
	c.Close()
	if _, err := c.Do(&Query{Kind: KindTreefix, TreeID: "t"}); err == nil {
		t.Fatal("Do after Close succeeded")
	}
}

// TestClientConnectionError: a server that slams the door mid-flight
// must fail the pending call rather than hang it.
func TestClientConnectionError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		// Read the query, then hang up without answering.
		buf := make([]byte, 1)
		conn.Read(buf)
		conn.Close()
	}()
	c, err := Dial(ln.Addr().String(), DialOptions{DialTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		_, err := c.Do(&Query{Kind: KindTreefix, TreeID: "t", Op: "add"})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Do succeeded against a hung-up server")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Do hung after server disconnect")
	}
}

// TestClientRejectsWrongReplyKind: a reply of another kind than the
// request expects — here a Mutated frame answering a query — fails the
// connection with ErrCorrupt instead of panicking the calling
// goroutine, and later calls on the client fail with that error too.
func TestClientRejectsWrongReplyKind(t *testing.T) {
	cc, sc := net.Pipe()
	defer sc.Close()
	go func() {
		rd := NewReader(sc, 0)
		var q Query
		for {
			kind, payload, err := rd.Next()
			if err != nil || kind != FrameQuery || q.Decode(payload) != nil {
				return
			}
			if _, err := sc.Write(AppendMutated(nil, &Mutated{ID: q.ID, Epoch: 1, N: 1})); err != nil {
				return
			}
		}
	}()
	c := NewClientOptions(cc, DialOptions{})
	defer c.Close()
	q := Query{Kind: KindTreefix, TreeID: "t", Op: "add", Vals: []int64{1}}
	if _, err := c.Do(&q); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Do answered by a mutated frame = %v, want ErrCorrupt", err)
	}
	if _, err := c.Do(&q); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Do after a wrong-kind reply = %v, want the connection's ErrCorrupt", err)
	}
}
