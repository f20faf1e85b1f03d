package server

// The binary-protocol codec: internal/wire frames on raw TCP, decoded
// onto the same query path as HTTP/JSON — the same admit, the same
// serveQuery routing and validation, the same error classification.
// One connection processes its frames in arrival order (like HTTP/1.1
// on one connection); concurrency comes from many connections, whose
// requests coalesce into shared batches exactly as HTTP traffic does.
// The per-connection hot path is allocation-free: the frame reader,
// decoded query, submission scratch and response buffer are all
// connection-local and reused frame to frame.

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"time"

	"spatialtree/internal/wire"
)

// ServeBinary accepts binary-protocol connections from ln until the
// listener is closed (by the caller or by CloseBinary) and serves each
// on its own goroutine. Like http.Server.Serve, it always returns a
// non-nil error; net.ErrClosed is the clean-shutdown one.
func (s *Server) ServeBinary(ln net.Listener) error {
	s.wireEnabled.Store(true)
	s.wireMu.Lock()
	s.wireListeners[ln] = struct{}{}
	s.wireMu.Unlock()
	defer func() {
		s.wireMu.Lock()
		delete(s.wireListeners, ln)
		s.wireMu.Unlock()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		s.wireTotal.Add(1)
		s.wireMu.Lock()
		s.wireConns[conn] = struct{}{}
		s.wireMu.Unlock()
		go func() {
			defer func() {
				s.wireMu.Lock()
				delete(s.wireConns, conn)
				s.wireMu.Unlock()
				conn.Close()
			}()
			s.serveConn(conn)
		}()
	}
}

// CloseBinary closes every binary-protocol listener registered by
// ServeBinary and every open connection. Call it after Drain: draining
// already makes every connection answer StatusUnavailable, so closing
// here cuts off clients that never read their responses.
func (s *Server) CloseBinary() {
	s.wireMu.Lock()
	lns := make([]net.Listener, 0, len(s.wireListeners))
	for ln := range s.wireListeners {
		lns = append(lns, ln)
	}
	conns := make([]net.Conn, 0, len(s.wireConns))
	for c := range s.wireConns {
		conns = append(conns, c)
	}
	s.wireMu.Unlock()
	for _, ln := range lns {
		_ = ln.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
}

// serveConn runs one connection's frame loop.
func (s *Server) serveConn(conn net.Conn) {
	rd := wire.NewReader(bufio.NewReader(conn), int(s.cfg.Limits.BodyLimit))
	var (
		q       wire.Query
		res     wire.Result
		scratch wireScratch
		out     []byte
	)
	writeFrame := func(frame []byte) bool {
		if t := s.cfg.Timeouts.TCPWrite; t > 0 {
			_ = conn.SetWriteDeadline(time.Now().Add(t))
		}
		_, err := conn.Write(frame)
		return err == nil
	}

	// badFrame answers a payload that failed decoding at the connection
	// level — the stream is framed but the peer is speaking garbage, so
	// the caller hangs up after it.
	badFrame := func(err error) {
		s.wireErrors.Add(1)
		writeFrame(wire.AppendError(out[:0], &wire.Error{Status: wire.StatusBadRequest, Msg: err.Error()}))
	}

	for {
		if t := s.cfg.Timeouts.TCPIdle; t > 0 {
			// The deadline covers the whole frame read: it doubles as
			// the slow-write guard HTTP gets from ReadTimeout, so a
			// client trickling a frame byte-by-byte cannot hold the
			// connection past the idle budget.
			_ = conn.SetReadDeadline(time.Now().Add(t))
		}
		kind, payload, err := rd.Next()
		switch {
		case err == nil:
		case errors.Is(err, wire.ErrTooLarge):
			// The reader discarded the payload, so the stream is still
			// framed; the query id was in the discarded bytes, hence the
			// connection-level id 0.
			if !writeFrame(wire.AppendError(out[:0], &wire.Error{Status: wire.StatusTooLarge, Msg: err.Error()})) {
				return
			}
			continue
		case errors.Is(err, wire.ErrCorrupt), errors.Is(err, wire.ErrVersion):
			// The stream cannot be resynchronized: answer once at the
			// connection level and hang up.
			s.wireErrors.Add(1)
			writeFrame(wire.AppendError(out[:0], &wire.Error{Status: wire.StatusBadRequest, Msg: err.Error()}))
			return
		default:
			// io.EOF (clean close), deadline expiry, reset: nothing to say.
			return
		}

		switch kind {
		case wire.FramePing:
			if !writeFrame(wire.AppendPong(out[:0])) {
				return
			}
		case wire.FrameQuery:
			// The decode scratch is reused frame to frame even under
			// shadow metering: the engine copies a sampled batch's inputs
			// out before any future resolves (engine.copyShadowInputs),
			// so no engine-side read of these buffers survives the reply.
			if err := q.Decode(payload); err != nil {
				badFrame(err)
				return
			}
			out = s.serveFrame(out[:0], q.ID, func(out []byte) ([]byte, error) {
				if err := s.serveQuery(&q, &res, &scratch); err != nil {
					return out, err
				}
				return wire.AppendResult(out, &res), nil
			})
			if !writeFrame(out) {
				return
			}
		case wire.FrameDynCreate:
			var dc wire.DynCreate
			if err := dc.Decode(payload); err != nil {
				badFrame(err)
				return
			}
			out = s.serveWireDynCreate(out[:0], &dc)
			if !writeFrame(out) {
				return
			}
		case wire.FrameMutate:
			var m wire.Mutate
			if err := m.Decode(payload); err != nil {
				badFrame(err)
				return
			}
			out = s.serveWireMutate(out[:0], &m)
			if !writeFrame(out) {
				return
			}
		case wire.FrameRepSnapshot:
			var rs wire.RepSnapshot
			if err := rs.Decode(payload); err != nil {
				badFrame(err)
				return
			}
			out = s.serveWireRep(out[:0], rs.ID, rs.ShardID, func(h ClusterHooks) (uint64, uint8, string) {
				return h.ApplySnapshot(rs.ShardID, rs.Blob)
			})
			if !writeFrame(out) {
				return
			}
		case wire.FrameRepRecords:
			var rr wire.RepRecords
			if err := rr.Decode(payload); err != nil {
				badFrame(err)
				return
			}
			out = s.serveWireRep(out[:0], rr.ID, rr.ShardID, func(h ClusterHooks) (uint64, uint8, string) {
				return h.ApplyRecords(rr.ShardID, rr.Recs)
			})
			if !writeFrame(out) {
				return
			}
		case wire.FrameHandbackOffer:
			var ho wire.HandbackOffer
			if err := ho.Decode(payload); err != nil {
				badFrame(err)
				return
			}
			out = s.serveWireHandback(out[:0], &ho)
			if !writeFrame(out) {
				return
			}
		default:
			s.wireErrors.Add(1)
			writeFrame(wire.AppendError(out[:0], &wire.Error{Status: wire.StatusBadRequest,
				Msg: fmt.Sprintf("unexpected frame kind %d", kind)}))
			return
		}
	}
}

// serveFrame answers one client-originated frame: it admits the frame
// as admit admits an HTTP request (one queue, one set of counters), runs
// serve, and returns serve's reply appended to out — or, on refusal or
// failure, the classified error frame answering id.
func (s *Server) serveFrame(out []byte, id uint64, serve func(out []byte) ([]byte, error)) []byte {
	s.wireQueries.Add(1)
	err := s.admit()
	if err == nil {
		var reply []byte
		reply, err = serve(out)
		s.release()
		if err == nil {
			return reply
		}
	}
	st, msg := wireErr(err)
	return wire.AppendError(out, &wire.Error{ID: id, Status: st, Msg: msg})
}

// serveWireDynCreate serves one FrameDynCreate: the binary twin of
// POST /v1/dyn, routed through the cluster hooks exactly as the HTTP
// handler is. A frame naming its shard id is the cluster owner path —
// the proxying peer already routed the id here, so it must be created
// locally (re-routing would bounce between skewed ring views).
func (s *Server) serveWireDynCreate(out []byte, dc *wire.DynCreate) []byte {
	return s.serveFrame(out, dc.ID, func(out []byte) ([]byte, error) {
		var res DynCreateResult
		var err error
		if dc.ShardID != "" {
			res, err = s.DynCreateLocal(dc.ShardID, dc.Parents, dc.Epsilon, dc.Backend)
		} else {
			res, err = s.dynCreate(dc.Parents, dc.Epsilon, dc.Backend)
		}
		if err != nil {
			return out, err
		}
		return wire.AppendDynCreated(out, &wire.DynCreated{ID: dc.ID, ShardID: res.ID, N: res.N, Backend: res.Backend}), nil
	})
}

// serveWireMutate serves one FrameMutate: the binary twin of
// POST /v1/dyn/{id}/mutate, routed through the cluster hooks.
func (s *Server) serveWireMutate(out []byte, m *wire.Mutate) []byte {
	return s.serveFrame(out, m.ID, func(out []byte) ([]byte, error) {
		res, err := s.mutate(m.ShardID, m.Op, m.Arg)
		if err != nil {
			return out, err
		}
		return wire.AppendMutated(out, &wire.Mutated{ID: m.ID, Vertex: res.Vertex, Moved: res.Moved, Epoch: res.Epoch, N: res.N}), nil
	})
}

// serveWireRep serves one replication frame (FrameRepSnapshot or
// FrameRepRecords), answering with a RepAck. Replication deliberately
// bypasses the admission queue: an owner's mutation holds an admission
// slot while it waits for follower acks, so a follower whose apply had
// to queue behind that same bounded queue could deadlock the cluster at
// saturation. Replication traffic is peer-originated and bounded by the
// peer count, not by untrusted clients.
func (s *Server) serveWireRep(out []byte, id uint64, shardID string, apply func(ClusterHooks) (uint64, uint8, string)) []byte {
	h := s.clusterHooks()
	if h == nil {
		return wire.AppendError(out, &wire.Error{ID: id, Status: wire.StatusBadRequest, Msg: "not a cluster node"})
	}
	cursor, code, msg := apply(h)
	return wire.AppendRepAck(out, &wire.RepAck{ID: id, ShardID: shardID, Cursor: cursor, Code: code, Msg: msg})
}

// serveWireHandback serves one FrameHandbackOffer, answering with a
// HandbackGrant. Like replication, handback bypasses the admission
// queue: it is peer-originated, bounded by the peer count, and must
// make progress while client traffic saturates the bounded queue — a
// rejoiner proxying its clients' requests here depends on it.
func (s *Server) serveWireHandback(out []byte, ho *wire.HandbackOffer) []byte {
	h := s.clusterHooks()
	if h == nil {
		return wire.AppendError(out, &wire.Error{ID: ho.ID, Status: wire.StatusBadRequest, Msg: "not a cluster node"})
	}
	g := h.Handback(ho)
	g.ID, g.ShardID = ho.ID, ho.ShardID
	return wire.AppendHandbackGrant(out, g)
}
