package main

import (
	"context"
	"net"
	"testing"

	"spatialtree/internal/rng"
	"spatialtree/internal/server"
)

// TestRunRemote drives an in-process sim server over a loopback binary
// listener: every frame is answered, none is backpressured, and
// runRemote's counts match both the traffic it was asked to send and
// what the server saw. A draining server's answers count as
// backpressure, and a server that is gone is an error returned to the
// caller.
func TestRunRemote(t *testing.T) {
	s := server.New(server.Config{Backend: "sim"})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.ServeBinary(ln) }()
	t.Cleanup(s.CloseBinary)

	// 2 clients × 2 rounds; with -mincut-share 3 only client 0's first
	// round (c+round = 0) is a min-cut, on the tree its stream draws first.
	l := load{addr: ln.Addr().String(), n: 256, trees: 2, clients: 2, rounds: 2,
		queries: 64, subs: 4, cutShare: 3, seed: 7}
	rep, err := runRemote(l)
	if err != nil {
		t.Fatal(err)
	}
	cutEdges := len(newForest(l)[rng.New(l.seed).Intn(l.trees)].edges)
	frames := 1 + 3*(1+l.subs)
	if want := int64(cutEdges + 3*(l.n+l.queries)); rep.served != want || rep.backpressured != 0 {
		t.Errorf("served %d items, %d frames backpressured; want %d, 0", rep.served, rep.backpressured, want)
	}
	if rep.elapsed <= 0 {
		t.Errorf("elapsed = %v, want > 0", rep.elapsed)
	}
	m := s.Metrics()
	if m.Wire == nil || m.Wire.Queries != uint64(frames) || m.Wire.Conns != uint64(l.clients) {
		t.Errorf("server wire metrics = %+v, want %d frames on %d connections", m.Wire, frames, l.clients)
	}
	if m.Server.Rejected != 0 || m.Engine.LCAQueries != uint64(3*l.queries) {
		t.Errorf("server rejected %d, ran %d LCA queries; want 0, %d", m.Server.Rejected, m.Engine.LCAQueries, 3*l.queries)
	}

	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rep, err := runRemote(l); err != nil || rep.served != 0 || rep.backpressured != int64(frames) {
		t.Errorf("against a draining server: served %d, backpressured %d, err %v; want 0, %d, nil",
			rep.served, rep.backpressured, err, frames)
	}
	s.CloseBinary()
	if _, err := runRemote(l); err == nil {
		t.Error("against a closed listener: err = nil")
	}
}
