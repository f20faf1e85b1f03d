package cluster

// The routing half of the node: every dyn-shard request lands here via
// server.ClusterHooks and is resolved against the ring. Owner requests
// run the local core and the replication pipeline; non-owner requests
// either proxy to the owner over the binary protocol or return a
// redirect carrying the owner's address (server.Cluster.Redirect).
//
// route holds the one ring walk: a transport failure quarantines the
// peer (call) and the walk goes on, so one dead owner converges to its
// successor within a single client call.

import (
	"fmt"

	"spatialtree/internal/engine"
	"spatialtree/internal/persist"
	"spatialtree/internal/server"
	"spatialtree/internal/tree"
	"spatialtree/internal/wire"
)

// route walks the ring for key: local runs when this node owns it. A
// non-owner in redirect mode names the owner once a ping reached it;
// otherwise remote runs against the owner. A peer that fails either
// hop at the transport is quarantined and the walk moves on to the
// next live member. id names the shard in the error when no owner is
// live; a creation has no id yet and is named by its tree fingerprint.
func (n *Node) route(key uint64, id string, local func() error, remote func(*wire.Client) error) error {
	for attempt := 0; attempt <= len(n.peers); attempt++ {
		owner, ok := n.ring.Owner(key, n.alive)
		if !ok {
			break
		}
		if owner == n.cfg.Self {
			return local()
		}
		if n.cfg.Redirect {
			// Redirect only to an owner just reached: no member ever
			// proxies in redirect mode, so this ping is how a dead
			// owner gets quarantined and its successor named.
			if down, _ := n.call(owner, (*wire.Client).Ping); !down {
				return server.RedirectTo(owner)
			}
			continue
		}
		if down, err := n.call(owner, remote); !down {
			return err
		}
	}
	if id == "" {
		return server.Errf(server.StatusUnavailable, "cluster: no live owner for tree fingerprint %016x", key)
	}
	return server.Errf(server.StatusUnavailable, "cluster: no live owner for shard %s", id)
}

// routeShard is the path of every request for a cluster shard. A shard
// mid-handback waits for it (awaitHandback). A shard served here runs
// local, whether this node is its ring owner or the surrogate successor
// still covering for a restarted owner that has not claimed it back:
// serving locally keeps the surrogate authoritative, and the rejoiner's
// proxied requests from bouncing, until a handback moves ownership.
// Anything else walks the ring, and a walk that ends here promotes this
// node's replica first.
func (n *Node) routeShard(id string, key uint64, local func() error, remote func(*wire.Client) error) error {
	if hb := n.handbackFor(id); hb != nil {
		return n.awaitHandback(hb, id, local, remote)
	}
	if _, served := n.srv.DynShard(id); served {
		return local()
	}
	return n.route(key, id, func() error {
		if err := n.promote(id); err != nil {
			return err
		}
		return local()
	}, remote)
}

// DynCreate implements server.ClusterHooks: hash the tree, create the
// shard at its owner, and ship the initial snapshot to the followers.
func (n *Node) DynCreate(parents []int, epsilon float64, backend string) (res server.DynCreateResult, err error) {
	t, err := tree.FromParents(parents)
	if err != nil {
		return res, server.Err(server.StatusBadRequest, err)
	}
	key := engine.Fingerprint(t)
	err = n.route(key, "", func() (err error) {
		res, err = n.ownerCreate(key, parents, epsilon, backend)
		return err
	}, func(c *wire.Client) error {
		dc, err := c.DynCreate(&wire.DynCreate{Parents: parents, Epsilon: epsilon, Backend: backend})
		if err == nil {
			res = server.DynCreateResult{ID: dc.ShardID, N: dc.N, Backend: dc.Backend}
		}
		return err
	})
	return res, err
}

// ownerCreate creates a shard this node owns and replicates its initial
// snapshot, so a shard is recoverable from the moment it is routable.
func (n *Node) ownerCreate(key uint64, parents []int, epsilon float64, backend string) (server.DynCreateResult, error) {
	id := n.nextShardID(key)
	res, err := n.srv.DynCreateLocal(id, parents, epsilon, backend)
	if err != nil {
		return res, err
	}
	sh := n.shard(id, true)
	sh.pipe.Lock()
	defer sh.pipe.Unlock()
	if de, served := n.srv.DynShard(id); served {
		n.replicate(id, key, de, nil)
	}
	return res, nil
}

// Mutate implements server.ClusterHooks. At the owner the response is
// gated on follower acks: it returns only after the shipped record (or
// a superseding snapshot) is acknowledged by every follower the ring
// currently lists live, up to Replicas of them.
func (n *Node) Mutate(id string, op uint8, arg int) (res server.MutateResult, err error) {
	key, ok := shardKey(id)
	if !ok {
		// Not a cluster id: a node-local shard from single-node
		// operation. Served where it lives, never routed.
		return n.srv.DynMutate(id, op, arg)
	}
	err = n.routeShard(id, key, func() (err error) {
		res, err = n.ownerMutate(id, key, op, arg)
		return err
	}, func(c *wire.Client) error {
		m, err := c.Mutate(&wire.Mutate{ShardID: id, Op: op, Arg: arg})
		if err == nil {
			res = server.MutateResult{Vertex: m.Vertex, Moved: m.Moved, Epoch: m.Epoch, N: m.N}
		}
		return err
	})
	return res, err
}

// ownerMutate applies one mutation locally and ships it. The per-shard
// cluster lock is held across apply and ship, so records reach each
// follower in epoch order and the ack gate covers exactly this record.
// It is also the handback fence: a grant releases the shard under this
// same lock, so the served re-check below refuses any mutation that
// routed here before the fence but acquired the lock after it — no
// apply ever lands past the fence epoch stamped into the grant.
func (n *Node) ownerMutate(id string, key uint64, op uint8, arg int) (server.MutateResult, error) {
	sh := n.shard(id, true)
	sh.pipe.Lock()
	defer sh.pipe.Unlock()
	de, served := n.srv.DynShard(id)
	if !served {
		return server.MutateResult{}, server.Errf(server.StatusUnavailable,
			"cluster: shard %s ownership was handed back mid-request", id)
	}
	res, err := n.srv.DynMutate(id, op, arg)
	if err != nil {
		return res, err
	}
	result := res.Vertex
	if op == wire.OpDelete {
		result = res.Moved
	}
	n.replicate(id, key, de, []persist.Record{{
		Type:   persist.RecordType(op), // the wire ops are the WAL's mutation types
		Epoch:  res.Epoch,
		Arg:    arg,
		Result: result,
	}})
	return res, nil
}

// replicate ships recs (or, with nil recs, a snapshot of the new shard
// de) to up to Replicas live followers, walking the ring past failures.
// It returns once every shipped follower acked — the mutation response
// gate. Fewer than Replicas acks means the live cluster is smaller than
// Replicas+1; the effective guarantee is always min(Replicas, live-1)
// copies beyond the owner.
func (n *Node) replicate(id string, key uint64, de *engine.DynEngine, recs []persist.Record) {
	need := n.cfg.Replicas
	if need <= 0 {
		return
	}
	var snap []byte
	if recs == nil {
		_, _, snap = catchUp(de, 0) // a new shard's followers hold no copy
	}
	acked := 0
	for _, cand := range n.ring.Successors(key, len(n.ring.nodes), n.alive) {
		if acked >= need {
			break
		}
		if cand == n.cfg.Self || n.conflicted(id, cand) {
			// Conflicted pairs are terminal until a handback or liveness
			// transition clears them; re-shipping would refuse forever.
			continue
		}
		var err error
		if snap != nil {
			err = n.shipSnapshot(cand, id, snap)
		} else {
			err = n.shipRecords(cand, id, de, recs)
		}
		if err == nil {
			acked++
		}
	}
}

// catchUp returns what brings a copy of de at cursor to de's epoch, the
// fence: nothing when the copy is there, the WAL records after cursor
// when 0 < cursor < fence and de's log still holds every record up to
// the fence, and otherwise a snapshot of de's state. Cursor 0 names a
// peer without a copy, which always gets the snapshot. Every catch-up
// in the tier — the owner's resync of a follower and both handback
// grants — takes its payload from here; the caller holds whatever keeps
// de from mutating meanwhile.
func catchUp(de *engine.DynEngine, cursor uint64) (fence uint64, recs []persist.Record, snap []byte) {
	fence = de.Epoch()
	if cursor > 0 && cursor <= fence {
		if cursor == fence {
			return fence, nil, nil
		}
		if log := de.Journal(); log != nil {
			// RecordsAfter returns consecutive epochs from cursor+1, so a
			// tail ending at the fence is complete.
			if recs, err := log.RecordsAfter(cursor); err == nil && len(recs) > 0 && recs[len(recs)-1].Epoch == fence {
				return fence, recs, nil
			}
		}
	}
	st := de.State()
	return st.Epoch, nil, persist.EncodeDyn(st)
}

// shipRecords ships a mutation's records to one follower. A follower
// that does not ack them is caught up from the cursor it reported: the
// WAL tail it misses, straight out of the owner's shard log, or a full
// snapshot. A tail that still does not converge gets the snapshot. A
// refused snapshot is terminal (see shipSnapshot); a refused record ship
// still gets the one snapshot attempt first, because refusal is also how
// a follower reports a diverged replica it just discarded — the case a
// rebuild genuinely fixes.
func (n *Node) shipRecords(addr, id string, de *engine.DynEngine, recs []persist.Record) error {
	for resync := false; ; resync = true {
		var ack *wire.RepAck
		if _, err := n.call(addr, func(c *wire.Client) (err error) {
			ack, err = c.ShipRecords(&wire.RepRecords{ShardID: id, Recs: recs})
			return err
		}); err != nil || ack.Code == wire.AckOK {
			return err
		}
		cursor := ack.Cursor
		if resync {
			cursor = 0 // the tail did not converge either: rebuild
		}
		var snap []byte
		if _, recs, snap = catchUp(de, cursor); snap != nil {
			return n.shipSnapshot(addr, id, snap)
		}
	}
}

// shipSnapshot ships a snapshot of shard id to one follower. A refusal
// here is terminal for the (shard, follower) pair: the snapshot is the
// replication ladder's last rung, and the canonical refusal — the
// follower serves the shard itself (conflicting ownership views) —
// cannot resolve by shipping the same thing again. The pair is recorded
// as a conflict (surfaced in /v1/cluster/status) and skipped by the
// ship loop until a handback or a liveness transition of the follower
// clears it.
func (n *Node) shipSnapshot(addr, id string, snap []byte) error {
	var ack *wire.RepAck
	if _, err := n.call(addr, func(c *wire.Client) (err error) {
		ack, err = c.ShipSnapshot(&wire.RepSnapshot{ShardID: id, Blob: snap})
		return err
	}); err != nil {
		return err
	}
	if ack.Code != wire.AckOK {
		n.markConflict(id, addr, ack.Msg)
		return fmt.Errorf("cluster: follower %s refused the snapshot of %s: %s", addr, id, ack.Msg)
	}
	return nil
}

// ShardQuery implements server.ClusterHooks. A nil result with a nil
// error hands the query back to the server's local path — the shard is
// (possibly just promoted to be) served here, or is a node-local
// non-cluster id.
func (n *Node) ShardQuery(q *wire.Query) (res *wire.Result, err error) {
	key, ok := shardKey(q.ShardID)
	if !ok {
		return nil, nil
	}
	err = n.routeShard(q.ShardID, key, func() error { return nil }, func(c *wire.Client) (err error) {
		// Forward a shallow copy: Do assigns the copy an id on the peer
		// connection, and q keeps the one its caller answers with.
		fq := *q
		res, err = c.Do(&fq)
		return err
	})
	return res, err
}

// promote makes an owned-by-ring shard locally served: a no-op when it
// already is, otherwise the failover step — the replica this node was
// following is adopted into the serving table, its WAL with it, at
// exactly its apply cursor. Requests for a shard this node neither
// serves nor follows fail NotFound (the id may be stale, or the shard
// lost more nodes than it had replicas).
func (n *Node) promote(id string) error {
	if _, ok := n.srv.DynShard(id); ok {
		return nil
	}
	sh := n.shard(id, false)
	if sh == nil {
		return server.Errf(server.StatusNotFound, "unknown shard_id %s", id)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.rep == nil {
		return server.Errf(server.StatusNotFound, "unknown shard_id %s", id)
	}
	if err := n.srv.AdoptDynShard(id, sh.rep); err != nil {
		if _, ok := n.srv.DynShard(id); ok {
			return nil // lost a promotion race; the shard is served
		}
		return err
	}
	// The engine, its WAL with it, lives on in the serving table.
	sh.rep, sh.followed = nil, false
	return nil
}
