package cluster

// The routing half of the node: every dyn-shard request lands here via
// server.ClusterHooks and is resolved against the ring. Owner requests
// run the local core and the replication pipeline; non-owner requests
// either proxy to the owner over the binary protocol or return a
// redirect carrying the owner's address (server.Cluster.Redirect).
//
// Each entry point retries across the peer list: a transport failure
// quarantines the peer (markDown) and recomputes the ring walk, so one
// dead owner converges to its successor within a single client call.

import (
	"fmt"

	"spatialtree/internal/engine"
	"spatialtree/internal/server"
	"spatialtree/internal/tree"
	"spatialtree/internal/wire"
)

// DynCreate implements server.ClusterHooks: hash the tree, create the
// shard at its owner, and ship the initial snapshot to the followers.
func (n *Node) DynCreate(parents []int, epsilon float64, backend string) (server.DynCreateResult, error) {
	t, err := tree.FromParents(parents)
	if err != nil {
		return server.DynCreateResult{}, server.Err(server.StatusBadRequest, err)
	}
	key := engine.Fingerprint(t)
	for attempt := 0; attempt <= len(n.peers); attempt++ {
		owner, ok := n.ring.Owner(key, n.alive)
		if !ok {
			break
		}
		if owner == n.cfg.Self {
			return n.ownerCreate(key, parents, epsilon, backend)
		}
		if n.cfg.Redirect {
			return server.DynCreateResult{}, server.RedirectTo(owner)
		}
		c, err := n.client(owner)
		if err != nil {
			continue // client() quarantined the owner; re-walk the ring
		}
		dc, err := c.DynCreate(&wire.DynCreate{Parents: parents, Epsilon: epsilon, Backend: backend})
		if err != nil {
			if serr := fromWireError(err); serr != nil {
				return server.DynCreateResult{}, serr
			}
			n.markDown(owner)
			continue
		}
		return server.DynCreateResult{ID: dc.ShardID, N: dc.N, Backend: dc.Backend}, nil
	}
	return server.DynCreateResult{}, server.Errf(server.StatusUnavailable,
		"cluster: no live owner for tree fingerprint %016x", key)
}

// ownerCreate creates a shard this node owns and replicates its initial
// snapshot, so a shard is recoverable from the moment it is routable.
func (n *Node) ownerCreate(key uint64, parents []int, epsilon float64, backend string) (server.DynCreateResult, error) {
	id := n.nextShardID(key)
	res, err := n.srv.DynCreateLocal(id, parents, epsilon, backend)
	if err != nil {
		return res, err
	}
	sh := n.ownedShardState(id, key)
	sh.mu.Lock()
	n.replicate(id, key, nil)
	sh.mu.Unlock()
	return res, nil
}

// Mutate implements server.ClusterHooks. At the owner the response is
// gated on follower acks: it returns only after the shipped record (or
// a superseding snapshot) is acknowledged by every follower the ring
// currently lists live, up to Replicas of them.
func (n *Node) Mutate(id string, op uint8, arg int) (server.MutateResult, error) {
	key, ok := shardKey(id)
	if !ok {
		// Not a cluster id: a node-local shard from single-node
		// operation. Served where it lives, never routed.
		return n.srv.DynMutate(id, op, arg)
	}
	if hb := n.handbackFor(id); hb != nil {
		// Mid-rejoin: the local copy is not authoritative yet. Proxy to
		// the serving successor or park until the handback completes.
		return n.handbackMutate(hb, id, key, op, arg)
	}
	if _, served := n.srv.DynShard(id); served {
		// Served here — as ring owner, or as the surrogate successor
		// still covering a shard whose restarted ring owner has not
		// claimed it back. Serving locally keeps the surrogate
		// authoritative (and keeps the rejoiner's proxied requests from
		// bouncing) until a handback moves ownership explicitly.
		return n.ownerMutate(id, key, op, arg)
	}
	for attempt := 0; attempt <= len(n.peers); attempt++ {
		owner, ok := n.ring.Owner(key, n.alive)
		if !ok {
			break
		}
		if owner == n.cfg.Self {
			if err := n.promote(id); err != nil {
				return server.MutateResult{}, err
			}
			return n.ownerMutate(id, key, op, arg)
		}
		if n.cfg.Redirect {
			return server.MutateResult{}, server.RedirectTo(owner)
		}
		c, err := n.client(owner)
		if err != nil {
			continue
		}
		m, err := c.Mutate(&wire.Mutate{ShardID: id, Op: op, Arg: arg})
		if err != nil {
			if serr := fromWireError(err); serr != nil {
				return server.MutateResult{}, serr
			}
			n.markDown(owner)
			continue
		}
		return server.MutateResult{Vertex: m.Vertex, Moved: m.Moved, Epoch: m.Epoch, N: m.N}, nil
	}
	return server.MutateResult{}, server.Errf(server.StatusUnavailable,
		"cluster: no live owner for shard %s", id)
}

// ownerMutate applies one mutation locally and ships it. The per-shard
// cluster lock is held across apply and ship, so records reach each
// follower in epoch order and the ack gate covers exactly this record.
// It is also the handback fence: a grant releases the shard under this
// same lock, so the served re-check below refuses any mutation that
// routed here before the fence but acquired the lock after it — no
// apply ever lands past the fence epoch stamped into the grant.
func (n *Node) ownerMutate(id string, key uint64, op uint8, arg int) (server.MutateResult, error) {
	sh := n.ownedShardState(id, key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, served := n.srv.DynShard(id); !served {
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
	n.replicate(id, key, []wire.RepRecord{{
		Type:   op,
		Epoch:  res.Epoch,
		Arg:    int64(arg),
		Result: int64(result),
	}})
	return res, nil
}

// replicate ships recs (or, with nil recs, the current snapshot) to up
// to Replicas live followers, walking the ring past failures. It
// returns once every shipped follower acked — the mutation response
// gate. Fewer than Replicas acks means the live cluster is smaller than
// Replicas+1; the effective guarantee is always min(Replicas, live-1)
// copies beyond the owner.
func (n *Node) replicate(id string, key uint64, recs []wire.RepRecord) int {
	need := n.cfg.Replicas
	if need <= 0 {
		return 0
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
		if len(recs) == 0 {
			err = n.shipSnapshot(cand, id)
		} else {
			err = n.shipRecords(cand, id, recs)
		}
		if err != nil {
			continue
		}
		acked++
	}
	return acked
}

// shipRecords ships WAL records to one follower. A follower that is
// merely behind (AckNeedSync with a cursor) is first offered the WAL
// tail it is missing — the cheap resync, straight out of the owner's
// shard log. A follower with no usable replica (cursor 0, AckRefused,
// or a tail the log already compacted away) is rebuilt with a full
// snapshot, captured now so it covers every record being shipped. A
// refused snapshot is terminal (see shipSnapshot); a refused record
// ship still gets the one snapshot attempt first, because refusal is
// also how a follower reports a diverged replica it just discarded —
// the case a rebuild genuinely fixes.
func (n *Node) shipRecords(addr, id string, recs []wire.RepRecord) error {
	c, err := n.client(addr)
	if err != nil {
		return err
	}
	ack, err := c.ShipRecords(&wire.RepRecords{ShardID: id, Recs: recs})
	if err != nil {
		if serr := fromWireError(err); serr != nil {
			return serr
		}
		n.markDown(addr)
		return err
	}
	if ack.Code == wire.AckOK {
		return nil
	}
	if ack.Code == wire.AckNeedSync && ack.Cursor > 0 {
		if err := n.shipTail(addr, id, ack.Cursor); err == nil {
			return nil
		}
	}
	return n.shipSnapshot(addr, id)
}

// shipTail ships the owner's WAL records after the follower's cursor —
// one shot, no retry: any failure (records compacted away, no local
// log, still out of sync) falls back to the snapshot path.
func (n *Node) shipTail(addr, id string, cursor uint64) error {
	log, ok := n.srv.DynShardLog(id)
	if !ok {
		return fmt.Errorf("cluster: no local log for %s", id)
	}
	recs, err := log.RecordsAfter(cursor)
	if err != nil || len(recs) == 0 {
		if err == nil {
			err = fmt.Errorf("cluster: no records after epoch %d for %s", cursor, id)
		}
		return err
	}
	wrecs := wireRecords(recs)
	c, err := n.client(addr)
	if err != nil {
		return err
	}
	ack, err := c.ShipRecords(&wire.RepRecords{ShardID: id, Recs: wrecs})
	if err != nil {
		if serr := fromWireError(err); serr != nil {
			return serr
		}
		n.markDown(addr)
		return err
	}
	if ack.Code != wire.AckOK {
		return fmt.Errorf("cluster: tail resync of %s at %s did not converge: %s", id, addr, ack.Msg)
	}
	return nil
}

// shipSnapshot ships the shard's current snapshot to one follower. A
// refusal here is terminal for the (shard, follower) pair: the snapshot
// is the replication ladder's last rung, and the canonical refusal —
// the follower serves the shard itself (conflicting ownership views) —
// cannot resolve by shipping the same thing again. The pair is recorded
// as a conflict (surfaced in /v1/cluster/status) and skipped by the
// ship loop until a handback or a liveness transition of the follower
// clears it; previously this was treated as transient and re-shipped on
// every mutation, forever.
func (n *Node) shipSnapshot(addr, id string) error {
	blob, epoch, err := n.srv.SnapshotDyn(id)
	if err != nil {
		return err
	}
	c, err := n.client(addr)
	if err != nil {
		return err
	}
	ack, err := c.ShipSnapshot(&wire.RepSnapshot{ShardID: id, Blob: blob})
	if err != nil {
		if serr := fromWireError(err); serr != nil {
			return serr
		}
		n.markDown(addr)
		return err
	}
	if ack.Code != wire.AckOK {
		n.markConflict(id, addr, ack.Msg)
		return fmt.Errorf("cluster: follower %s refused snapshot of %s at epoch %d: %s",
			addr, id, epoch, ack.Msg)
	}
	return nil
}

// ShardQuery implements server.ClusterHooks. A nil result with a nil
// error hands the query back to the server's local path — the shard is
// (possibly just promoted to be) served here, or is a node-local
// non-cluster id.
func (n *Node) ShardQuery(q *wire.Query) (*wire.Result, error) {
	id := q.ShardID
	key, ok := shardKey(id)
	if !ok {
		return nil, nil
	}
	if hb := n.handbackFor(id); hb != nil {
		return n.handbackQuery(hb, q)
	}
	if _, served := n.srv.DynShard(id); served {
		return nil, nil // served here (owner or surrogate): local path
	}
	for attempt := 0; attempt <= len(n.peers); attempt++ {
		owner, ok := n.ring.Owner(key, n.alive)
		if !ok {
			break
		}
		if owner == n.cfg.Self {
			return nil, n.promote(id)
		}
		if n.cfg.Redirect {
			return nil, server.RedirectTo(owner)
		}
		c, err := n.client(owner)
		if err != nil {
			continue
		}
		res, err := forwardQuery(c, q)
		if err != nil {
			if serr := fromWireError(err); serr != nil {
				return nil, serr
			}
			n.markDown(owner)
			continue
		}
		return res, nil
	}
	return nil, server.Errf(server.StatusUnavailable,
		"cluster: no live owner for shard %s", id)
}

// forwardQuery sends q to a peer as a shallow copy: Do assigns the copy
// an id on the peer connection, and q keeps the one its caller answers
// with.
func forwardQuery(c *wire.Client, q *wire.Query) (*wire.Result, error) {
	fq := *q
	return c.Do(&fq)
}

// promote makes an owned-by-ring shard locally served: a no-op when it
// already is, otherwise the failover step — the replica this node was
// following is adopted into the serving table, journal and all, at
// exactly its apply cursor. Requests for a shard this node neither
// serves nor follows fail NotFound (the id may be stale, or the shard
// lost more nodes than it had replicas).
func (n *Node) promote(id string) error {
	if _, ok := n.srv.DynShard(id); ok {
		return nil
	}
	n.mu.Lock()
	rep := n.reps[id]
	n.mu.Unlock()
	if rep == nil {
		return server.Errf(server.StatusNotFound, "unknown shard_id %s", id)
	}
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if rep.de == nil {
		return server.Errf(server.StatusNotFound, "unknown shard_id %s", id)
	}
	if err := n.srv.AdoptDynShard(id, rep.de, rep.log); err != nil {
		if _, ok := n.srv.DynShard(id); ok {
			return nil // lost a promotion race; the shard is served
		}
		return err
	}
	rep.de, rep.log = nil, nil // the engine and log live on in the serving table
	n.mu.Lock()
	delete(n.reps, id)
	n.mu.Unlock()
	return nil
}
