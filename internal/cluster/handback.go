package cluster

// Rejoin reconciliation: the automated ownership handback for a
// restarted owner. A node that boots and finds durable state for shards
// the ring says it owns must assume the cluster moved on while it was
// away — a successor may have promoted its replica and absorbed acked
// mutations the rejoiner never saw. Serving the local copy immediately
// would fork history, so instead each such shard enters handback:
//
//  1. The rejoiner demotes its recovered copy from serving to a
//     followed replica and registers the shard as pending. Requests
//     proxy to the serving successor (or wait briefly) — the stale
//     copy answers nothing.
//  2. A worker probes the ring successors for the shard and claims it
//     from whichever node serves it (falling back to the furthest-ahead
//     replica): the claim carries the rejoiner's cursor and recent WAL
//     tail.
//  3. The successor, under the shard's pipeline lock (so no mutation is
//     in flight — the Quiesce barrier), stamps the fence epoch, diffs
//     the offered history against its own log, releases the shard from
//     serving, and answers with whatever brings the rejoiner to the
//     fence (catchUp): a record tail, a full snapshot, or nothing. A
//     follower whose replica is at or ahead of the claim answers from
//     it the same way when no node serves the shard. From that
//     instant the successor refuses to apply mutations for the shard
//     (ownerMutate re-checks the serving table under the lock); its
//     demoted copy lives on as the shard's ring-follower replica, so
//     the granted state stays replicated throughout.
//  4. The rejoiner applies the grant, verifies its cursor reached the
//     fence, and only then starts serving. At no instant do two nodes
//     accept writes for the shard, and no acked mutation is lost in
//     either direction.
//
// While the rejoiner waits, the successor keeps serving as a surrogate
// (route.go serves any locally-served shard regardless of the ring
// walk) and its replication ladder ships every new mutation to the
// rejoiner's demoted replica — so by claim time the diff is usually
// empty and the handback is a cursor handshake.

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"spatialtree/internal/engine"
	"spatialtree/internal/persist"
	"spatialtree/internal/server"
	"spatialtree/internal/wire"
)

// handbackWait bounds how long a request for a shard mid-handback waits
// for the handback to complete before reporting unavailable.
const handbackWait = 3 * time.Second

// handbackRetry is the worker's initial backoff between handback
// rounds; it doubles up to handbackRetryMax while no round progresses.
const (
	handbackRetry    = 50 * time.Millisecond
	handbackRetryMax = 2 * time.Second
)

// handbackClaimWindow caps how many WAL records a claim ships for the
// successor's shared-prefix check; older overlap is trusted to the
// apply-time divergence detection instead of re-verified.
const handbackClaimWindow = 256

// handback tracks one shard this node owns by ring but is still
// reconciling after a restart.
type handback struct {
	key uint64

	mu   sync.Mutex //spatialvet:lockclass routing
	succ string     // serving successor to proxy to pre-claim ("" = none known)

	done chan struct{} // closed when the shard enters the serving table
}

func (hb *handback) successor() string {
	hb.mu.Lock()
	defer hb.mu.Unlock()
	return hb.succ
}

func (hb *handback) setSuccessor(addr string) {
	hb.mu.Lock()
	hb.succ = addr
	hb.mu.Unlock()
}

// handbackFor returns the pending handback for id, or nil.
func (n *Node) handbackFor(id string) *handback {
	n.mu.Lock()
	defer n.mu.Unlock()
	if sh := n.shards[id]; sh != nil {
		return sh.hb
	}
	return nil
}

// detectRejoins finds served shards whose ring owner is this node —
// after a restart that is exactly the set a successor may have taken
// over — and moves each from serving into a pending handback, reporting
// whether it found any. Runs at New, single-threaded, before the node is
// installed as the server's cluster hooks.
func (n *Node) detectRejoins() bool {
	pending := false
	for _, id := range n.srv.DynShardIDs() {
		key, ok := shardKey(id)
		if !ok {
			continue // node-local id: never replicated, nothing to reconcile
		}
		if owner, ok := n.ring.Owner(key, nil); !ok || owner != n.cfg.Self {
			continue
		}
		de, ok := n.srv.ReleaseDynShard(id)
		if !ok {
			continue
		}
		sh := n.shard(id, true)
		sh.mu.Lock()
		if sh.rep != nil && sh.rep.Epoch() >= de.Epoch() {
			// The replica store also holds this shard — an earlier run of
			// this node followed it — and is at least as far along: keep
			// that copy and drop the stale server-store one.
			_ = de.Journal().Drop()
		} else {
			// The demoted engine keeps journaling into its server-store
			// log; promote re-adopts it once the handback completes. A
			// failed removal of the staler replica-store copy surfaces when
			// a snapshot next recreates it.
			_ = sh.follow(de)
		}
		sh.mu.Unlock()
		sh.hb = &handback{key: key, done: make(chan struct{})}
		pending = true
	}
	return pending
}

// runHandbacks drives every pending handback to completion, retrying
// with backoff until each shard is adopted into the serving table. One
// goroutine covers all shards: handback is boot-time reconciliation,
// not a hot path, and serializing keeps the claim ordering trivial.
func (n *Node) runHandbacks() {
	defer n.wg.Done()
	backoff := handbackRetry
	for {
		var ids []string
		n.mu.Lock()
		for id, sh := range n.shards {
			if sh.hb != nil {
				ids = append(ids, id)
			}
		}
		n.mu.Unlock()
		if len(ids) == 0 {
			return
		}
		sort.Strings(ids)
		progress := false
		remaining := 0
		for _, id := range ids {
			done, err := n.handbackShard(id)
			if done {
				progress = true
				continue
			}
			remaining++
			if err == nil {
				progress = true
			}
		}
		if remaining == 0 {
			return
		}
		if progress {
			backoff = handbackRetry
		} else if backoff < handbackRetryMax {
			backoff *= 2
		}
		select {
		case <-n.stop:
			return
		case <-time.After(backoff):
		}
	}
}

// handbackShard runs one offer round for id: probe the successors,
// claim the shard from the authoritative one, apply the granted diff,
// and promote once the cursor reaches the fence. done reports the shard
// is serving locally; err == nil without done means a clean retriable
// round (the successor asked us to back off).
func (n *Node) handbackShard(id string) (done bool, err error) {
	hb := n.handbackFor(id)
	if hb == nil {
		return true, nil
	}
	// Probe every other live member. The claim must go to the node that
	// actually serves the shard — or, when none does, to the
	// furthest-ahead replica: claiming from a lagging follower while
	// another node serves would fork history exactly the way this
	// protocol exists to prevent.
	var (
		best      string
		bestFence uint64
		serving   bool
		reached   bool
	)
	for _, cand := range n.ring.Successors(hb.key, len(n.ring.nodes), n.alive) {
		if cand == n.cfg.Self {
			continue
		}
		g, err := n.offer(cand, &wire.HandbackOffer{
			ShardID: id,
			Phase:   wire.HandbackProbe,
			Cursor:  n.handbackCursor(id),
		})
		if err != nil {
			continue
		}
		reached = true
		switch g.Mode {
		case wire.GrantServing:
			if !serving || g.Fence > bestFence {
				best, bestFence, serving = cand, g.Fence, true
			}
		case wire.GrantOwn:
			if !serving && (best == "" || g.Fence > bestFence) {
				best, bestFence = cand, g.Fence
			}
		}
	}
	if len(n.peers) == 0 {
		// Single-member ring: no successor can have moved on.
		return n.adoptHandback(id, hb)
	}
	if !reached {
		return false, fmt.Errorf("cluster: no reachable successor for %s", id)
	}
	if best == "" {
		return false, nil // every successor asked for a retry
	}
	if serving {
		// Route requests to the serving successor while the claim is
		// prepared — but clear it before the claim goes out: from the
		// successor's fence onward a proxied request would bounce back
		// here, and parking on hb.done is the loop-free way to wait.
		hb.setSuccessor(best)
	}
	cursor, recs := n.handbackClaimState(id)
	hb.setSuccessor("")
	g, err := n.offer(best, &wire.HandbackOffer{
		ShardID: id,
		Phase:   wire.HandbackClaim,
		Cursor:  cursor,
		Recs:    recs,
	})
	if err != nil {
		return false, err
	}
	switch g.Mode {
	case wire.GrantRetry:
		if serving {
			hb.setSuccessor(best) // not fenced yet; keep proxying
		}
		return false, nil
	case wire.GrantOwn, wire.GrantServing:
		// Nothing newer anywhere (GrantServing cannot answer a claim;
		// treat it as a retry misfire only if the modes ever cross).
		if g.Mode == wire.GrantServing {
			return false, fmt.Errorf("cluster: claim of %s answered with a probe grant", id)
		}
	case wire.GrantTail:
		if len(g.Recs) > 0 {
			if cur, code, msg := n.ApplyRecords(id, g.Recs); code != wire.AckOK {
				return false, fmt.Errorf("cluster: handback tail for %s stopped at cursor %d: %s", id, cur, msg)
			}
		}
	case wire.GrantSnapshot:
		if _, code, msg := n.ApplySnapshot(id, g.Blob); code != wire.AckOK {
			return false, fmt.Errorf("cluster: handback snapshot for %s refused: %s", id, msg)
		}
	}
	if cur := n.handbackCursor(id); cur < g.Fence {
		// The grant did not reach the fence (the successor compacted the
		// tail mid-flight, or our replica was discarded as divergent).
		// Re-offer: the next claim's cursor reflects the discard and the
		// successor answers from its demoted replica, snapshot included.
		return false, fmt.Errorf("cluster: handback of %s stopped at cursor %d below fence %d", id, cur, g.Fence)
	}
	return n.adoptHandback(id, hb)
}

// offer sends one handback offer to addr and returns the grant.
func (n *Node) offer(addr string, o *wire.HandbackOffer) (g *wire.HandbackGrant, err error) {
	_, err = n.call(addr, func(c *wire.Client) (err error) {
		g, err = c.Handback(o)
		return err
	})
	return g, err
}

// adoptHandback promotes the reconciled replica into serving and clears
// the pending state, waking every request parked on the handback.
func (n *Node) adoptHandback(id string, hb *handback) (bool, error) {
	if err := n.promote(id); err != nil {
		return false, err
	}
	n.mu.Lock()
	sh := n.shards[id]
	sh.hb, sh.conflicts = nil, nil // ours again; stale pairings are moot
	n.mu.Unlock()
	close(hb.done)
	return true, nil
}

// handbackCursor is this node's current apply cursor for id: its
// replica's epoch (0 when the replica was discarded or never existed).
func (n *Node) handbackCursor(id string) uint64 {
	sh := n.shard(id, false)
	if sh == nil {
		return 0
	}
	cursor, _ := sh.cursor()
	return cursor
}

// handbackClaimState captures a claim's payload: the cursor plus the
// replica's recent WAL tail, so the successor can verify the shared
// history below the fence record by record instead of trusting the
// cursor alone. Best effort — a claim without records still reconciles,
// through apply-time divergence detection instead.
func (n *Node) handbackClaimState(id string) (uint64, []persist.Record) {
	sh := n.shard(id, false)
	if sh == nil {
		return 0, nil
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.rep == nil {
		return 0, nil
	}
	cursor := sh.rep.Epoch()
	log := sh.rep.Journal()
	if log == nil {
		return cursor, nil
	}
	start := uint64(0)
	if cursor > handbackClaimWindow {
		start = cursor - handbackClaimWindow
	}
	if snapEpoch := log.LastEpoch() - log.RecordsSinceSnapshot(); start < snapEpoch {
		start = snapEpoch // the WAL reaches back no further
	}
	recs, err := log.RecordsAfter(start)
	if err != nil {
		return cursor, nil
	}
	return cursor, recs
}

// Handback implements server.ClusterHooks: the successor half of rejoin
// reconciliation. Probes answer with this node's standing for the shard
// (serving, or a follower at some cursor); claims hand ownership back.
// The grant's ID and ShardID are the transport's to fill.
func (n *Node) Handback(o *wire.HandbackOffer) *wire.HandbackGrant {
	key, ok := shardKey(o.ShardID)
	if !ok {
		return &wire.HandbackGrant{Mode: wire.GrantRetry, Msg: "not a cluster shard id"}
	}
	switch o.Phase {
	case wire.HandbackProbe:
		if de, served := n.srv.DynShard(o.ShardID); served {
			return &wire.HandbackGrant{Mode: wire.GrantServing, Fence: de.Epoch()}
		}
		return &wire.HandbackGrant{Mode: wire.GrantOwn, Fence: n.handbackCursor(o.ShardID)}
	case wire.HandbackClaim:
		return n.grantClaim(o.ShardID, key, o)
	}
	return &wire.HandbackGrant{Mode: wire.GrantRetry, Msg: fmt.Sprintf("unknown handback phase %d", o.Phase)}
}

// grantClaim hands a shard back to its claiming ring owner. For a shard
// this node serves, the fence and release happen under the shard's
// pipeline lock — the same lock every mutate→ship→ack round holds — so
// the fence epoch is a true quiesce barrier: no mutation is in flight
// at it, none can start past it (ownerMutate re-checks the serving
// table under the lock and refuses once the shard is released).
func (n *Node) grantClaim(id string, key uint64, o *wire.HandbackOffer) *wire.HandbackGrant {
	// The claim is direct evidence the ring owner is up. Clear any stale
	// quarantine before the release: a request that finds the shard
	// released must walk the ring to the claimer, not land on this node
	// and promote the copy about to be demoted.
	if owner, ok := n.ring.Owner(key, nil); ok {
		n.markLive(owner)
	}
	sh := n.shard(id, true)
	sh.pipe.Lock()
	de, served := n.srv.DynShard(id)
	if !served {
		sh.pipe.Unlock()
		return grantFromReplica(sh, o)
	}
	g := grant(de, o)
	n.srv.ReleaseDynShard(id)
	sh.pipe.Unlock()
	// Demote outside the pipeline lock (cluster-class locks are acquired
	// holding nothing). The released engine becomes the copy this node
	// follows as the shard's ring follower, superseding any other: the
	// granted state stays replicated even if the rejoiner dies right
	// after this reply, and the rejoiner's own shipping finds a follower
	// already at the fence. The window where the shard is in neither
	// table is safe — only the single claiming owner converses with this
	// node about it.
	sh.mu.Lock()
	_ = sh.follow(de) // a failed removal surfaces when a snapshot next recreates the copy
	sh.mu.Unlock()
	n.mu.Lock()
	sh.conflicts = nil // this node no longer ships the shard
	n.mu.Unlock()
	return g
}

// grantFromReplica answers a claim for a shard this node does not
// serve. A replica at or ahead of the offer holds acked history the
// rejoiner must not lose — typically because this node already released
// the shard on an earlier claim whose grant the rejoiner never finished
// applying — so it grants from the replica, fenced at its cursor. Below
// the offered cursor, the rejoiner's own copy wins.
func grantFromReplica(sh *shard, o *wire.HandbackOffer) *wire.HandbackGrant {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.rep == nil || sh.rep.Epoch() < o.Cursor {
		return &wire.HandbackGrant{Mode: wire.GrantOwn, Fence: o.Cursor}
	}
	return grant(sh.rep, o)
}

// grant answers a claim from de, the copy this node serves or follows,
// fenced at de's epoch: the claimer catches up from its cursor
// (catchUp), except that an offer whose records fork from de's log below
// the fence gets the snapshot.
func grant(de *engine.DynEngine, o *wire.HandbackOffer) *wire.HandbackGrant {
	cursor := o.Cursor
	if handbackDiverged(de.Journal(), de.Epoch(), o) {
		cursor = 0 // catch up as a claimer without a copy: the snapshot
	}
	fence, recs, snap := catchUp(de, cursor)
	if snap != nil {
		return &wire.HandbackGrant{Mode: wire.GrantSnapshot, Fence: fence, Blob: snap}
	}
	return &wire.HandbackGrant{Mode: wire.GrantTail, Fence: fence, Recs: recs}
}

// handbackDiverged compares the offered records against the granting
// copy's log over their epoch overlap (at or below the fence). A
// mismatch — or an overlap the log can no longer produce — means the
// histories forked below the fence and only a snapshot rebuild is safe.
func handbackDiverged(log *persist.ShardLog, fence uint64, o *wire.HandbackOffer) bool {
	if len(o.Recs) == 0 {
		return false // nothing to compare; apply-time verification still guards
	}
	first := o.Recs[0].Epoch
	if first == 0 || first > fence {
		return first == 0
	}
	if log == nil {
		return false
	}
	ours, err := log.RecordsAfter(first - 1)
	if err != nil {
		return true // overlap compacted away: the shared prefix is unverifiable
	}
	byEpoch := make(map[uint64]persist.Record, len(ours))
	for _, r := range ours {
		byEpoch[r.Epoch] = r
	}
	for _, r := range o.Recs {
		if r.Epoch > fence {
			break
		}
		if our, ok := byEpoch[r.Epoch]; !ok || our != r {
			return true
		}
	}
	return false
}

// awaitHandback serves a request for a shard still being reconciled:
// remote runs on the serving successor while one is known, otherwise
// the request parks until the handback completes and then runs local —
// the stale local copy never answers.
func (n *Node) awaitHandback(hb *handback, id string, local func() error, remote func(*wire.Client) error) error {
	if addr := hb.successor(); addr != "" {
		down, err := n.call(addr, remote)
		if err == nil || (!down && server.Classify(err) != server.StatusNotFound) {
			return err
		}
		// Unreachable, or NotFound: the successor released the shard
		// mid-claim. Wait for our own adoption.
	}
	select {
	case <-hb.done:
		return local()
	case <-n.stop:
		return server.Errf(server.StatusUnavailable, "cluster: node shutting down")
	case <-time.After(handbackWait):
		return server.Errf(server.StatusUnavailable,
			"cluster: shard %s is reconciling ownership after a restart (handback in progress)", id)
	}
}
