package cluster

// Rejoin-handback tests: the deterministic owner-restart path, the
// chaos variant (restart mid-churn with the epoch-arithmetic oracle),
// and regression tests for the liveness half-open probe, the dial/close
// race, and terminal conflict classification.

import (
	"net"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spatialtree/internal/persist"
	"spatialtree/internal/server"
	"spatialtree/internal/wire"
)

// restartMember kills tn and boots a fresh member on the same address
// and directories — the crash-restart of a real deployment.
func restartMember(t *testing.T, nodes []*testNode, tn *testNode, replicas int) *testNode {
	t.Helper()
	idx := -1
	addrs := make([]string, len(nodes))
	for i, m := range nodes {
		addrs[i] = m.addr
		if m == tn {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatalf("restartMember: %s not in cluster", tn.addr)
	}
	tn.kill()
	ln, err := net.Listen("tcp", tn.addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", tn.addr, err)
	}
	fresh := startMemberStore(t, ln, addrs, idx, tn.dir, replicas, false, -1, tn.storeOpts)
	nodes[idx] = fresh
	return fresh
}

// waitHandback blocks until tn serves id with no pending handback, or
// fails the test.
func waitHandback(t *testing.T, tn *testNode, id string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		_, served := tn.srv.DynShard(id)
		if served && len(tn.node.Status().Handbacks) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("handback of %s at %s did not complete (served=%v, pending=%v)",
				id, tn.addr, served, tn.node.Status().Handbacks)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// mutateRetry mutates through tn, riding out the transient
// unavailability of routing convergence.
func mutateRetry(t *testing.T, tn *testNode, id string) server.MutateResult {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		r, err := tn.node.Mutate(id, wire.OpInsert, 0)
		if err == nil {
			return r
		}
		if time.Now().After(deadline) {
			t.Fatalf("mutate %s via %s: %v", id, tn.addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRejoinHandbackQuiescent is the deterministic rejoin story: the
// owner dies, the successor promotes and absorbs more acked mutations,
// the owner restarts — and gets its shard back automatically, at the
// successor's cursor, with the successor released. No operator steps.
func TestRejoinHandbackQuiescent(t *testing.T) {
	nodes := startCluster(t, 3, 2)
	res, err := nodes[0].node.DynCreate(chainParents(8), 0, "")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	id, n0 := res.ID, res.N
	walk := ownerAndSuccessors(t, nodes[0], id)
	owner, succ := byAddr(t, nodes, walk[0]), byAddr(t, nodes, walk[1])

	const preKill, postKill = 5, 5
	var last server.MutateResult
	for i := 0; i < preKill; i++ {
		last = mutateRetry(t, owner, id)
	}
	owner.kill()
	// The successor promotes its replica and absorbs further history the
	// dead owner never saw.
	for i := 0; i < postKill; i++ {
		last = mutateRetry(t, succ, id)
	}
	if want := uint64(preKill + postKill); last.Epoch != want {
		t.Fatalf("pre-rejoin epoch %d, want %d", last.Epoch, want)
	}

	rejoined := restartMember(t, nodes, owner, 2)
	waitHandback(t, rejoined, id)

	// Ownership moved back whole: the rejoiner serves at the fence (the
	// successor's full acked history), and the successor released.
	de, ok := rejoined.srv.DynShard(id)
	if !ok {
		t.Fatalf("rejoined owner does not serve %s", id)
	}
	if got := de.Epoch(); got != last.Epoch {
		t.Fatalf("rejoined shard at epoch %d, want %d — acked history lost in handback", got, last.Epoch)
	}
	if _, also := succ.srv.DynShard(id); also {
		t.Fatalf("successor %s still serves %s after handback", succ.addr, id)
	}
	// Writes flow through every member again, epochs gapless, and the
	// leaf count accounts for exactly every applied insert.
	for _, tn := range nodes {
		r := mutateRetry(t, tn, id)
		if r.Epoch != last.Epoch+1 {
			t.Fatalf("post-handback epoch via %s: %d, want %d", tn.addr, r.Epoch, last.Epoch+1)
		}
		last = r
	}
	if want := n0 + int(last.Epoch); last.N != want {
		t.Fatalf("post-handback leaf count %d, want %d", last.N, want)
	}
}

// TestSupersededCopyNeverResurrects: a handback granted as a snapshot
// replaces the rejoiner's demoted server-store copy with a replica-store
// copy, and no later restart brings a superseded copy back. Each node
// drops a copy through the engine that holds it, so this holds only
// while every durable copy a node keeps is attached to exactly one of
// its engines.
func TestSupersededCopyNeverResurrects(t *testing.T) {
	const compactAfter = 4
	nodes := startClusterStore(t, 3, 2, false, -1, persist.Options{CompactAfter: compactAfter})
	res, err := nodes[0].node.DynCreate(chainParents(8), 0, "")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	id := res.ID
	walk := ownerAndSuccessors(t, nodes[0], id)
	owner, succ := byAddr(t, nodes, walk[0]), byAddr(t, nodes, walk[1])
	var last server.MutateResult
	for i := 0; i < 2; i++ {
		last = mutateRetry(t, owner, id)
	}
	owner.kill()
	// More than compactAfter records past the dead owner's cursor: the
	// successor's WAL no longer reaches back to it, so the handback
	// grant is a snapshot.
	for i := 0; i < 2*compactAfter+1; i++ {
		last = mutateRetry(t, succ, id)
	}
	// Every mutation inserted a leaf under the root.
	parents := chainParents(8)
	for len(parents) < res.N+int(last.Epoch) {
		parents = append(parents, 0)
	}

	rejoined := restartMember(t, nodes, owner, 2)
	waitHandback(t, rejoined, id)
	onlyReplicaCopy := func(tn *testNode) {
		t.Helper()
		if _, err := os.Stat(filepath.Join(tn.dir, "data", "dyn", id)); !os.IsNotExist(err) {
			t.Fatalf("%s keeps the superseded server-store copy of %s (stat: %v)", tn.addr, id, err)
		}
		if _, err := os.Stat(filepath.Join(tn.dir, "replicas", "dyn", id)); err != nil {
			t.Fatalf("%s has no replica-store copy of %s: %v", tn.addr, id, err)
		}
	}
	onlyReplicaCopy(rejoined)

	rejoined = restartMember(t, nodes, rejoined, 2)
	succ = restartMember(t, nodes, succ, 2)
	onlyReplicaCopy(rejoined)
	// A query through the rejoiner promotes its one copy.
	queryShard(t, rejoined, id, len(parents))
	de, ok := rejoined.srv.DynShard(id)
	if !ok {
		t.Fatalf("rejoiner %s does not serve %s", rejoined.addr, id)
	}
	tr, err := de.Tree()
	if err != nil {
		t.Fatal(err)
	}
	if de.Epoch() != last.Epoch || !reflect.DeepEqual(tr.Parents(), parents) {
		t.Fatalf("rejoiner serves epoch %d with parents %v, want the fence epoch %d with %v", de.Epoch(), tr.Parents(), last.Epoch, parents)
	}
	if _, served := succ.srv.DynShard(id); served {
		t.Fatalf("successor %s serves %s after restart", succ.addr, id)
	}
}

// TestClusterRejoinHandback is the rejoin chaos test: the owner dies
// mid-churn, the successor promotes and keeps acking, the owner
// restarts mid-churn — and the handback must converge while writes keep
// flowing. Oracles, all epoch arithmetic: acked epochs are unique
// (two nodes accepting writes for the shard at once would ack the same
// epoch twice), the final copy contains every acked epoch, and the
// leaf count matches the epoch exactly.
func TestClusterRejoinHandback(t *testing.T) {
	nodes := startCluster(t, 3, 2)
	res, err := nodes[0].node.DynCreate(chainParents(8), 0, "")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	id, n0 := res.ID, res.N
	walk := ownerAndSuccessors(t, nodes[0], id)
	owner := byAddr(t, nodes, walk[0])
	var survivors []*testNode
	for _, tn := range nodes {
		if tn != owner {
			survivors = append(survivors, tn)
		}
	}

	var mu sync.Mutex
	var ackedEpochs []uint64
	killed := make(chan struct{})
	restart := make(chan struct{})
	done := make(chan struct{})
	// Both churn goroutines can reach the total, and the timeout below
	// can race them: done closes exactly once.
	var doneOnce sync.Once
	finish := func() { doneOnce.Do(func() { close(done) }) }
	var churn sync.WaitGroup
	const preKill, midKill, postRejoin = 15, 25, 40
	total := preKill + midKill + postRejoin

	for _, tn := range survivors {
		churn.Add(1)
		go func(tn *testNode) {
			defer churn.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				r, err := tn.node.Mutate(id, wire.OpInsert, 0)
				if err != nil {
					// Unavailability while routing or the handback
					// converges is the allowed failure mode; an unacked
					// mutation carries no guarantee either way.
					time.Sleep(5 * time.Millisecond)
					continue
				}
				mu.Lock()
				ackedEpochs = append(ackedEpochs, r.Epoch)
				n := len(ackedEpochs)
				mu.Unlock()
				switch n {
				case preKill:
					close(killed)
				case preKill + midKill:
					close(restart)
				}
				if n >= total {
					finish()
					return
				}
			}
		}(tn)
	}

	<-killed
	owner.kill() // chaos event one: the owner dies mid-churn

	<-restart // the successor has absorbed acked history meanwhile
	rejoined := restartMember(t, nodes, owner, 2)

	select {
	case <-done:
	case <-time.After(60 * time.Second):
		finish()
		churn.Wait()
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("churn stalled: %d/%d mutations acked", len(ackedEpochs), total)
	}
	churn.Wait()

	// Single writer at every instant: each acked epoch was issued by
	// exactly one serving copy. A handback that let the rejoiner and the
	// successor serve concurrently would ack one epoch from both.
	seen := make(map[uint64]bool, len(ackedEpochs))
	var maxAcked uint64
	for _, e := range ackedEpochs {
		if seen[e] {
			t.Fatalf("epoch %d acked twice — two nodes accepted writes for %s concurrently", e, id)
		}
		seen[e] = true
		if e > maxAcked {
			maxAcked = e
		}
	}

	// The handback converges with churn still running, and ownership
	// lands back at the ring owner — with everyone else released.
	waitHandback(t, rejoined, id)
	de, ok := rejoined.srv.DynShard(id)
	if !ok {
		t.Fatalf("rejoined owner does not serve %s", id)
	}
	for _, tn := range survivors {
		if _, also := tn.srv.DynShard(id); also {
			t.Fatalf("%s still serves %s after the owner rejoined", tn.addr, id)
		}
	}

	// Zero acked loss in either direction: epochs are sequential per
	// shard, so holding epoch maxAcked means holding every acked epoch —
	// those absorbed by the successor while the owner was down included.
	if got := de.Epoch(); got < maxAcked {
		t.Fatalf("rejoined shard at epoch %d, but epoch %d was acked — acked mutations lost", got, maxAcked)
	}
	if got, want := de.N(), n0+int(de.Epoch()); got != want {
		t.Fatalf("rejoined shard has %d leaves, want %d (n0 %d + %d applied mutations)", got, want, n0, de.Epoch())
	}

	// The cluster still takes writes through every member, including the
	// rejoined owner, and the followers' cursors agree with the owner's
	// epoch once the in-flight churn has fully drained (R=2 acks are
	// synchronous, so the last ack implies both followers applied).
	for _, tn := range nodes {
		r := mutateRetry(t, tn, id)
		if r.Epoch <= maxAcked {
			t.Fatalf("post-rejoin epoch %d did not advance past %d", r.Epoch, maxAcked)
		}
		maxAcked = r.Epoch
	}
	for _, tn := range survivors {
		if cur := tn.node.Status().ReplicaCursors[id]; cur != maxAcked {
			t.Fatalf("follower %s cursor %d, want %d — cursors disagree after rejoin", tn.addr, cur, maxAcked)
		}
	}
}

// TestAliveHalfOpenProbe pins the liveness re-admission protocol: when
// a quarantine expires, exactly one caller per DownFor window gets the
// peer reported live (the half-open probe); the rest keep routing
// around. Previously every caller flipped live at once — a thundering
// herd of dials against a peer that had just failed.
func TestAliveHalfOpenProbe(t *testing.T) {
	nodes := startCluster(t, 2, 1)
	n, addr := nodes[0].node, nodes[1].addr

	n.markDown(addr)
	if n.alive(addr) {
		t.Fatal("peer reported live inside quarantine")
	}
	time.Sleep(150 * time.Millisecond) // DownFor is 100ms in tests

	var admitted int32
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if n.alive(addr) {
				atomic.AddInt32(&admitted, 1)
			}
		}()
	}
	wg.Wait()
	if admitted != 1 {
		t.Fatalf("%d callers admitted past the expired quarantine, want exactly 1 (half-open probe)", admitted)
	}

	// The probe token ages out if its holder never resolves it: the next
	// window admits one more probe, still never a stampede.
	time.Sleep(120 * time.Millisecond)
	if !n.alive(addr) {
		t.Fatal("no probe admitted after the previous token expired")
	}
	if n.alive(addr) {
		t.Fatal("second caller admitted within one probe window")
	}

	// A successful dial resolves the probe: quarantine clears and every
	// caller sees the peer live again.
	if _, err := n.client(addr); err != nil {
		t.Fatalf("probe dial: %v", err)
	}
	for i := 0; i < 3; i++ {
		if !n.alive(addr) {
			t.Fatal("peer not live after successful probe dial")
		}
	}

	// A failed probe re-quarantines (markDown path) and the cycle
	// repeats — again with a single probe per window.
	n.markDown(addr)
	if n.alive(addr) {
		t.Fatal("peer reported live inside re-quarantine")
	}
}

// TestClientDialCloseRace hammers client/markDown concurrently with a
// node Close and pins the registration re-check: no dial may strand a
// client in a peer after Close, and no registration may erase a fresher
// quarantine (run under -race).
func TestClientDialCloseRace(t *testing.T) {
	nodes := startCluster(t, 2, 1)
	n, addr := nodes[0].node, nodes[1].addr
	p := n.peers[addr]

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, _ = n.client(addr)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			n.markDown(addr)
			time.Sleep(time.Millisecond)
		}
	}()

	time.Sleep(50 * time.Millisecond)
	nodes[0].kill() // Close races the dials still in flight
	close(stop)
	wg.Wait()

	p.mu.Lock()
	stranded, closed := p.c, p.closed
	p.mu.Unlock()
	if !closed {
		t.Fatal("peer not marked closed after node Close")
	}
	if stranded != nil {
		t.Fatalf("a dial registered client %p after Close — stranded open connection", stranded)
	}
	if _, err := n.client(addr); err == nil {
		t.Fatal("client() succeeded after Close")
	}
}

// TestConflictingFollowerTerminal pins the satellite bugfix: a follower
// that refuses applies because it serves the shard itself (conflicting
// ownership views) is classified terminal — recorded in cluster status
// and skipped by the ship loop — instead of being re-shipped a snapshot
// on every mutation forever. A liveness transition of the peer clears
// the classification.
func TestConflictingFollowerTerminal(t *testing.T) {
	nodes := startCluster(t, 3, 1)
	res, err := nodes[0].node.DynCreate(chainParents(5), 0, "")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	id := res.ID
	walk := ownerAndSuccessors(t, nodes[0], id)
	owner, follower := byAddr(t, nodes, walk[0]), byAddr(t, nodes, walk[1])

	if _, err := owner.node.Mutate(id, wire.OpInsert, 0); err != nil {
		t.Fatalf("mutate: %v", err)
	}
	// Force the conflicting ownership view: the follower adopts its
	// replica into serving while the real owner is alive and serving.
	if err := follower.node.promote(id); err != nil {
		t.Fatalf("force-promote at follower: %v", err)
	}

	// The owner's next mutation must still ack (the ring walks past the
	// conflicted follower to the bystander) and the pair must surface as
	// a terminal conflict, not retry forever.
	if _, err := owner.node.Mutate(id, wire.OpInsert, 0); err != nil {
		t.Fatalf("mutate with conflicted follower: %v", err)
	}
	st := owner.node.Status()
	if len(st.Conflicts) != 1 || st.Conflicts[0].Shard != id || st.Conflicts[0].Peer != follower.addr {
		t.Fatalf("conflicts = %+v, want exactly [{%s %s}]", st.Conflicts, id, follower.addr)
	}
	if !owner.node.conflicted(id, follower.addr) {
		t.Fatal("ship loop does not skip the conflicted pair")
	}
	// Still conflicted after more traffic: the classification is sticky,
	// and mutations keep acking without the follower.
	if _, err := owner.node.Mutate(id, wire.OpInsert, 0); err != nil {
		t.Fatalf("mutate: %v", err)
	}
	if got := len(owner.node.Status().Conflicts); got != 1 {
		t.Fatalf("%d conflicts after more traffic, want 1", got)
	}

	// A liveness transition of the follower voids the classification —
	// a restart is exactly what resolves conflicting ownership views.
	owner.node.markDown(follower.addr)
	if got := len(owner.node.Status().Conflicts); got != 0 {
		t.Fatalf("%d conflicts after the peer's liveness transition, want 0", got)
	}
}

// TestHandbackGrantCatchUp drives claims through Node.Handback against
// both grant sources — a follower's replica and the serving owner — and
// checks each grant against the one catch-up rule: a claim at the fence
// gets an empty tail, one behind it with an intact WAL exactly the
// records after its cursor, and a claim without a copy (cursor 0), one
// whose records fork below the fence, or one behind a compacted WAL a
// snapshot at the fence. A claim against the owner releases the shard,
// so every case gets its own shard.
func TestHandbackGrantCatchUp(t *testing.T) {
	const fence = 5
	cases := []struct {
		name    string
		compact bool   // the WAL is compacted past the cursor
		cursor  uint64 // the claimer's apply cursor
		fork    bool   // the claim's records fork from the shard's history
		tail    bool   // want GrantTail with the records after cursor, else GrantSnapshot
	}{
		{name: "copy-less", cursor: 0},
		{name: "forked", cursor: 2, fork: true},
		{name: "at-fence", cursor: fence, tail: true},
		{name: "behind", cursor: 2, tail: true},
		{name: "compacted", compact: true, cursor: 1},
	}
	intact := startCluster(t, 3, 2)
	compacted := startClusterStore(t, 3, 2, false, -1, persist.Options{CompactAfter: 2})
	size := 8
	for _, tc := range cases {
		for _, source := range []string{"replica", "owner"} {
			t.Run(tc.name+"/"+source, func(t *testing.T) {
				nodes := intact
				if tc.compact {
					nodes = compacted
				}
				size++ // a distinct tree per shard
				res, err := nodes[0].node.DynCreate(chainParents(size), 0, "")
				if err != nil {
					t.Fatalf("create: %v", err)
				}
				id := res.ID
				walk := ownerAndSuccessors(t, nodes[0], id)
				owner, granter := byAddr(t, nodes, walk[0]), byAddr(t, nodes, walk[1])
				if source == "owner" {
					granter = owner
				}
				// Every mutation inserts a leaf under the root, so epoch e's
				// record is {insert, e, 0, res.N+e-1}.
				var history []persist.Record
				for e := uint64(1); e <= fence; e++ {
					mutateRetry(t, owner, id)
					history = append(history, persist.Record{Type: persist.RecInsert, Epoch: e, Result: res.N + int(e) - 1})
				}
				offer := &wire.HandbackOffer{ShardID: id, Phase: wire.HandbackClaim, Cursor: tc.cursor}
				if !tc.compact {
					offer.Recs = append([]persist.Record(nil), history[:tc.cursor]...)
				}
				if tc.fork {
					offer.Recs[0].Arg = 1 // epoch 1 inserted under vertex 1 instead
				}

				g := granter.node.Handback(offer)
				if g.Fence != fence {
					t.Fatalf("grant fence %d, want %d", g.Fence, fence)
				}
				if tc.tail {
					if g.Mode != wire.GrantTail || !slices.Equal(g.Recs, history[tc.cursor:]) {
						t.Fatalf("grant mode %d with records %v, want GrantTail with %v", g.Mode, g.Recs, history[tc.cursor:])
					}
				} else {
					if g.Mode != wire.GrantSnapshot {
						t.Fatalf("grant mode %d with %d records, want GrantSnapshot", g.Mode, len(g.Recs))
					}
					snap, err := persist.DecodeDyn(g.Blob)
					if err != nil {
						t.Fatal(err)
					}
					if snap.Epoch != fence || len(snap.Parents) != res.N+fence {
						t.Fatalf("snapshot at epoch %d with %d vertices, want %d with %d", snap.Epoch, len(snap.Parents), fence, res.N+fence)
					}
				}
				if source == "owner" {
					// The release demotes the served copy into the one this
					// node follows, at the fence.
					if _, served := owner.srv.DynShard(id); served {
						t.Fatalf("owner still serves %s after granting a claim", id)
					}
					if cur, ok := owner.node.Status().ReplicaCursors[id]; !ok || cur != fence {
						t.Fatalf("owner follows %s at cursor %d (listed %v), want %d", id, cur, ok, fence)
					}
				}
			})
		}
	}
}
