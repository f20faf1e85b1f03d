package cluster

// In-process cluster tests: real servers, real binary-protocol
// listeners, real replication — only the processes are shared. The
// chaos test is the tentpole guarantee: killing a shard's owner
// mid-churn loses zero acked mutations.

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"spatialtree/internal/engine"
	"spatialtree/internal/persist"
	"spatialtree/internal/server"
	"spatialtree/internal/tree"
	"spatialtree/internal/wire"
)

// testNode is one in-process cluster member.
type testNode struct {
	addr string
	dir  string
	ln   net.Listener
	st   *persist.Store
	srv  *server.Server
	node *Node
	// storeOpts are the member's store options (Dir aside); a restart
	// reuses them.
	storeOpts persist.Options

	closeOnce sync.Once
}

// kill tears the member down the way a crash would be observed by its
// peers: listener and connections die, then local state is released.
func (tn *testNode) kill() {
	tn.closeOnce.Do(func() {
		tn.srv.CloseBinary()
		_ = tn.node.Close()
		_ = tn.st.Close()
	})
}

// startMember boots one member of the cluster on a pre-bound listener
// (so every member knows the full address list before any one starts).
// redirect sets server.Cluster.Redirect.
func startMember(t *testing.T, ln net.Listener, addrs []string, self int, dir string, replicas int, redirect bool) *testNode {
	t.Helper()
	return startMemberIdle(t, ln, addrs, self, dir, replicas, redirect, -1)
}

// startMemberIdle is startMember with the binary listener closing a
// connection that sat idle for longer than idle (server.Timeouts.TCPIdle;
// < 0 disables the deadline).
func startMemberIdle(t *testing.T, ln net.Listener, addrs []string, self int, dir string, replicas int, redirect bool, idle time.Duration) *testNode {
	t.Helper()
	return startMemberStore(t, ln, addrs, self, dir, replicas, redirect, idle, persist.Options{})
}

// startMemberStore is startMemberIdle with the server store opened with
// storeOpts, Dir replaced by the member's data directory.
func startMemberStore(t *testing.T, ln net.Listener, addrs []string, self int, dir string, replicas int, redirect bool, idle time.Duration, storeOpts persist.Options) *testNode {
	t.Helper()
	sopts := storeOpts
	sopts.Dir = filepath.Join(dir, "data")
	st, err := persist.Open(sopts)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	srv := server.New(server.Config{
		Durability: server.Durability{Store: st},
		Timeouts:   server.Timeouts{TCPIdle: idle},
		Cluster: server.Cluster{
			Self:     addrs[self],
			Peers:    addrs,
			Replicas: replicas,
			Redirect: redirect,
		},
	})
	if _, err := srv.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	n, err := New(srv, Options{
		ReplicaDir: filepath.Join(dir, "replicas"),
		DownFor:    100 * time.Millisecond,
		Dial:       wire.DialOptions{DialTimeout: time.Second},
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	go srv.ServeBinary(ln)
	tn := &testNode{addr: addrs[self], dir: dir, ln: ln, st: st, srv: srv, node: n, storeOpts: storeOpts}
	t.Cleanup(tn.kill)
	return tn
}

// startCluster boots size proxying members with fresh stores and
// tempdirs.
func startCluster(t *testing.T, size, replicas int) []*testNode {
	return startClusterMode(t, size, replicas, false)
}

// startClusterMode is startCluster with server.Cluster.Redirect set to
// redirect on every member.
func startClusterMode(t *testing.T, size, replicas int, redirect bool) []*testNode {
	t.Helper()
	return startClusterIdle(t, size, replicas, redirect, -1)
}

// startClusterIdle is startClusterMode with every member's binary
// listener closing connections idle for longer than idle.
func startClusterIdle(t *testing.T, size, replicas int, redirect bool, idle time.Duration) []*testNode {
	t.Helper()
	return startClusterStore(t, size, replicas, redirect, idle, persist.Options{})
}

// startClusterStore is startClusterIdle with every member's server
// store opened with storeOpts.
func startClusterStore(t *testing.T, size, replicas int, redirect bool, idle time.Duration, storeOpts persist.Options) []*testNode {
	t.Helper()
	lns := make([]net.Listener, size)
	addrs := make([]string, size)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	nodes := make([]*testNode, size)
	for i := range nodes {
		nodes[i] = startMemberStore(t, lns[i], addrs, i, t.TempDir(), replicas, redirect, idle, storeOpts)
	}
	return nodes
}

// chainParents builds an n-leaf chain tree (distinct n ⇒ distinct
// fingerprint ⇒ different ring position).
func chainParents(n int) []int {
	p := make([]int, n)
	p[0] = -1
	for i := 1; i < n; i++ {
		p[i] = i - 1
	}
	return p
}

// byAddr finds the member serving addr.
func byAddr(t *testing.T, nodes []*testNode, addr string) *testNode {
	t.Helper()
	for _, tn := range nodes {
		if tn.addr == addr {
			return tn
		}
	}
	t.Fatalf("no member at %s", addr)
	return nil
}

// ownerAndSuccessors resolves a cluster shard id to its ring walk.
func ownerAndSuccessors(t *testing.T, tn *testNode, id string) []string {
	t.Helper()
	key, ok := shardKey(id)
	if !ok {
		t.Fatalf("shard id %q is not a cluster id", id)
	}
	return tn.node.ring.Successors(key, len(tn.node.ring.nodes), nil)
}

// TestClusterFailoverNoAckedLoss is the chaos test: three members,
// full replication, concurrent mutation churn through both non-owners,
// and the owner killed mid-churn. Every acked mutation must survive
// into the promoted copy, and churn must keep acking after the kill.
func TestClusterFailoverNoAckedLoss(t *testing.T) {
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
	done := make(chan struct{})
	var churn sync.WaitGroup
	const preKill, postKill = 20, 40

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
					// Unavailability while routing converges on the
					// successor is the allowed failure mode. An unacked
					// mutation carries no guarantee either way.
					time.Sleep(5 * time.Millisecond)
					continue
				}
				mu.Lock()
				ackedEpochs = append(ackedEpochs, r.Epoch)
				n := len(ackedEpochs)
				mu.Unlock()
				if n == preKill {
					close(killed)
				}
				if n >= preKill+postKill {
					select {
					case <-done:
					default:
						close(done)
					}
					return
				}
			}
		}(tn)
	}

	<-killed
	owner.kill() // the chaos event: the shard's owner dies mid-churn

	select {
	case <-done:
	case <-time.After(30 * time.Second):
		close(done)
		churn.Wait()
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("churn stalled after owner kill: %d/%d mutations acked", len(ackedEpochs), preKill+postKill)
	}
	churn.Wait()

	var maxAcked uint64
	for _, e := range ackedEpochs {
		if e > maxAcked {
			maxAcked = e
		}
	}

	// Exactly one survivor — the ring successor — now serves the shard.
	succ := byAddr(t, nodes, walk[1])
	de, ok := succ.srv.DynShard(id)
	if !ok {
		t.Fatalf("ring successor %s does not serve %s after owner death", succ.addr, id)
	}
	for _, tn := range survivors {
		if tn != succ {
			if _, also := tn.srv.DynShard(id); also {
				t.Fatalf("both survivors serve %s", id)
			}
		}
	}

	// Zero acked loss: epochs are sequential per shard, so the promoted
	// copy containing epoch maxAcked contains every acked mutation.
	if got := de.Epoch(); got < maxAcked {
		t.Fatalf("promoted shard at epoch %d, but epoch %d was acked — acked mutations lost", got, maxAcked)
	}
	// Inserts only: the leaf count must account for exactly every
	// applied mutation (acked or in-flight at the kill), no more.
	if got, want := de.N(), n0+int(de.Epoch()); got != want {
		t.Fatalf("promoted shard has %d leaves, want %d (n0 %d + %d applied mutations)", got, want, n0, de.Epoch())
	}
	mu.Lock()
	acked := len(ackedEpochs)
	mu.Unlock()
	if int(de.Epoch()) < acked {
		t.Fatalf("promoted shard applied %d mutations, but %d were acked", de.Epoch(), acked)
	}

	// The cluster still takes writes for the shard through any survivor.
	for _, tn := range survivors {
		r, err := tn.node.Mutate(id, wire.OpInsert, 0)
		if err != nil {
			t.Fatalf("post-failover mutate via %s: %v", tn.addr, err)
		}
		if r.Epoch <= maxAcked {
			t.Fatalf("post-failover epoch %d did not advance past %d", r.Epoch, maxAcked)
		}
		maxAcked = r.Epoch
	}
}

// TestReplicationTargetsRingSuccessors: with R = 1 on three members,
// the shard's one replica lives exactly at the ring successor — the
// node a failover would promote — and nowhere else.
func TestReplicationTargetsRingSuccessors(t *testing.T) {
	nodes := startCluster(t, 3, 1)
	res, err := nodes[0].node.DynCreate(chainParents(5), 0, "")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	id := res.ID
	walk := ownerAndSuccessors(t, nodes[0], id)
	ownerTN, follower, bystander := byAddr(t, nodes, walk[0]), byAddr(t, nodes, walk[1]), byAddr(t, nodes, walk[2])

	const muts = 5
	var last server.MutateResult
	for i := 0; i < muts; i++ {
		if last, err = ownerTN.node.Mutate(id, wire.OpInsert, 0); err != nil {
			t.Fatalf("mutate %d: %v", i, err)
		}
	}
	if cur := follower.node.Status().ReplicaCursors[id]; cur != last.Epoch {
		t.Fatalf("follower cursor %d, want %d", cur, last.Epoch)
	}
	if cur, has := bystander.node.Status().ReplicaCursors[id]; has {
		t.Fatalf("bystander %s holds a replica at cursor %d; R=1 should ship only to the successor", bystander.addr, cur)
	}
}

// TestReplicaBootRecovery: a follower restarted from disk comes back
// with its replica cursor intact, and can still be promoted — the
// restart loses nothing the owner acked.
func TestReplicaBootRecovery(t *testing.T) {
	nodes := startCluster(t, 3, 1)
	res, err := nodes[0].node.DynCreate(chainParents(4), 0, "")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	id, n0 := res.ID, res.N
	walk := ownerAndSuccessors(t, nodes[0], id)
	ownerTN, follower := byAddr(t, nodes, walk[0]), byAddr(t, nodes, walk[1])

	const muts = 5
	var last server.MutateResult
	for i := 0; i < muts; i++ {
		if last, err = ownerTN.node.Mutate(id, wire.OpInsert, 0); err != nil {
			t.Fatalf("mutate %d: %v", i, err)
		}
	}
	if cur := follower.node.Status().ReplicaCursors[id]; cur != last.Epoch {
		t.Fatalf("follower cursor %d before restart, want %d", cur, last.Epoch)
	}

	// Restart the follower on the same directories and address.
	idx := -1
	addrs := make([]string, len(nodes))
	for i, tn := range nodes {
		addrs[i] = tn.addr
		if tn == follower {
			idx = i
		}
	}
	follower.kill()
	ln, err := net.Listen("tcp", follower.addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", follower.addr, err)
	}
	follower = startMember(t, ln, addrs, idx, follower.dir, 1, false)
	nodes[idx] = follower

	if cur := follower.node.Status().ReplicaCursors[id]; cur != last.Epoch {
		t.Fatalf("follower cursor %d after restart, want %d", cur, last.Epoch)
	}

	// Kill the owner; the restarted follower must promote its recovered
	// replica and continue the epoch sequence without a gap.
	ownerTN.kill()
	r, err := follower.node.Mutate(id, wire.OpInsert, 0)
	if err != nil {
		t.Fatalf("post-restart failover mutate: %v", err)
	}
	if r.Epoch != last.Epoch+1 {
		t.Fatalf("failover epoch %d, want %d", r.Epoch, last.Epoch+1)
	}
	if want := n0 + int(r.Epoch); r.N != want {
		t.Fatalf("failover leaf count %d, want %d", r.N, want)
	}
}

// TestReplicaStoreTakesServerOptions: a follower's replica store opens
// with its server store's options, so replicas journal under the same
// fsync policy as owned shards and compact at the same threshold.
func TestReplicaStoreTakesServerOptions(t *testing.T) {
	const compactAfter = 4
	nodes := startClusterStore(t, 3, 2, false, -1, persist.Options{Fsync: true, CompactAfter: compactAfter})
	res, err := nodes[0].node.DynCreate(chainParents(6), 0, "")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	id := res.ID
	walk := ownerAndSuccessors(t, nodes[0], id)
	owner := byAddr(t, nodes, walk[0])
	const muts = 3 * compactAfter
	for i := 0; i < muts; i++ {
		if _, err := owner.node.Mutate(id, wire.OpInsert, 0); err != nil {
			t.Fatalf("mutate %d: %v", i, err)
		}
	}
	for _, addr := range walk[1:] {
		f := byAddr(t, nodes, addr)
		if cur := f.node.Status().ReplicaCursors[id]; cur != muts {
			t.Fatalf("follower %s cursor %d, want %d", addr, cur, muts)
		}
		if got := f.node.store.Options(); !got.Fsync || got.CompactAfter != compactAfter {
			t.Fatalf("follower %s replica store options %+v, want the server store's fsync and CompactAfter %d", addr, got, compactAfter)
		}
		snaps, err := filepath.Glob(filepath.Join(f.dir, "replicas", "dyn", id, "snap-*.snap"))
		if err != nil {
			t.Fatal(err)
		}
		if len(snaps) != 1 || filepath.Base(snaps[0]) == "snap-00000000000000000000.snap" {
			t.Fatalf("follower %s replica snapshots %v after %d records at CompactAfter %d: replica never compacted", addr, snaps, muts, compactAfter)
		}
	}
}

// shardAnswers is what one member answers for a shard: the sums of an
// all-ones treefix (subtree sizes) and a fixed LCA batch.
type shardAnswers struct {
	Sums    []int64
	Answers []int
}

// queryShard asks member via for shard id's answers over its binary
// listener and over its HTTP handler. Both are the public client
// surfaces: a member that does not own the shard must proxy.
func queryShard(t *testing.T, via *testNode, id string, n int) (bin, js shardAnswers) {
	t.Helper()
	vals := make([]int64, n)
	lcaWire := make([]wire.LCAQuery, n)
	lcaJSON := make([]server.LCAQuery, n)
	for i := range vals {
		vals[i] = 1
		lcaWire[i] = wire.LCAQuery{U: i, V: n - 1 - i}
		lcaJSON[i] = server.LCAQuery{U: i, V: n - 1 - i}
	}

	cl, err := wire.Dial(via.addr, wire.DialOptions{DialTimeout: time.Second})
	if err != nil {
		t.Fatalf("dial %s: %v", via.addr, err)
	}
	defer cl.Close()
	sums, err := cl.Do(&wire.Query{ShardID: id, Kind: wire.KindTreefix, Vals: vals})
	if err != nil {
		t.Fatalf("wire treefix %s via %s: %v", id, via.addr, err)
	}
	lcas, err := cl.Do(&wire.Query{ShardID: id, Kind: wire.KindLCA, Queries: lcaWire})
	if err != nil {
		t.Fatalf("wire lca %s via %s: %v", id, via.addr, err)
	}
	bin = shardAnswers{Sums: sums.Sums, Answers: lcas.Answers}

	hs := httptest.NewServer(via.srv.Handler())
	defer hs.Close()
	post := func(req server.QueryRequest) server.QueryResponse {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(hs.URL+"/v1/dyn/"+id+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("http %s query %s via %s: %v", req.Kind, id, via.addr, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(resp.Body)
			t.Fatalf("http %s query %s via %s: %d %s", req.Kind, id, via.addr, resp.StatusCode, msg)
		}
		var qr server.QueryResponse
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatal(err)
		}
		return qr
	}
	js = shardAnswers{
		Sums:    post(server.QueryRequest{Kind: "treefix", Vals: vals}).Sums,
		Answers: post(server.QueryRequest{Kind: "lca", Queries: lcaJSON}).Answers,
	}
	return bin, js
}

// TestRoutedCreateAndQuery: creations route to the hash-chosen owner no
// matter which member takes the request, and every member answers
// queries for every shard (proxying when it is not the owner).
func TestRoutedCreateAndQuery(t *testing.T) {
	nodes := startCluster(t, 3, 1)
	// Create via every member; ownership must follow the ring, not the
	// receiving member.
	for i, tn := range nodes {
		res, err := tn.node.DynCreate(chainParents(6+i), 0, "")
		if err != nil {
			t.Fatalf("create via %s: %v", tn.addr, err)
		}
		walk := ownerAndSuccessors(t, tn, res.ID)
		ownerTN := byAddr(t, nodes, walk[0])
		if _, ok := ownerTN.srv.DynShard(res.ID); !ok {
			t.Fatalf("shard %s not served by its ring owner %s", res.ID, ownerTN.addr)
		}
		for _, other := range nodes {
			if other != ownerTN {
				if _, ok := other.srv.DynShard(res.ID); ok {
					t.Fatalf("shard %s also served by non-owner %s", res.ID, other.addr)
				}
			}
		}
		// A mutation through each member lands on the same single copy.
		for j, via := range nodes {
			r, err := via.node.Mutate(res.ID, wire.OpInsert, 0)
			if err != nil {
				t.Fatalf("mutate %s via %s: %v", res.ID, via.addr, err)
			}
			if r.Epoch != uint64(j+1) {
				t.Fatalf("mutate %s via %s: epoch %d, want %d", res.ID, via.addr, r.Epoch, j+1)
			}
		}
		// Every member answers queries for the shard over both client
		// surfaces, with exactly the owner's answers.
		n := res.N + len(nodes)
		want, _ := queryShard(t, ownerTN, res.ID, n)
		if len(want.Sums) != n || want.Sums[0] != int64(n) {
			t.Fatalf("owner %s: treefix sums %v, want the root's subtree size %d first", ownerTN.addr, want.Sums, n)
		}
		for _, via := range nodes {
			bin, js := queryShard(t, via, res.ID, n)
			for proto, got := range map[string]shardAnswers{"wire": bin, "http": js} {
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("query %s via %s over %s = %+v, want the owner's %+v", res.ID, via.addr, proto, got, want)
				}
			}
		}
	}
}

// TestNonClusterIDsStayLocal: ids without the cluster prefix never
// route — each member serves (and fails) them locally.
func TestNonClusterIDsStayLocal(t *testing.T) {
	nodes := startCluster(t, 2, 1)
	if _, err := nodes[0].node.Mutate("d1", wire.OpInsert, 0); err == nil {
		t.Fatal("mutate of unknown local id succeeded")
	} else if server.Classify(err) != server.StatusNotFound {
		t.Fatalf("unknown local id classified %v, want %v", server.Classify(err), server.StatusNotFound)
	}
}

// TestRedirectToOwner: with Cluster.Redirect set, a non-owner answers a
// shard query frame, a mutate frame, a create frame and the HTTP shard
// query with the owner's address instead of proxying, and re-issuing
// each at that address answers as the owner does.
func TestRedirectToOwner(t *testing.T) {
	nodes := startClusterMode(t, 3, 1, true)
	parents := chainParents(6)
	key := engine.Fingerprint(tree.MustFromParents(parents))
	owner, ok := nodes[0].node.ring.Owner(key, nil)
	if !ok {
		t.Fatal("empty ring")
	}
	ownerTN := byAddr(t, nodes, owner)
	res, err := ownerTN.node.DynCreate(parents, 0, "")
	if err != nil {
		t.Fatalf("create at owner: %v", err)
	}
	if walk := ownerAndSuccessors(t, ownerTN, res.ID); walk[0] != owner {
		t.Fatalf("shard %s routes to %s, its tree to %s", res.ID, walk[0], owner)
	}
	var via *testNode
	for _, tn := range nodes {
		if tn != ownerTN {
			via = tn
			break
		}
	}
	dial := func(addr string) *wire.Client {
		t.Helper()
		cl, err := wire.Dial(addr, wire.DialOptions{DialTimeout: time.Second})
		if err != nil {
			t.Fatalf("dial %s: %v", addr, err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}
	redirected := func(what string, err error) string {
		t.Helper()
		var we *wire.Error
		if !errors.As(err, &we) || we.Status != wire.StatusRedirect || we.Msg != owner {
			t.Fatalf("%s via non-owner %s = %v, want a redirect to %s", what, via.addr, err, owner)
		}
		return we.Msg
	}
	cl := dial(via.addr)

	vals := make([]int64, res.N)
	for i := range vals {
		vals[i] = 1
	}
	q := wire.Query{ShardID: res.ID, Kind: wire.KindTreefix, Vals: vals}
	_, err = cl.Do(&q)
	sums, err := dial(redirected("query", err)).Do(&q)
	if err != nil || sums.Sums[0] != int64(res.N) {
		t.Fatalf("query re-issued at the owner = %+v, %v; want the root's subtree size %d", sums, err, res.N)
	}

	m := wire.Mutate{ShardID: res.ID, Op: wire.OpInsert, Arg: 0}
	_, err = cl.Mutate(&m)
	mut, err := dial(redirected("mutate", err)).Mutate(&m)
	if err != nil || mut.Epoch != 1 || mut.N != res.N+1 {
		t.Fatalf("mutate re-issued at the owner = %+v, %v; want epoch 1, n %d", mut, err, res.N+1)
	}

	dc := wire.DynCreate{Parents: parents}
	_, err = cl.DynCreate(&dc)
	created, err := dial(redirected("create", err)).DynCreate(&dc)
	if err != nil || created.N != len(parents) {
		t.Fatalf("create re-issued at the owner = %+v, %v", created, err)
	}
	if _, ok := ownerTN.srv.DynShard(created.ShardID); !ok {
		t.Fatalf("re-issued create %s is not served by the owner", created.ShardID)
	}

	body, err := json.Marshal(server.QueryRequest{Kind: "treefix", Vals: append(vals, 1)})
	if err != nil {
		t.Fatal(err)
	}
	post := func(tn *testNode) *http.Response {
		t.Helper()
		hs := httptest.NewServer(tn.srv.Handler())
		t.Cleanup(hs.Close)
		resp, err := http.Post(hs.URL+"/v1/dyn/"+res.ID+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	resp := post(via)
	var er server.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMisdirectedRequest || resp.Header.Get("X-Spatialtree-Owner") != owner || er.Owner != owner {
		t.Fatalf("HTTP query via non-owner = %d owner header %q body %+v, want 421 naming %s",
			resp.StatusCode, resp.Header.Get("X-Spatialtree-Owner"), er, owner)
	}
	resp = post(byAddr(t, nodes, er.Owner))
	var qr server.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || qr.Sums[0] != int64(res.N+1) {
		t.Fatalf("HTTP query re-issued at the owner = %d %+v, want the root's subtree size %d", resp.StatusCode, qr, res.N+1)
	}
}

// waitIdledOut waits until each peer connection a member holds has
// been closed by the other side's idle deadline, as the member's own
// client has read it: the server's close alone leaves a moment in
// which the client has not yet seen it.
func waitIdledOut(t *testing.T, nodes []*testNode) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for _, tn := range nodes {
		for addr, p := range tn.node.peers {
			p.mu.Lock()
			c := p.c
			p.mu.Unlock()
			for c != nil && c.Err() == nil {
				if time.Now().After(deadline) {
					t.Fatalf("%s's connection to %s never idled out", tn.addr, addr)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}
}

// TestIdleConnectionKeepsFollowers: a peer connection that the
// follower's listener closed for idleness is redialed, not taken for a
// dead follower, so the owner's next mutation still reaches both
// followers before it is acked.
func TestIdleConnectionKeepsFollowers(t *testing.T) {
	nodes := startClusterIdle(t, 3, 2, false, 150*time.Millisecond)
	res, err := nodes[0].node.DynCreate(chainParents(5), 0, "")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	id := res.ID
	walk := ownerAndSuccessors(t, nodes[0], id)
	owner := byAddr(t, nodes, walk[0])
	if _, err := owner.node.Mutate(id, wire.OpInsert, 0); err != nil {
		t.Fatalf("mutate: %v", err)
	}
	waitIdledOut(t, nodes)

	r, err := owner.node.Mutate(id, wire.OpInsert, 0)
	if err != nil {
		t.Fatalf("mutate after idle: %v", err)
	}
	for _, addr := range walk[1:] {
		if cur := byAddr(t, nodes, addr).node.Status().ReplicaCursors[id]; cur != r.Epoch {
			t.Fatalf("follower %s at cursor %d after the owner acked epoch %d", addr, cur, r.Epoch)
		}
	}
}

// TestIdleConnectionNoSplitBrain: with one replica, a bystander whose
// connection to the owner idled out redials the owner instead of
// quarantining it, so the successor never promotes its replica beside
// the live owner and the epochs stay one sequence.
func TestIdleConnectionNoSplitBrain(t *testing.T) {
	nodes := startClusterIdle(t, 3, 1, false, 150*time.Millisecond)
	res, err := nodes[0].node.DynCreate(chainParents(5), 0, "")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	id := res.ID
	walk := ownerAndSuccessors(t, nodes[0], id)
	owner, succ, bystander := byAddr(t, nodes, walk[0]), byAddr(t, nodes, walk[1]), byAddr(t, nodes, walk[2])
	// Each non-owner proxies once, so each holds a connection to the
	// owner that will idle out.
	for i, via := range []*testNode{succ, bystander} {
		if r, err := via.node.Mutate(id, wire.OpInsert, 0); err != nil || r.Epoch != uint64(i+1) {
			t.Fatalf("mutate via %s = epoch %d, %v; want epoch %d", via.addr, r.Epoch, err, i+1)
		}
	}
	waitIdledOut(t, nodes)

	if r, err := bystander.node.Mutate(id, wire.OpInsert, 0); err != nil || r.Epoch != 3 {
		t.Fatalf("mutate via the bystander after idle = epoch %d, %v; want epoch 3", r.Epoch, err)
	}
	if r, err := owner.node.Mutate(id, wire.OpInsert, 0); err != nil || r.Epoch != 4 {
		t.Fatalf("mutate at the owner = epoch %d, %v; want epoch 4", r.Epoch, err)
	}
	for _, tn := range []*testNode{succ, bystander} {
		if _, served := tn.srv.DynShard(id); served {
			t.Fatalf("%s serves %s beside its live owner %s", tn.addr, id, owner.addr)
		}
	}
}

// TestRedirectFailover: in redirect mode a member names only an owner
// it has just reached, so after the owner dies the third member
// redirects to the successor, and the successor promotes its replica
// at the next epoch.
func TestRedirectFailover(t *testing.T) {
	nodes := startClusterMode(t, 3, 1, true)
	parents := chainParents(6)
	owner, ok := nodes[0].node.ring.Owner(engine.Fingerprint(tree.MustFromParents(parents)), nil)
	if !ok {
		t.Fatal("empty ring")
	}
	ownerTN := byAddr(t, nodes, owner)
	res, err := ownerTN.node.DynCreate(parents, 0, "")
	if err != nil {
		t.Fatalf("create at owner: %v", err)
	}
	walk := ownerAndSuccessors(t, ownerTN, res.ID)
	succ, third := byAddr(t, nodes, walk[1]), byAddr(t, nodes, walk[2])
	last, err := ownerTN.node.Mutate(res.ID, wire.OpInsert, 0)
	if err != nil {
		t.Fatalf("mutate at owner: %v", err)
	}
	ownerTN.kill()

	if _, err := third.node.Mutate(res.ID, wire.OpInsert, 0); !errors.Is(err, server.RedirectTo(succ.addr)) {
		t.Fatalf("mutate via %s after the owner died = %v, want a redirect to the successor %s", third.addr, err, succ.addr)
	}
	r, err := succ.node.Mutate(res.ID, wire.OpInsert, 0)
	if err != nil || r.Epoch != last.Epoch+1 {
		t.Fatalf("mutate at the successor = epoch %d, %v; want epoch %d", r.Epoch, err, last.Epoch+1)
	}
}

// TestProxyRewalkPastDeadOwner: in proxy mode a bystander's query and
// create each re-walk past a killed owner within one call — the query
// reaches the successor, which promotes its replica, and the create is
// made there.
func TestProxyRewalkPastDeadOwner(t *testing.T) {
	nodes := startCluster(t, 3, 1)
	parents := chainParents(7)
	res, err := nodes[0].node.DynCreate(parents, 0, "")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	walk := ownerAndSuccessors(t, nodes[0], res.ID)
	ownerTN, succ, bystander := byAddr(t, nodes, walk[0]), byAddr(t, nodes, walk[1]), byAddr(t, nodes, walk[2])
	if _, err := bystander.node.Mutate(res.ID, wire.OpInsert, 0); err != nil {
		t.Fatalf("mutate: %v", err)
	}
	ownerTN.kill()

	n := res.N + 1
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = 1
	}
	got, err := bystander.node.ShardQuery(&wire.Query{ShardID: res.ID, Kind: wire.KindTreefix, Vals: vals})
	if err != nil || got == nil || got.Sums[0] != int64(n) {
		t.Fatalf("query via the bystander after the owner died = %+v, %v; want the root's subtree size %d", got, err, n)
	}
	if _, served := succ.srv.DynShard(res.ID); !served {
		t.Fatalf("successor %s does not serve %s after the query", succ.addr, res.ID)
	}
	created, err := bystander.node.DynCreate(parents, 0, "")
	if err != nil {
		t.Fatalf("create via the bystander after the owner died: %v", err)
	}
	if _, served := succ.srv.DynShard(created.ID); !served {
		t.Fatalf("create %s via the bystander is not served by the successor %s", created.ID, succ.addr)
	}
}
