package main

// The system under test: real servers in this process, reached over
// loopback TCP through exactly `conns` client connections. A system is
// built fresh per set-up; its do method sends one pooled request and
// checks the reply against the pool's oracle answer.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"spatialtree/internal/cluster"
	"spatialtree/internal/engine"
	"spatialtree/internal/persist"
	"spatialtree/internal/server"
	"spatialtree/internal/tree"
	"spatialtree/internal/treefix"
	"spatialtree/internal/wire"
)

// clientTimeout bounds every generator call, so a wedged server fails
// requests instead of hanging the run past its deadline.
const clientTimeout = 20 * time.Second

// node is one in-process server with its listener.
type node struct {
	srv  *server.Server
	ln   net.Listener
	addr string
	hs   *http.Server
	cl   *cluster.Node
	st   *persist.Store
	// replicaDir holds the replicas this node follows (cluster only).
	replicaDir string
	served     chan struct{} // closed when the accept loop returns
}

// system is one running set-up of a workload.
type system struct {
	w     *workload
	p     *pool
	dir   string
	nodes []*node

	clients []*wire.Client // binary protocol: one per connection
	hc      *http.Client   // HTTP: a transport capped at conns connections
	url     string

	// Cluster: the shard id per tree, the connection (= owner node)
	// serving it, the node behind each connection, and the per-shard
	// mutation queues.
	shardIDs []string
	owner    []int8
	connNode [conns]int
	queues   []*shardQueue
	// proxy serves the cluster in its default proxy mode and sends every
	// shard's traffic through the other owner, which proxies it: the
	// reproduction of the proxy stall (see README.md, known limits).
	proxy bool
}

// mismatchError marks a reply that arrived but carried a wrong answer.
type mismatchError struct{ msg string }

func (e mismatchError) Error() string { return e.msg }

func mismatchf(format string, args ...any) error {
	return mismatchError{fmt.Sprintf(format, args...)}
}

// setupTime is one set-up's wall-clock time and the process's CPU time
// over it.
type setupTime struct{ wall, cpu time.Duration }

// setup builds a fresh system and returns it together with its set-up
// time: from server start until every shard has answered one request of
// each kind it serves.
func setup(w *workload, p *pool, dir string, proxy bool) (*system, setupTime, error) {
	// The previous set-up's garbage is collected now, so that its CPU
	// time is not charged to this one.
	runtime.GC()
	s := &system{w: w, p: p, dir: dir, proxy: proxy}
	var lns []net.Listener
	if w.cluster {
		var err error
		if lns, err = s.balancedListeners(); err != nil {
			return nil, setupTime{}, err
		}
	} else {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, setupTime{}, err
		}
		lns = []net.Listener{ln}
	}
	start, cpu0 := time.Now(), cpuTime()
	var err error
	switch {
	case w.cluster:
		err = s.startCluster(lns)
	case w.proto == protoHTTP:
		err = s.startHTTP(lns[0])
	default:
		err = s.startWire(lns[0])
	}
	if err == nil {
		err = s.ready()
	}
	if err != nil {
		s.close()
		return nil, setupTime{}, err
	}
	return s, setupTime{wall: time.Since(start), cpu: cpuTime() - cpu0}, nil
}

// balancedListeners binds three loopback listeners whose ring places the
// pool's trees on exactly two owners holding half the shards each. Trees
// come from the seed and ports from the kernel, so the listeners are
// re-bound until the ring splits the seed's trees evenly; the generator
// then connects to those two owners only.
func (s *system) balancedListeners() ([]net.Listener, error) {
	for attempt := 0; attempt < 200; attempt++ {
		lns := make([]net.Listener, 3)
		addrs := make([]string, 3)
		for i := range lns {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				closeAll(lns)
				return nil, err
			}
			lns[i], addrs[i] = ln, ln.Addr().String()
		}
		ring := cluster.NewRing(addrs, server.DefaultVirtualNodes)
		ownerNode := make([]int, len(s.p.trees))
		var count [3]int
		for i, td := range s.p.trees {
			a, _ := ring.Owner(engine.Fingerprint(td.t), nil)
			ownerNode[i] = slices.Index(addrs, a)
			count[ownerNode[i]]++
		}
		var used []int
		for i, c := range count {
			if c > 0 {
				used = append(used, i)
			}
		}
		if len(used) == 2 && count[used[0]] == count[used[1]] {
			s.connNode = [conns]int{used[0], used[1]}
			s.owner = make([]int8, len(ownerNode))
			for i, nd := range ownerNode {
				if nd == used[1] {
					s.owner[i] = 1
				}
			}
			return lns, nil
		}
		closeAll(lns)
	}
	return nil, errors.New("no listener assignment splits the shards over two owners")
}

func closeAll(lns []net.Listener) {
	for _, ln := range lns {
		if ln != nil {
			ln.Close()
		}
	}
}

func (s *system) serveBinary(n *node) {
	n.served = make(chan struct{})
	go func() {
		defer close(n.served)
		_ = n.srv.ServeBinary(n.ln) // returns when the listener closes
	}()
}

func (s *system) dial() error {
	for c := 0; c < conns; c++ {
		cl, err := wire.Dial(s.nodes[s.connNode[c]].addr, wire.DialOptions{DialTimeout: 5 * time.Second, ReadTimeout: clientTimeout})
		if err != nil {
			return fmt.Errorf("dial: %w", err)
		}
		s.clients = append(s.clients, cl)
	}
	return nil
}

func (s *system) startWire(ln net.Listener) error {
	n := &node{srv: server.New(server.Config{}), ln: ln, addr: ln.Addr().String()}
	s.nodes = []*node{n}
	s.serveBinary(n)
	for _, td := range s.p.trees {
		t, err := tree.FromParents(slices.Clone(td.parents))
		if err != nil {
			return err
		}
		id, err := n.srv.RegisterTree(t)
		if err != nil {
			return err
		}
		if id != td.treeID {
			return fmt.Errorf("registered tree id %s, want %s", id, td.treeID)
		}
	}
	return s.dial()
}

func (s *system) startHTTP(ln net.Listener) error {
	n := &node{srv: server.New(server.Config{}), ln: ln, addr: ln.Addr().String()}
	n.hs = &http.Server{Handler: n.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	n.served = make(chan struct{})
	s.nodes = []*node{n}
	go func() {
		defer close(n.served)
		_ = n.hs.Serve(ln) // returns when the server closes
	}()
	s.url = "http://" + n.addr
	s.hc = &http.Client{
		Timeout: clientTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
	return nil
}

// startCluster boots three members (replication factor 2, one
// non-fsynced store each, redirect mode), creates one dyn shard per tree
// at its owner, and starts the per-shard mutation queues.
func (s *system) startCluster(lns []net.Listener) error {
	addrs := make([]string, len(lns))
	for i, ln := range lns {
		addrs[i] = ln.Addr().String()
	}
	for i, ln := range lns {
		dir := filepath.Join(s.dir, fmt.Sprintf("node%d", i))
		st, err := persist.Open(persist.Options{Dir: filepath.Join(dir, "data")})
		if err != nil {
			closeAll(lns[i:])
			return err
		}
		srv := server.New(server.Config{
			Durability: server.Durability{Store: st},
			Cluster:    server.Cluster{Self: addrs[i], Peers: addrs, Replicas: 2, Redirect: !s.proxy},
		})
		n := &node{srv: srv, ln: ln, addr: addrs[i], st: st, replicaDir: filepath.Join(dir, "replicas")}
		s.nodes = append(s.nodes, n)
		if n.cl, err = cluster.New(srv, cluster.Options{
			ReplicaDir: n.replicaDir,
			Dial:       wire.DialOptions{DialTimeout: 5 * time.Second},
		}); err != nil {
			closeAll(lns[i:])
			return err
		}
		s.serveBinary(n)
	}
	if err := s.dial(); err != nil {
		return err
	}
	s.shardIDs = make([]string, len(s.p.trees))
	for i, td := range s.p.trees {
		dc, err := s.clients[s.shardConn(i)].DynCreate(&wire.DynCreate{Parents: td.parents})
		if err != nil {
			return fmt.Errorf("create shard %d: %w", i, err)
		}
		s.shardIDs[i] = dc.ShardID
		s.queues = append(s.queues, newShardQueue(s, i))
	}
	return nil
}

// ready sends every shard one request of each kind it serves, split over
// the connections.
func (s *system) ready() error {
	var ops []entry
	for i := range s.p.trees {
		for k := kind(0); k < numKinds; k++ {
			if s.w.mix[k] > 0 {
				ops = append(ops, entry{id: -1, op: op{kind: k, tree: int32(i), conn: int8(i % conns)}})
			}
		}
	}
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ops {
				if int(ops[i].conn) != c {
					continue
				}
				if err := s.do(&ops[i], nil, -1); err != nil && errs[c] == nil {
					errs[c] = fmt.Errorf("readiness %s on tree %d: %w", ops[i].kind, ops[i].tree, err)
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// do sends one request and checks its reply. tr records the client call
// as a child of span parent when tracing.
func (s *system) do(e *entry, tr *tracer, parent int32) error {
	if e.kind == kMutate {
		return s.queues[e.tree].submit(e, tr, parent)
	}
	if s.w.proto == protoHTTP {
		return s.doHTTP(e, tr, parent)
	}
	q := s.wireQuery(e)
	start := tr.now()
	res, err := s.clients[s.connOf(e)].Do(&q)
	tr.add("client.call", start, tr.now(), parent, e.id, -1)
	if err != nil {
		return err
	}
	return s.p.check(e, res.Answers, res.Sums, res.MinWeight, res.ArgVertex)
}

func (s *system) doHTTP(e *entry, tr *tracer, parent int32) error {
	td := s.p.trees[e.tree]
	var body []byte
	switch e.kind {
	case kLCA:
		body = td.lcaBody[e.idx]
	case kTreefix:
		body = td.tfBody[e.idx][e.fop]
	default:
		return fmt.Errorf("kind %s is not served over HTTP by this benchmark", e.kind)
	}
	start := tr.now()
	resp, err := s.hc.Post(s.url+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		tr.add("client.call", start, tr.now(), parent, e.id, -1)
		return err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.add("client.call", start, tr.now(), parent, e.id, -1)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var qr server.QueryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		return mismatchf("undecodable response: %v", err)
	}
	return s.p.check(e, qr.Answers, qr.Sums, 0, 0)
}

// check compares a reply with the pool's oracle answer.
func (p *pool) check(e *entry, answers []int, sums []int64, weight int64, arg int) error {
	td := p.trees[e.tree]
	switch e.kind {
	case kLCA:
		want := td.lcaWant[e.idx]
		if !slices.Equal(answers, want) {
			return mismatchf("request %d: lca tree %d batch %d: answers differ from the oracle", e.id, e.tree, e.idx)
		}
	case kTreefix, kTopDown:
		dir := 0
		if e.kind == kTopDown {
			dir = 1
		}
		if len(sums) != len(td.parents) || hashSums(sums) != td.tfWant[e.idx][e.fop][dir] {
			return mismatchf("request %d: %s tree %d vals %d op %s: sums differ from the oracle",
				e.id, e.kind, e.tree, e.idx, treefixOps[e.fop].Name)
		}
	case kMinCut:
		want := td.cutWant[e.idx]
		if weight != want.weight || arg != want.arg {
			return mismatchf("request %d: mincut tree %d edges %d: got (%d, %d), oracle (%d, %d)",
				e.id, e.tree, e.idx, weight, arg, want.weight, want.arg)
		}
	}
	return nil
}

// engines returns the served static engines, one per pooled tree (nil
// for dyn workloads).
func (s *system) engines() ([]*engine.Engine, error) {
	if s.w.cluster {
		return nil, nil
	}
	out := make([]*engine.Engine, len(s.p.trees))
	for i, td := range s.p.trees {
		e, err := s.nodes[0].srv.Pool().Engine(td.t)
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}

// dynShards returns the served dyn engines, one per shard, at their
// owners (nil for static workloads).
func (s *system) dynShards() []*engine.DynEngine {
	var out []*engine.DynEngine
	for i, id := range s.shardIDs {
		de, ok := s.nodes[s.connNode[s.owner[i]]].srv.DynShard(id)
		if !ok {
			return nil
		}
		out = append(out, de)
	}
	return out
}

// metrics sums the serving counters over every node.
func (s *system) metrics() server.MetricsResponse {
	var m server.MetricsResponse
	for _, n := range s.nodes {
		x := n.srv.Metrics()
		m.Server.Accepted += x.Server.Accepted
		m.Server.Rejected += x.Server.Rejected
		m.Scheduler.Batches += x.Scheduler.Batches
		m.Scheduler.Requests += x.Scheduler.Requests
		m.Scheduler.DeadlineFlushes += x.Scheduler.DeadlineFlushes
		m.Engine.LCAQueries += x.Engine.LCAQueries
		m.Engine.LCARuns += x.Engine.LCARuns
		m.Cache.Hits += x.Cache.Hits
		m.Cache.Misses += x.Cache.Misses
		m.Dyn.Refreshes += x.Dyn.Refreshes
		m.Dyn.Rebuilds += x.Dyn.Rebuilds
	}
	return m
}

// verifyShards checks every dyn shard after the run: the owner serves
// the generator's expected N and epoch, and both followers report that
// epoch as their replica cursor. closeAndVerifyReplicas completes the
// check on the followers' durable copies after shutdown.
func (s *system) verifyShards() []error {
	var errs []error
	for i, id := range s.shardIDs {
		q := s.queues[i]
		own := s.connNode[s.owner[i]]
		de, ok := s.nodes[own].srv.DynShard(id)
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("shard %s: owner no longer serves it", id))
		case de.N() != q.n || de.Epoch() != q.epoch:
			errs = append(errs, fmt.Errorf("shard %s: owner holds n=%d epoch=%d, generator expects n=%d epoch=%d",
				id, de.N(), de.Epoch(), q.n, q.epoch))
		}
		for j, n := range s.nodes {
			if j == own {
				continue
			}
			if c := n.cl.Status().ReplicaCursors[id]; c != q.epoch {
				errs = append(errs, fmt.Errorf("shard %s: follower %d cursor %d, generator expects epoch %d", id, j, c, q.epoch))
			}
		}
	}
	return errs
}

// verifyReplicaStores reopens each follower's replica store after
// shutdown and checks the durable copy replays to the expected N and
// epoch.
func (s *system) verifyReplicaStores() []error {
	var errs []error
	for i, id := range s.shardIDs {
		q := s.queues[i]
		for j, n := range s.nodes {
			if j == s.connNode[s.owner[i]] {
				continue
			}
			nn, epoch, err := replayReplica(n.replicaDir, id)
			if err == nil && (nn != q.n || epoch != q.epoch) {
				err = fmt.Errorf("replays to n=%d epoch=%d, generator expects n=%d epoch=%d", nn, epoch, q.n, q.epoch)
			}
			if err != nil {
				errs = append(errs, fmt.Errorf("shard %s: follower %d store: %w", id, j, err))
			}
		}
	}
	return errs
}

func replayReplica(dir, id string) (n int, epoch uint64, err error) {
	st, err := persist.Open(persist.Options{Dir: dir})
	if err != nil {
		return 0, 0, err
	}
	defer st.Close()
	_, snap, recs, err := st.OpenShardLog(id)
	if err != nil {
		return 0, 0, err
	}
	n, epoch = len(snap.Parents), snap.Epoch
	for _, r := range recs {
		switch r.Type {
		case persist.RecInsert:
			n++
		case persist.RecDelete:
			n--
		default:
			continue
		}
		epoch = r.Epoch
	}
	return n, epoch, nil
}

// close shuts the system down and waits for every goroutine it started.
func (s *system) close() {
	for _, q := range s.queues {
		q.stop()
	}
	for _, c := range s.clients {
		c.Close()
	}
	if s.hc != nil {
		s.hc.CloseIdleConnections()
	}
	for _, n := range s.nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = n.srv.Drain(ctx) // a drain that times out is followed by the hard close below
		cancel()
		if n.hs != nil {
			n.hs.Close()
		}
		n.srv.CloseBinary()
		n.ln.Close()
	}
	for _, n := range s.nodes {
		if n.served != nil {
			<-n.served
		}
		if n.cl != nil {
			n.cl.Close()
		}
		if n.st != nil {
			n.st.Close()
		}
	}
}

// connOf returns the connection a request travels on: its shard's for
// dyn workloads, its scheduled one otherwise.
func (s *system) connOf(e *entry) int8 {
	if s.w.cluster {
		return s.shardConn(int(e.tree))
	}
	return e.conn
}

// shardConn returns the connection carrying a dyn shard's traffic: the
// one to its owner, or in proxy mode the one to the other owner.
func (s *system) shardConn(shard int) int8 {
	if s.proxy {
		return 1 - s.owner[shard]
	}
	return s.owner[shard]
}

// wireQuery builds the binary query for a pooled request: routed by
// registered tree id, by dyn shard id, or (HTTP workloads' ad-hoc trees)
// by parent array.
func (s *system) wireQuery(e *entry) wire.Query {
	td := s.p.trees[e.tree]
	var q wire.Query
	switch {
	case s.shardIDs != nil:
		q.ShardID = s.shardIDs[e.tree]
	case s.w.proto == protoHTTP:
		q.Parents = td.parents
	default:
		q.TreeID = td.treeID
	}
	switch e.kind {
	case kLCA:
		q.Kind, q.Queries = wire.KindLCA, td.lcaWire[e.idx]
	case kTreefix, kTopDown:
		q.Kind, q.Op, q.Vals = wire.KindTreefix, treefixOps[e.fop].Name, td.vals[e.idx]
		if e.kind == kTopDown {
			q.Kind = wire.KindTopDown
		}
	case kMinCut:
		q.Kind, q.Edges = wire.KindMinCut, td.edgesWire[e.idx]
	}
	return q
}

// queryRequest builds the JSON twin of wireQuery.
func (s *system) queryRequest(e *entry) server.QueryRequest {
	q := s.wireQuery(e)
	req := server.QueryRequest{TreeID: q.TreeID, Parents: q.Parents, Kind: wire.KindName(q.Kind), Op: q.Op, Vals: q.Vals}
	for _, lq := range q.Queries {
		req.Queries = append(req.Queries, server.LCAQuery{U: lq.U, V: lq.V})
	}
	for _, ed := range q.Edges {
		req.Edges = append(req.Edges, server.GraphEdge{U: ed.U, V: ed.V, W: ed.W})
	}
	return req
}

// result builds the correct reply to a pooled request from the
// sequential oracles.
func (p *pool) result(e *entry) wire.Result {
	td := p.trees[e.tree]
	res := wire.Result{ID: uint64(max(e.id, 0))}
	switch e.kind {
	case kLCA:
		res.Kind, res.Answers = wire.KindLCA, td.lcaWant[e.idx]
	case kTreefix:
		res.Kind, res.Sums = wire.KindTreefix, treefix.SequentialBottomUp(td.t, td.vals[e.idx], treefixOps[e.fop])
	case kTopDown:
		res.Kind, res.Sums = wire.KindTopDown, treefix.SequentialTopDown(td.t, td.vals[e.idx], treefixOps[e.fop])
	case kMinCut:
		c := td.cutWant[e.idx]
		res.Kind, res.MinWeight, res.ArgVertex = wire.KindMinCut, c.weight, c.arg
	}
	return res
}
