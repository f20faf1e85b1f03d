package cluster

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"spatialtree/internal/engine"
	"spatialtree/internal/persist"
	"spatialtree/internal/server"
	"spatialtree/internal/wire"
)

// DefaultDownFor is how long a peer stays quarantined after a failed
// dial or call before routing optimistically retries it.
const DefaultDownFor = 500 * time.Millisecond

// Options configures a Node beyond what server.Cluster carries.
type Options struct {
	// ReplicaDir, when non-empty, roots a persist.Store for the replicas
	// this node follows for other owners — separate from the server's
	// own store, so boot recovery never confuses a followed copy with an
	// owned shard. It opens with the server store's options (fsync,
	// compaction threshold, segment size), only its Dir replaced. Empty
	// keeps replicas in memory only (they survive owner failover, not a
	// restart of this node).
	ReplicaDir string
	// DownFor is the liveness quarantine after a failed dial or call
	// (0 means DefaultDownFor).
	DownFor time.Duration
	// Dial configures the peer connections (zero takes the package's
	// defaults: bounded dial/read/write, no redirect-following — hops
	// are the ring's business, not the transport's).
	Dial wire.DialOptions
}

// Node is one member of the cluster: it routes dyn-shard requests by
// consistent hash over the peer list, replicates the shards it owns to
// its ring successors, and follows replicas for the owners it succeeds.
// Install it with server.SetCluster (New does so); all methods are safe
// for concurrent use.
type Node struct {
	srv   *server.Server
	cfg   server.Cluster
	ring  *Ring
	store *persist.Store // replica store; nil = in-memory replicas
	opts  Options

	peers map[string]*peer // fixed at New; the *peer values self-lock

	stop     chan struct{} // closed by Close; unblocks workers and waiters
	stopOnce sync.Once
	wg       sync.WaitGroup

	mu     sync.Mutex //spatialvet:lockclass routing
	shards map[string]*shard
	seq    uint64
}

// shard is one cluster shard's state on this node, whatever its role:
// the owner's pipeline, the copy a follower keeps, a pending rejoin
// handback and the followers an owner stopped shipping to. pipe and mu
// are both cluster-class locks, so neither is ever taken while holding
// the other.
type shard struct {
	// pipe serializes the owner's mutate→ship→ack pipeline; a handback
	// grant fences and releases the shard under it.
	pipe sync.Mutex //spatialvet:lockclass cluster
	// mu serializes applies to the followed copy against its promotion,
	// its replacement and grants read from it.
	mu  sync.Mutex        //spatialvet:lockclass cluster
	rep *engine.DynEngine // the followed copy; nil when discarded or never received
	// followed keeps the shard in /v1/cluster/status's replica cursors
	// (at 0 once its copy is discarded) until a promotion serves it.
	followed bool

	// Under Node.mu: the pending rejoin handback, and the terminal ship
	// suspensions (follower → refusal).
	hb        *handback
	conflicts map[string]string
}

// follow makes de (nil: none) the copy this node follows, dropping the
// durable state of the copy it supersedes; sh.mu is held.
func (sh *shard) follow(de *engine.DynEngine) error {
	var err error
	if sh.rep != nil && sh.rep != de {
		err = sh.rep.Journal().Drop()
	}
	sh.rep, sh.followed = de, true
	return err
}

// cursor returns the followed copy's apply cursor — the epoch of the
// last record it holds, 0 without a copy — and whether this node
// follows the shard at all.
func (sh *shard) cursor() (uint64, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.rep == nil {
		return 0, sh.followed
	}
	return sh.rep.Epoch(), sh.followed
}

// peer tracks one remote member: its client connection and its
// liveness quarantine. The zero downUntil means "assumed live".
type peer struct {
	addr string

	mu        sync.Mutex //spatialvet:lockclass routing
	c         *wire.Client
	downUntil time.Time
	// probeStart is when the current half-open probe was granted: after
	// downUntil expires, exactly one alive() caller per DownFor window
	// reports the peer live (and so dials it); everyone else keeps
	// routing around until the probe resolves. Zero means no probe out.
	probeStart time.Time
	// gen counts liveness transitions (markDown). A dial that started
	// before a markDown must not register its connection and erase the
	// fresher quarantine.
	gen uint64
	// closed refuses further client registrations after Close, so a
	// dial racing shutdown cannot strand an open connection in c.
	closed bool
}

// New builds the cluster tier for srv's Cluster configuration, recovers
// any replicas found under opts.ReplicaDir, and installs the node as
// srv's cluster hooks. Call after server recovery (so owned shards are
// back before routing starts) and before serving traffic.
func New(srv *server.Server, opts Options) (*Node, error) {
	cfg := srv.ClusterConfig()
	if !cfg.Enabled() {
		return nil, fmt.Errorf("cluster: no peers configured")
	}
	self := false
	for _, p := range cfg.Peers {
		if p == cfg.Self {
			self = true
			break
		}
	}
	if cfg.Self == "" || !self {
		return nil, fmt.Errorf("cluster: self address %q must appear in the peer list", cfg.Self)
	}
	if opts.DownFor <= 0 {
		opts.DownFor = DefaultDownFor
	}
	n := &Node{
		srv:    srv,
		cfg:    cfg,
		ring:   NewRing(cfg.Peers, cfg.VirtualNodes),
		opts:   opts,
		peers:  make(map[string]*peer),
		stop:   make(chan struct{}),
		shards: make(map[string]*shard),
	}
	for _, addr := range n.ring.Nodes() {
		if addr != cfg.Self {
			n.peers[addr] = &peer{addr: addr}
		}
	}
	if opts.ReplicaDir != "" {
		ropts := srv.StoreOptions()
		ropts.Dir = opts.ReplicaDir
		st, err := persist.Open(ropts)
		if err != nil {
			return nil, fmt.Errorf("cluster: replica store: %w", err)
		}
		n.store = st
		if err := n.recoverReplicas(); err != nil {
			_ = st.Close()
			return nil, err
		}
	}
	// Seed the shard-id sequence past everything already on disk, so a
	// restarted (or failed-over) owner never re-issues a taken id.
	for _, id := range srv.DynShardIDs() {
		n.bumpSeq(id)
	}
	// Recovered shards this node owns by ring enter handback instead of
	// serving: a successor may have moved their history on while this
	// node was down (see handback.go).
	pending := n.detectRejoins()
	srv.SetCluster(n)
	if pending {
		n.wg.Add(1)
		go n.runHandbacks()
	}
	return n, nil
}

// Close tears down peer connections and the replica store. The node
// stays installed in the server (hooks have no un-install); Close is
// for process shutdown. Clients close before the workers are awaited,
// so a handback round blocked in a call fails over to the stop signal
// instead of running out its read timeout.
func (n *Node) Close() error {
	for _, p := range n.peers {
		p.mu.Lock()
		c := p.c
		p.c = nil
		p.closed = true
		p.mu.Unlock()
		if c != nil {
			_ = c.Close()
		}
	}
	n.stopOnce.Do(func() { close(n.stop) })
	n.wg.Wait()
	if n.store != nil {
		return n.store.Close()
	}
	return nil
}

// Self returns this node's advertise address.
func (n *Node) Self() string { return n.cfg.Self }

// alive reports the routing view of addr: self is always live, a
// remote peer is live when connected or never quarantined. An expired
// quarantine does not flip the peer live for everyone at once — that
// would stampede every routing loop into dialing a possibly-still-dead
// peer in the same instant. Instead the first caller per DownFor window
// takes a half-open probe token (its dial revalidates the peer: success
// clears the quarantine, failure re-quarantines) and the rest keep
// routing around until the probe resolves.
func (n *Node) alive(addr string) bool {
	if addr == n.cfg.Self {
		return true
	}
	p := n.peers[addr]
	if p == nil {
		return false
	}
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.c != nil {
		return true
	}
	if p.downUntil.IsZero() {
		return true
	}
	if now.Before(p.downUntil) {
		return false
	}
	if !p.probeStart.IsZero() && now.Sub(p.probeStart) < n.opts.DownFor {
		return false // another caller holds the half-open probe
	}
	p.probeStart = now
	return true
}

// aliveObserved is alive without the probe-token side effect — the
// status view, which reports liveness but must not consume half-open
// probe slots routing would otherwise use.
func (n *Node) aliveObserved(addr string) bool {
	if addr == n.cfg.Self {
		return true
	}
	p := n.peers[addr]
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.c != nil {
		return true
	}
	return p.downUntil.IsZero() || !time.Now().Before(p.downUntil)
}

// call runs f on a connected client for addr: the one peer hop every
// proxy, replication ship and handback conversation takes. down
// reports a transport failure — a failed dial, or a call that failed on
// a connection that was open — after which addr is quarantined. A
// peer's own error reply comes back re-rendered exactly as the peer
// classified it, with down false.
func (n *Node) call(addr string, f func(*wire.Client) error) (down bool, err error) {
	c, err := n.client(addr)
	if err != nil {
		return true, err
	}
	if err = f(c); err == nil {
		return false, nil
	}
	if serr := fromWireError(err); serr != nil {
		return false, serr
	}
	n.markDown(addr)
	return true, err
}

// client returns a connected client for addr, dialing if needed. A
// registered client whose connection ended on its own — the peer's
// idle timeout closed it, say — is no sign the peer is down: it is
// dropped and redialed. A failed dial quarantines the peer and reports
// it unavailable. The registration re-checks the peer's state after
// the (unlocked) dial: a markDown or Close that landed while the dial
// was in flight is fresher than the new connection, which is closed
// instead of registered — otherwise a slow dial could erase a newer
// quarantine, or strand an open client in a peer the node already tore
// down.
func (n *Node) client(addr string) (*wire.Client, error) {
	p := n.peers[addr]
	if p == nil {
		return nil, server.Errf(server.StatusInternal, "cluster: %s is not a peer", addr)
	}
	p.mu.Lock()
	c := p.c
	down := !p.downUntil.IsZero() && time.Now().Before(p.downUntil)
	gen := p.gen
	p.mu.Unlock()
	if c != nil {
		if c.Err() == nil {
			return c, nil
		}
		p.mu.Lock()
		if p.c == c {
			p.c = nil
		}
		p.mu.Unlock()
	}
	if down {
		return nil, server.Errf(server.StatusUnavailable, "cluster: peer %s is down", addr)
	}
	cc, err := wire.Dial(addr, n.dialOpts())
	if err != nil {
		n.markDown(addr)
		return nil, server.Err(server.StatusUnavailable, fmt.Errorf("cluster: dial %s: %w", addr, err))
	}
	p.mu.Lock()
	switch {
	case p.closed:
		p.mu.Unlock()
		_ = cc.Close()
		return nil, server.Errf(server.StatusUnavailable, "cluster: node is shut down")
	case p.c != nil:
		prior := p.c
		p.mu.Unlock()
		_ = cc.Close() // lost a dial race; keep the registered client
		return prior, nil
	case p.gen != gen:
		p.mu.Unlock()
		_ = cc.Close() // a markDown outran this dial; honor its quarantine
		return nil, server.Errf(server.StatusUnavailable, "cluster: peer %s is down", addr)
	}
	p.c = cc
	p.downUntil, p.probeStart = time.Time{}, time.Time{}
	p.mu.Unlock()
	return cc, nil
}

// markDown quarantines addr for DownFor and drops its client, failing
// that client's in-flight calls. A liveness transition also voids any
// terminal conflict classifications for the peer — a restart is exactly
// what resolves conflicting ownership views, so the next successful
// ship re-evaluates from scratch.
func (n *Node) markDown(addr string) {
	p := n.peers[addr]
	if p == nil {
		return
	}
	p.mu.Lock()
	c := p.c
	p.c = nil
	p.downUntil = time.Now().Add(n.opts.DownFor)
	p.probeStart = time.Time{}
	p.gen++
	p.mu.Unlock()
	if c != nil {
		_ = c.Close()
	}
	n.clearPeerConflicts(addr)
}

// markLive clears addr's quarantine on direct evidence the peer is up —
// an inbound handback claim from it — which is fresher than whatever
// failed dial quarantined it.
func (n *Node) markLive(addr string) {
	p := n.peers[addr]
	if p == nil {
		return
	}
	p.mu.Lock()
	p.downUntil, p.probeStart = time.Time{}, time.Time{}
	p.mu.Unlock()
}

// markConflict records a terminal replication suspension: follower addr
// refuses applies for shard id and re-shipping cannot fix it (it serves
// the shard itself — conflicting ownership views). The owner's ship
// loop skips the pair until a handback or liveness transition clears
// it, and /v1/cluster/status surfaces it.
func (n *Node) markConflict(id, addr, msg string) {
	if msg == "" {
		msg = "refused"
	}
	sh := n.shard(id, true)
	n.mu.Lock()
	if sh.conflicts == nil {
		sh.conflicts = make(map[string]string)
	}
	sh.conflicts[addr] = msg
	n.mu.Unlock()
}

// conflicted reports whether shipping id to addr is suspended.
func (n *Node) conflicted(id, addr string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	sh := n.shards[id]
	return sh != nil && sh.conflicts[addr] != ""
}

// clearPeerConflicts voids every suspension involving addr.
func (n *Node) clearPeerConflicts(addr string) {
	n.mu.Lock()
	for _, sh := range n.shards {
		delete(sh.conflicts, addr)
	}
	n.mu.Unlock()
}

func (n *Node) dialOpts() wire.DialOptions {
	o := n.opts.Dial
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.ReadTimeout <= 0 {
		o.ReadTimeout = 30 * time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 10 * time.Second
	}
	return o
}

// fromWireError converts a peer's protocol-level error into the local
// status vocabulary, so a proxied error re-renders at this edge exactly
// as the owner classified it. Returns nil for transport errors — those
// are liveness events, which call turns into a quarantine.
func fromWireError(err error) error {
	var we *wire.Error
	if !errors.As(err, &we) {
		return nil
	}
	if we.Status == wire.StatusRedirect {
		return server.RedirectTo(we.Msg)
	}
	return server.Err(server.StatusFromWire(we.Status), errors.New(we.Msg))
}

// Shard ids. Cluster-created dyn shards embed their ring key so any
// node can route them without a directory: "c<16-hex key>-<seq>". Ids
// without the prefix (the single-node "d<n>" ids) are node-local and
// never routed.

// shardKey extracts the ring key from a cluster shard id.
func shardKey(id string) (uint64, bool) {
	rest, ok := strings.CutPrefix(id, "c")
	if !ok {
		return 0, false
	}
	hexKey, seq, ok := strings.Cut(rest, "-")
	if !ok || len(hexKey) != 16 || seq == "" {
		return 0, false
	}
	key, err := strconv.ParseUint(hexKey, 16, 64)
	if err != nil {
		return 0, false
	}
	if _, err := strconv.ParseUint(seq, 10, 64); err != nil {
		return 0, false
	}
	return key, true
}

// shardSeq extracts the sequence component of a cluster shard id.
func shardSeq(id string) (uint64, bool) {
	if _, ok := shardKey(id); !ok {
		return 0, false
	}
	seq, err := strconv.ParseUint(id[strings.LastIndexByte(id, '-')+1:], 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// nextShardID issues a fresh cluster shard id for key.
func (n *Node) nextShardID(key uint64) string {
	n.mu.Lock()
	n.seq++
	s := n.seq
	n.mu.Unlock()
	return fmt.Sprintf("c%016x-%d", key, s)
}

// bumpSeq advances the id sequence past an observed shard id, keeping
// ids unique across restarts and failovers.
func (n *Node) bumpSeq(id string) {
	seq, ok := shardSeq(id)
	if !ok {
		return
	}
	n.mu.Lock()
	if seq > n.seq {
		n.seq = seq
	}
	n.mu.Unlock()
}

// shard returns the record of shard id, creating it when create is set.
// Paths that only read a record pass false, so requests and shipments
// naming unknown ids do not grow the table.
func (n *Node) shard(id string, create bool) *shard {
	n.mu.Lock()
	defer n.mu.Unlock()
	sh := n.shards[id]
	if sh == nil && create {
		sh = &shard{}
		n.shards[id] = sh
	}
	return sh
}

// Status implements server.ClusterHooks.
func (n *Node) Status() server.ClusterStatus {
	st := server.ClusterStatus{
		Self:         n.cfg.Self,
		Replicas:     n.cfg.Replicas,
		VirtualNodes: n.cfg.VirtualNodes,
		Redirect:     n.cfg.Redirect,
	}
	for _, addr := range n.ring.Nodes() {
		st.Peers = append(st.Peers, server.ClusterPeer{
			Addr:  addr,
			Alive: n.aliveObserved(addr), // observation only: status must not consume probe tokens
			Self:  addr == n.cfg.Self,
		})
	}
	st.Owned = n.srv.DynShardIDs()
	sort.Strings(st.Owned)
	// Copy the shard table out, then read cursors lock-free of n.mu:
	// cursor() takes the shard's and the engine's locks, which never nest
	// under a routing-class lock.
	n.mu.Lock()
	shards := make(map[string]*shard, len(n.shards))
	for id, sh := range n.shards {
		shards[id] = sh
		if sh.hb != nil {
			st.Handbacks = append(st.Handbacks, id)
		}
		for addr, msg := range sh.conflicts {
			st.Conflicts = append(st.Conflicts, server.ClusterConflict{Shard: id, Peer: addr, Msg: msg})
		}
	}
	n.mu.Unlock()
	sort.Strings(st.Handbacks)
	sort.Slice(st.Conflicts, func(i, j int) bool {
		a, b := st.Conflicts[i], st.Conflicts[j]
		if a.Shard != b.Shard {
			return a.Shard < b.Shard
		}
		return a.Peer < b.Peer
	})
	for id, sh := range shards {
		if cur, followed := sh.cursor(); followed {
			if st.ReplicaCursors == nil {
				st.ReplicaCursors = make(map[string]uint64)
			}
			st.ReplicaCursors[id] = cur
		}
	}
	return st
}
