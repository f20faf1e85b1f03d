package server

// Config and its groups. PR 8 restructured the historical flat
// 15-field Config into sub-structs so each concern names its knobs in
// one place; the zero value of every group (and of Config itself)
// still yields the documented defaults, so `server.New(server.Config{})`
// keeps meaning "a serving daemon with stock tuning".

import (
	"time"

	"spatialtree/internal/exec"
	"spatialtree/internal/persist"

	"spatialtree/internal/engine"
)

// Defaults used by New when the corresponding Config field is zero.
const (
	DefaultMaxBatch      = 64
	DefaultQueueLimit    = 1024
	DefaultCacheCapacity = 128
	DefaultBodyLimit     = 64 << 20
	DefaultMaxShards     = 1024
	// DefaultTCPIdleTimeout bounds how long a binary-protocol connection
	// may sit between frames before the server hangs up — the TCP
	// equivalent of the HTTP layer's read/idle timeouts, so one silent
	// client cannot pin a connection forever.
	DefaultTCPIdleTimeout = 2 * time.Minute
	// TCPWriteTimeout bounds each binary-protocol response write.
	TCPWriteTimeout = 30 * time.Second
	// DefaultReplicas is the follower count per dyn shard in cluster
	// mode (Cluster.Replicas 0); capped at len(Peers)-1.
	DefaultReplicas = 2
	// DefaultVirtualNodes is the consistent-hash ring's vnode count per
	// peer (Cluster.VirtualNodes 0).
	DefaultVirtualNodes = 64
)

// Scheduler groups the adaptive batch scheduler's knobs.
type Scheduler struct {
	// MaxBatch is the scheduler's size trigger: a shard's pending batch
	// is dispatched as soon as it holds this many requests (0 means
	// DefaultMaxBatch).
	MaxBatch int
	// MaxDelay is an opt-in linger: when positive, a shard's pending
	// batch waits until its oldest request has waited this long (or
	// MaxBatch fills it), so concurrent requests can coalesce. 0, the
	// default, dispatches at once whenever the shard is idle and
	// coalesces requests that arrive while a batch runs into the next
	// one; see the engine package's "Batching semantics". Under the
	// linger one shard's deadline batches may overlap across cores;
	// without it a shard serves one batch at a time unless MaxBatch
	// fills another.
	MaxDelay time.Duration
}

// Limits groups the admission bounds: concurrency, memory and body
// size. Each is a refusal threshold, not a queue.
type Limits struct {
	// QueueLimit bounds concurrently admitted requests; excess traffic
	// receives 429 (0 means DefaultQueueLimit).
	QueueLimit int
	// MaxShards bounds retained per-tree serving state (registered
	// trees + mutable shards + pool shards auto-created for ad-hoc
	// query trees; 0 means DefaultMaxShards). Beyond it, registration
	// and shard creation are refused with 429, and ad-hoc query trees
	// are served from ephemeral engines instead of growing the pool —
	// admission control for memory, the way QueueLimit is admission
	// control for concurrency.
	MaxShards int
	// BodyLimit caps request body bytes (0 means DefaultBodyLimit).
	BodyLimit int64
	// CacheCapacity sizes the shared layout cache (0 means
	// DefaultCacheCapacity).
	CacheCapacity int
}

// Timeouts groups the binary-protocol connection deadlines; each
// response write is bounded by TCPWriteTimeout. (The HTTP listener's
// equivalents live on the http.Server the daemon builds.)
type Timeouts struct {
	// TCPIdle bounds the gap between frames on a binary-protocol
	// connection; an idle connection is closed when it expires (0 means
	// DefaultTCPIdleTimeout, < 0 disables the deadline — tests only).
	TCPIdle time.Duration
}

// Durability groups the persistence wiring.
type Durability struct {
	// Store, when non-nil, makes the shard table durable: registered
	// trees are persisted as their parent arrays, mutable shards as a
	// snapshot plus a mutation WAL, and Recover replays all of it on
	// boot. Nil serves everything from memory.
	Store *persist.Store
}

// Cluster groups the multi-node serving settings. A zero Cluster (no
// peers) is single-node mode: every shard is local and no routing or
// replication happens. With peers configured, the daemon joins a static
// cluster: shards are owned by consistent hash of their tree
// fingerprint across the peer list, non-owners proxy (or redirect)
// to the owner over the binary protocol, and each dyn shard's owner
// ships its snapshot and WAL records to Replicas followers, acking
// mutations only once the followers confirmed. See docs/cluster.md.
type Cluster struct {
	// Self is this node's advertise address — the binary-protocol
	// address peers use to reach it. It must appear in Peers.
	Self string
	// Peers is the static peer list: every node's advertise address,
	// identical on every node (ordering does not matter; the ring
	// hashes addresses, not indices).
	Peers []string
	// Replicas is the number of follower copies each dyn shard keeps
	// beyond the owner (0 means DefaultReplicas, capped at
	// len(Peers)-1; < 0 disables replication).
	Replicas int
	// VirtualNodes is the consistent-hash ring's vnode count per peer
	// (0 means DefaultVirtualNodes). More vnodes → better balance,
	// larger ring.
	VirtualNodes int
	// Redirect makes a non-owner answer routable requests with
	// StatusRedirect (HTTP 421) carrying the owner's address, instead
	// of proxying to the owner on the client's behalf. A caller that
	// re-issues at that address talks to owners directly; proxying
	// (the default) serves callers that do not.
	Redirect bool
}

// Enabled reports whether cluster mode is configured.
func (c Cluster) Enabled() bool { return len(c.Peers) > 0 }

// Config configures a Server. The zero value serves with stock tuning:
// every group's zero value takes the documented defaults.
type Config struct {
	// Scheduler tunes the per-shard adaptive batch scheduler.
	Scheduler Scheduler
	// Limits bounds admission: concurrency, retained shards, body size.
	Limits Limits
	// Timeouts bounds binary-protocol connection I/O.
	Timeouts Timeouts
	// Durability wires the persistent store.
	Durability Durability
	// Cluster configures multi-node serving; zero means single-node.
	Cluster Cluster

	// Curve names the space-filling curve for placements ("" means
	// "hilbert").
	Curve string
	// Seed drives the Las Vegas coins of the simulator runs.
	Seed uint64
	// Epsilon is the default drift budget of mutable shards (0 means
	// engine.DefaultEpsilon).
	Epsilon float64
	// Backend names the default execution backend shards serve on
	// ("" means "native": goroutine-parallel kernels, no simulator
	// bookkeeping on the hot path). "sim" serves every batch through the
	// spatial-computer simulator with exact model-cost metering — the
	// validation/metering deployment, an order of magnitude slower.
	// Register/create requests may override per shard; recovered shards
	// come back on this default (the backend is a serving-time knob, not
	// part of the durable state — re-register to override after boot).
	Backend string
}

// withDefaults resolves every zero field to its documented default.
func (cfg Config) withDefaults() Config {
	if cfg.Scheduler.MaxBatch <= 0 {
		cfg.Scheduler.MaxBatch = DefaultMaxBatch
	}
	if cfg.Limits.QueueLimit <= 0 {
		cfg.Limits.QueueLimit = DefaultQueueLimit
	}
	if cfg.Limits.CacheCapacity <= 0 {
		cfg.Limits.CacheCapacity = DefaultCacheCapacity
	}
	if cfg.Limits.BodyLimit <= 0 {
		cfg.Limits.BodyLimit = DefaultBodyLimit
	}
	if cfg.Limits.MaxShards <= 0 {
		cfg.Limits.MaxShards = DefaultMaxShards
	}
	if cfg.Epsilon <= 0 {
		cfg.Epsilon = engine.DefaultEpsilon
	}
	if cfg.Backend == "" {
		cfg.Backend = exec.Native
	}
	if cfg.Timeouts.TCPIdle == 0 {
		cfg.Timeouts.TCPIdle = DefaultTCPIdleTimeout
	}
	if cfg.Cluster.Enabled() {
		if cfg.Cluster.Replicas == 0 {
			cfg.Cluster.Replicas = DefaultReplicas
		}
		if cfg.Cluster.Replicas > len(cfg.Cluster.Peers)-1 {
			cfg.Cluster.Replicas = len(cfg.Cluster.Peers) - 1
		}
		if cfg.Cluster.Replicas < 0 {
			cfg.Cluster.Replicas = 0
		}
		if cfg.Cluster.VirtualNodes <= 0 {
			cfg.Cluster.VirtualNodes = DefaultVirtualNodes
		}
	}
	return cfg
}
