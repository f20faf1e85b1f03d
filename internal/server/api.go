package server

// The wire types of the HTTP/JSON API. Every request body is a JSON
// object; every response is either the documented response object
// (status 200) or an ErrorResponse (status >= 400).

// RegisterRequest registers an immutable tree with the server
// (POST /v1/trees). Parents is the parent array with parents[root] = -1.
// Backend optionally picks the shard's execution backend: "native"
// (goroutine-parallel serving, the default) or "sim" (every batch runs
// on the spatial-computer simulator with exact model-cost metering).
// Re-registering a tree with a different backend switches its one
// shard to that backend in place.
type RegisterRequest struct {
	Parents []int  `json:"parents"`
	Backend string `json:"backend,omitempty"`
}

// RegisterResponse identifies the registered tree. ID is derived from
// the structural fingerprint: registering an identical tree returns the
// same id and routes to the same shard. Backend echoes the shard's
// resolved execution backend.
type RegisterResponse struct {
	ID      string `json:"tree_id"`
	N       int    `json:"n"`
	Backend string `json:"backend"`
}

// LCAQuery asks for the lowest common ancestor of U and V.
type LCAQuery struct {
	U int `json:"u"`
	V int `json:"v"`
}

// GraphEdge is a weighted undirected edge for min-cut queries.
type GraphEdge struct {
	U int   `json:"u"`
	V int   `json:"v"`
	W int64 `json:"w"`
}

// QueryRequest submits one request to a shard (POST /v1/query and
// POST /v1/dyn/{id}/query). Kind selects the kernel: "treefix",
// "topdown", "lca", "mincut" or "expr". Exactly one of TreeID / Parents
// routes a /v1/query (setting both is a 400); the dyn endpoint ignores
// both.
//
// For kind "expr" the routed tree is interpreted as an expression tree:
// ExprKinds labels every vertex (0 = leaf, 1 = add, 2 = mul) and Vals
// carries the leaf constants (one entry per vertex; internal vertices'
// entries are ignored). The tree must be full binary — every internal
// vertex has exactly two children.
type QueryRequest struct {
	TreeID    string      `json:"tree_id,omitempty"`
	Parents   []int       `json:"parents,omitempty"`
	Kind      string      `json:"kind"`
	Op        string      `json:"op,omitempty"` // treefix/topdown: add|max|min|xor ("" = add)
	Vals      []int64     `json:"vals,omitempty"`
	Queries   []LCAQuery  `json:"queries,omitempty"`
	Edges     []GraphEdge `json:"edges,omitempty"`
	ExprKinds []int       `json:"expr_kinds,omitempty"` // expr: 0=leaf, 1=add, 2=mul per vertex
}

// Cost is the spatial-model cost attributed to a request: its
// incremental share of the shared batch simulator run.
type Cost struct {
	Energy   int64 `json:"energy"`
	Messages int64 `json:"messages"`
	Depth    int64 `json:"depth"`
}

// MinCutResult reports a 1-respecting minimum cut.
type MinCutResult struct {
	MinWeight int64 `json:"min_weight"`
	ArgVertex int   `json:"arg_vertex"`
}

// QueryResponse carries the kernel output: exactly the field matching
// the request kind is populated (Value for kind "expr").
type QueryResponse struct {
	Sums    []int64       `json:"sums,omitempty"`
	Answers []int         `json:"answers,omitempty"`
	MinCut  *MinCutResult `json:"min_cut,omitempty"`
	Value   *int64        `json:"value,omitempty"`
	Cost    Cost          `json:"cost"`
}

// DynCreateRequest creates a mutable shard (POST /v1/dyn). Backend ""
// uses the server's default execution backend (see
// RegisterRequest.Backend).
type DynCreateRequest struct {
	Parents []int `json:"parents"`
	// Epsilon is the shard's drift budget: <= 0 uses the server's
	// configured default, and one above persist.MaxEpsilon (1e6), which
	// no snapshot of the shard could hold, is a bad request.
	Epsilon float64 `json:"epsilon,omitempty"`
	Backend string  `json:"backend,omitempty"`
}

// DynCreateResponse identifies the new mutable shard. IDs are
// per-server handles (mutations change the tree's fingerprint, so
// mutable shards are routed by id, never structurally). Backend is the
// shard's resolved execution backend.
type DynCreateResponse struct {
	ID      string `json:"shard_id"`
	N       int    `json:"n"`
	Backend string `json:"backend"`
}

// MutateRequest applies one mutation to a dyn shard
// (POST /v1/dyn/{id}/mutate). Op is "insert" (Parent = attachment
// vertex) or "delete" (Leaf = vertex to remove).
type MutateRequest struct {
	Op     string `json:"op"`
	Parent int    `json:"parent,omitempty"`
	Leaf   int    `json:"leaf,omitempty"`
}

// MutateResponse reports the mutation outcome. Vertex is the id of an
// inserted leaf; Moved is the old id renumbered into a deleted slot
// (== the deleted leaf when nothing moved). Epoch and N describe the
// shard after the mutation.
type MutateResponse struct {
	Vertex int    `json:"vertex,omitempty"`
	Moved  int    `json:"moved,omitempty"`
	Epoch  uint64 `json:"epoch"`
	N      int    `json:"n"`
}

// HealthResponse is the /healthz body.
type HealthResponse struct {
	OK       bool `json:"ok"`
	Draining bool `json:"draining"`
}

// ErrorResponse is the body of every non-200 reply. Status names the
// server.Status the condition classified to (see docs/protocol.md).
// Owner is set on "redirect": the binary-protocol address of the
// cluster node owning the addressed shard (also sent as the
// X-Spatialtree-Owner header).
type ErrorResponse struct {
	Error  string `json:"error"`
	Status string `json:"status,omitempty"`
	Owner  string `json:"owner,omitempty"`
}

// ClusterPeer describes one ring member in a ClusterStatus.
type ClusterPeer struct {
	Addr  string `json:"addr"`
	Alive bool   `json:"alive"`
	Self  bool   `json:"self,omitempty"`
}

// ClusterConflict reports one terminally suspended replication pair:
// follower Peer refuses applies for Shard because it serves the shard
// itself (conflicting ownership views), so the owner stopped shipping
// to it instead of retrying forever. Handback completion or a liveness
// transition of the peer clears the entry.
type ClusterConflict struct {
	Shard string `json:"shard"`
	Peer  string `json:"peer"`
	Msg   string `json:"msg,omitempty"`
}

// ClusterStatus is the /v1/cluster/status body: this node's view of the
// ring, the dyn shards it currently owns, and the apply cursors of the
// replicas it follows for other owners.
type ClusterStatus struct {
	Self           string            `json:"self"`
	Peers          []ClusterPeer     `json:"peers"`
	Replicas       int               `json:"replicas"`
	VirtualNodes   int               `json:"virtual_nodes"`
	Redirect       bool              `json:"redirect"`
	Owned          []string          `json:"owned_shards"`
	ReplicaCursors map[string]uint64 `json:"replica_cursors,omitempty"`
	// Handbacks lists shards this node owns by ring but is still
	// reconciling after a restart: requests proxy to the covering
	// successor (or wait briefly) until each handback completes.
	Handbacks []string `json:"handbacks,omitempty"`
	// Conflicts lists replication pairs this node has suspended as
	// terminal rather than retrying forever.
	Conflicts []ClusterConflict `json:"conflicts,omitempty"`
}

// ServerMetrics reports the admission layer's counters. Both listeners
// feed them: HTTP requests and client-originated binary frames pass the
// same bounded queue.
type ServerMetrics struct {
	Accepted  uint64 `json:"accepted"`
	Rejected  uint64 `json:"rejected"`
	InFlight  int    `json:"in_flight"`
	Draining  bool   `json:"draining"`
	Trees     int    `json:"trees"`
	DynShards int    `json:"dyn_shards"`
}

// SchedulerMetrics reports the adaptive batch scheduler: configuration
// plus how traffic actually dispatched. Each batch is counted under the
// trigger that dispatched it: MaxBatch filled (SizeFlushes), the
// MaxDelay linger expired (DeadlineFlushes), or the shard was idle
// (IdleFlushes); the rest were explicit flushes, such as a drain's.
// RequestsPerBatch is the coalescing factor — values above 1 mean the
// scheduler merged concurrent requests into shared runs.
type SchedulerMetrics struct {
	MaxBatch         int     `json:"max_batch"`
	MaxDelayMillis   float64 `json:"max_delay_ms"`
	Batches          uint64  `json:"batches"`
	Requests         uint64  `json:"requests"`
	SizeFlushes      uint64  `json:"size_flushes"`
	DeadlineFlushes  uint64  `json:"deadline_flushes"`
	IdleFlushes      uint64  `json:"idle_flushes"`
	RequestsPerBatch float64 `json:"requests_per_batch"`
}

// EngineMetrics reports the kernel side of the pool's engines.
type EngineMetrics struct {
	LCAQueries uint64 `json:"lca_queries"`
	LCARuns    uint64 `json:"lca_runs"`
	Cost       Cost   `json:"cost"`
}

// CacheMetrics reports the shared layout cache.
type CacheMetrics struct {
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Evictions uint64  `json:"evictions"`
	Builds    uint64  `json:"builds"`
	Coalesced uint64  `json:"coalesced"`
	Size      int     `json:"size"`
	Capacity  int     `json:"capacity"`
	HitRate   float64 `json:"hit_rate"`
}

// BackendMetrics reports the execution-backend layer: the serving
// default and retained shards per backend (registered trees + dyn
// shards + ad-hoc pool shards).
type BackendMetrics struct {
	Default string         `json:"default"`
	Shards  map[string]int `json:"shards"`
}

// DynMetrics aggregates the mutable shards.
type DynMetrics struct {
	Shards    int    `json:"shards"`
	Epoch     uint64 `json:"epoch"`
	Inserts   uint64 `json:"inserts"`
	Deletes   uint64 `json:"deletes"`
	Rebuilds  uint64 `json:"rebuilds"`
	Refreshes uint64 `json:"refreshes"`
}

// DynStatusResponse describes a locally served mutable shard
// (GET /v1/dyn/{id}): its size, epoch and the layout configuration it
// was created (or recovered) with.
type DynStatusResponse struct {
	ID      string  `json:"shard_id"`
	N       int     `json:"n"`
	Epoch   uint64  `json:"epoch"`
	Backend string  `json:"backend"`
	Curve   string  `json:"curve"`
	Epsilon float64 `json:"epsilon"`
}

// PersistMetrics reports the durability layer; present only when the
// server was configured with a Store.
type PersistMetrics struct {
	Enabled bool `json:"enabled"`
	// JournalRecords counts the WAL records the served dyn shards' logs
	// appended in this process.
	JournalRecords uint64 `json:"journal_records"`
	// WALRecords counts records currently past their shards' snapshots
	// (replayed on the next restart).
	WALRecords uint64 `json:"wal_records"`
	// Compactions counts WAL foldings into fresh snapshots.
	Compactions uint64 `json:"compactions"`
	// RecoveredTrees / RecoveredShards / ReplayedRecords describe the
	// warm start this process performed, if any.
	RecoveredTrees  int `json:"recovered_trees"`
	RecoveredShards int `json:"recovered_shards"`
	ReplayedRecords int `json:"replayed_records"`
}

// WireMetrics reports the binary TCP protocol listener; present only
// when the daemon serves one (see docs/protocol.md).
type WireMetrics struct {
	// Conns counts accepted connections over the process lifetime;
	// ActiveConns is the current count.
	Conns       uint64 `json:"conns"`
	ActiveConns int    `json:"active_conns"`
	// Queries counts client-originated frames answered (query,
	// DynCreate and Mutate, with any status); Errors counts
	// protocol-level failures (corrupt frames, unknown frame kinds) that
	// terminated a connection.
	Queries uint64 `json:"queries"`
	Errors  uint64 `json:"errors"`
}

// MetricsResponse is the /metrics body.
type MetricsResponse struct {
	Server    ServerMetrics    `json:"server"`
	Scheduler SchedulerMetrics `json:"scheduler"`
	Engine    EngineMetrics    `json:"engine"`
	Cache     CacheMetrics     `json:"cache"`
	Backends  BackendMetrics   `json:"backends"`
	Dyn       DynMetrics       `json:"dyn"`
	Wire      *WireMetrics     `json:"wire,omitempty"`
	Persist   *PersistMetrics  `json:"persist,omitempty"`
}
