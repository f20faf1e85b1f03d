package server

// The seam between the single-node serving core and the cluster tier
// (internal/cluster). The server never imports the cluster package;
// instead the daemon installs a ClusterHooks implementation with
// SetCluster, and the dyn-shard entry points — HTTP handlers and the
// binary listener alike — dispatch through it. A nil hooks value (the
// default) is the single-node fast path: every dispatcher falls through
// to the local core below with no extra locking beyond one atomic load.
//
// The split keeps the dependency arrow pointing one way: cluster
// imports server for the local cores (DynMutate, DynCreateLocal,
// AdoptDynShard), server knows cluster only as this interface.

import (
	"fmt"
	"net/http"
	"strconv"

	"spatialtree/internal/engine"
	"spatialtree/internal/exec"
	"spatialtree/internal/persist"
	"spatialtree/internal/tree"
	"spatialtree/internal/wire"
)

// MutateResult is the outcome of one applied dyn-shard mutation, the
// protocol-neutral twin of MutateResponse / wire.Mutated.
type MutateResult struct {
	// Vertex is the inserted leaf's id (OpInsert).
	Vertex int
	// Moved is the old id renumbered into the deleted slot (OpDelete).
	Moved int
	// Epoch and N describe the shard after the mutation.
	Epoch uint64
	N     int
}

// DynCreateResult is the outcome of a dyn-shard creation, the
// protocol-neutral twin of DynCreateResponse / wire.DynCreated.
type DynCreateResult struct {
	ID      string
	N       int
	Backend string
}

// ClusterHooks is what a cluster node plugs into the server: every
// dyn-shard request routes through it when installed. Implementations
// must be safe for concurrent use; errors surface through Classify, so
// they should carry a Status (or a redirect) when the default
// StatusInternal is wrong.
type ClusterHooks interface {
	// DynCreate routes a shard creation: hash the tree, create at the
	// owner (locally or by proxy), arm replication.
	DynCreate(parents []int, epsilon float64, backend string) (DynCreateResult, error)

	// Mutate routes one mutation. At the owner it applies locally and
	// blocks until the configured replicas acked the shipped record; at
	// a non-owner it proxies or returns a redirect error.
	Mutate(shardID string, op uint8, arg int) (MutateResult, error)

	// ShardQuery routes a query for a dyn shard (q.ShardID) this node
	// does not serve. It returns the owner's result (proxied) or an
	// error (redirect, owner unreachable); a nil result with a nil error
	// means the shard is (or should be) local — the caller serves it
	// from its own table. q belongs to the caller: forward a copy.
	ShardQuery(q *wire.Query) (*wire.Result, error)

	// ApplySnapshot and ApplyRecords are the follower half of the
	// replication conversation (FrameRepSnapshot / FrameRepRecords):
	// they return the replica's apply cursor and an Ack* code.
	ApplySnapshot(shardID string, blob []byte) (cursor uint64, code uint8, msg string)
	ApplyRecords(shardID string, recs []wire.RepRecord) (cursor uint64, code uint8, msg string)

	// Handback serves the successor half of rejoin reconciliation
	// (FrameHandbackOffer): diff cursors against the offer, and on a
	// claim fence the shard, release it from serving, and describe how
	// the rejoiner reaches the fence. The grant's ID and ShardID are the
	// transport's to fill.
	Handback(offer *wire.HandbackOffer) *wire.HandbackGrant

	// Status snapshots this node's view of the ring for
	// GET /v1/cluster/status.
	Status() ClusterStatus
}

// SetCluster installs the cluster tier. Install before serving traffic;
// the hooks stay for the server's lifetime (there is no un-install —
// a node leaves a cluster by restarting without peers).
func (s *Server) SetCluster(h ClusterHooks) { s.cluster.Store(&h) }

// clusterHooks returns the installed hooks, or nil on a single node.
func (s *Server) clusterHooks() ClusterHooks {
	p := s.cluster.Load()
	if p == nil {
		return nil
	}
	return *p
}

// mutate dispatches one dyn mutation: through the cluster tier when
// installed, else straight to the local core.
func (s *Server) mutate(id string, op uint8, arg int) (MutateResult, error) {
	if h := s.clusterHooks(); h != nil {
		return h.Mutate(id, op, arg)
	}
	return s.DynMutate(id, op, arg)
}

// dynCreate dispatches one dyn-shard creation.
func (s *Server) dynCreate(parents []int, epsilon float64, backend string) (DynCreateResult, error) {
	if h := s.clusterHooks(); h != nil {
		return h.DynCreate(parents, epsilon, backend)
	}
	return s.DynCreateLocal("", parents, epsilon, backend)
}

// DynMutate applies one mutation to a locally served dyn shard: the
// single-node mutation core, also the cluster owner's apply step. op is
// wire.OpInsert (arg = parent) or wire.OpDelete (arg = leaf).
func (s *Server) DynMutate(id string, op uint8, arg int) (MutateResult, error) {
	s.mu.Lock()
	de := s.dyns[id]
	s.mu.Unlock()
	if de == nil {
		return MutateResult{}, statusErrf(StatusNotFound, "unknown shard_id %s", id)
	}
	var res MutateResult
	var err error
	epochBefore := de.Epoch()
	switch op {
	case wire.OpInsert:
		res.Vertex, err = de.InsertLeaf(arg)
	case wire.OpDelete:
		res.Moved, err = de.DeleteLeaf(arg)
	default:
		return MutateResult{}, statusErrf(StatusBadRequest, "unknown mutation op %d (want %d=insert or %d=delete)", op, wire.OpInsert, wire.OpDelete)
	}
	if err != nil {
		// An error with the epoch bumped means the mutation applied but
		// the layout's post-mutation rebuild failed — or its journal
		// append did — server-side degradation, not a bad request.
		// (Epoch comparison can misread under concurrent mutations on
		// one shard; the worst case is an internal status for what was a
		// bad request, which errs on the honest side.) A journal failure
		// leaves the log behind the engine; repairJournal re-snapshots to
		// close the gap so one transient disk error cannot wedge
		// durability for the rest of the process.
		st := StatusBadRequest
		if de.Epoch() != epochBefore {
			st = StatusInternal
			s.repairJournal(id, de)
		}
		return MutateResult{}, statusErr(st, err)
	}
	res.Epoch, res.N = de.Epoch(), de.N()
	s.maybeCompact(id, de)
	return res, nil
}

// DynCreateLocal creates a dyn shard on this node: the single-node
// creation core, also the cluster owner's create step. id "" assigns
// the next local id ("d<seq>"); a non-empty id is the cluster tier's
// (ring-routable) choice. The order of checks is part of the API
// contract: request faults (bad parents, unknown backend) are reported
// before the shard budget, so a client cannot be told "too many" for a
// request that could never succeed.
func (s *Server) DynCreateLocal(id string, parents []int, epsilon float64, backend string) (DynCreateResult, error) {
	t, err := tree.FromParents(parents)
	if err != nil {
		return DynCreateResult{}, statusErr(StatusBadRequest, err)
	}
	if backend != "" && !exec.Valid(backend) {
		return DynCreateResult{}, statusErrf(StatusBadRequest, "unknown backend %q (want %q or %q)", backend, exec.Native, exec.Sim)
	}
	if s.pool.Size() >= s.cfg.Limits.MaxShards {
		return DynCreateResult{}, errShardLimit
	}
	eps := epsilon
	if eps <= 0 {
		eps = s.cfg.Epsilon
	}
	be := backend
	if be == "" {
		be = s.cfg.Backend
	}
	de, err := s.pool.NewDynShardBackend(t, eps, be)
	if err != nil {
		return DynCreateResult{}, err
	}
	if id == "" {
		s.mu.Lock()
		s.nextDyn++
		id = "d" + strconv.Itoa(s.nextDyn)
		s.mu.Unlock()
	}
	// Durability before routability: the shard becomes addressable only
	// once its initial snapshot and WAL exist, so no mutation can ever
	// precede its log. On persistence failure the pool keeps an
	// unroutable shard until restart — an acceptable leak on a path
	// that only fails with the disk.
	if err := s.persistDynCreate(id, de); err != nil {
		return DynCreateResult{}, err
	}
	s.mu.Lock()
	if _, dup := s.dyns[id]; dup {
		s.mu.Unlock()
		return DynCreateResult{}, statusErrf(StatusBadRequest, "shard_id %s already exists", id)
	}
	s.dyns[id] = de
	s.backends[id] = de.Backend()
	s.mu.Unlock()
	// Outside s.mu: Adopt installs the profile observer under the
	// engine's own lock, and routing must not nest under it.
	if s.tuner != nil {
		s.tuner.Adopt(id, de)
	}
	return DynCreateResult{ID: id, N: t.N(), Backend: de.Backend()}, nil
}

// DynShard returns the locally served dyn engine for id, if any. The
// cluster tier uses it to snapshot owned shards for replication.
func (s *Server) DynShard(id string) (*engine.DynEngine, bool) {
	s.mu.Lock()
	de := s.dyns[id]
	s.mu.Unlock()
	return de, de != nil
}

// DynShardLog returns the WAL behind a locally served dyn shard, if
// durability is enabled. The cluster tier ships its records to resync a
// lagging follower.
func (s *Server) DynShardLog(id string) (*persist.ShardLog, bool) {
	s.mu.Lock()
	l := s.logs[id]
	s.mu.Unlock()
	return l, l != nil
}

// DynShardIDs lists the locally served dyn shard ids.
func (s *Server) DynShardIDs() []string {
	s.mu.Lock()
	ids := make([]string, 0, len(s.dyns))
	for id := range s.dyns {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	return ids
}

// AdoptDynShard installs an already-built dyn engine into the serving
// table — the cluster tier's failover step: a successor promotes the
// replica it was following into a served shard. A non-nil log becomes
// the shard's journal (mutations applied after adoption append to it),
// so the promoted shard keeps the durability it had as a replica.
// Adoption is idempotent-by-refusal: it fails if id is already served,
// which a racing double-promotion would otherwise corrupt.
func (s *Server) AdoptDynShard(id string, de *engine.DynEngine, log *persist.ShardLog) error {
	if log != nil {
		de.SetJournal(s.journalFunc(log))
	}
	s.mu.Lock()
	if _, dup := s.dyns[id]; dup {
		s.mu.Unlock()
		return fmt.Errorf("server: shard %s already served", id)
	}
	s.dyns[id] = de
	if log != nil {
		s.logs[id] = log
	}
	s.backends[id] = de.Backend()
	s.mu.Unlock()
	// Outside s.mu: the pool's mutex is routing-class too, and routing
	// locks do not nest.
	s.pool.AdoptDynShard(de)
	if s.tuner != nil {
		s.tuner.Adopt(id, de)
	}
	return nil
}

// ReleaseDynShard removes a served dyn shard from the serving table and
// returns its engine and journal log — the inverse of AdoptDynShard,
// used by the cluster tier's ownership handback: a shard granted back
// to its rejoined ring owner demotes into a followed replica here. The
// id stops resolving locally the moment this returns; the engine keeps
// whatever journal it had, so mutations applied through the replica
// path retain the same durability.
func (s *Server) ReleaseDynShard(id string) (*engine.DynEngine, *persist.ShardLog, bool) {
	s.mu.Lock()
	de := s.dyns[id]
	if de == nil {
		s.mu.Unlock()
		return nil, nil, false
	}
	delete(s.dyns, id)
	log := s.logs[id]
	delete(s.logs, id)
	delete(s.backends, id)
	s.mu.Unlock()
	// Outside s.mu, like AdoptDynShard: the pool's mutex is
	// routing-class too, and routing locks do not nest. The tuner
	// release also strips the profile observer, so the handed-back
	// engine carries no callback into this server's tuner.
	s.pool.ReleaseDynShard(de)
	if s.tuner != nil {
		s.tuner.Release(id)
	}
	return de, log, true
}

// DropDynState deletes the server store's durable copy of a dyn shard
// that is not currently served. The cluster tier calls it when a
// shard's authoritative durable copy moves to the replica store during
// handback, so a later boot cannot resurrect the stale server-store
// copy as an owned shard. Serving shards are refused; without a store,
// or for ids the store does not know, it is a no-op.
func (s *Server) DropDynState(id string) error {
	s.mu.Lock()
	_, served := s.dyns[id]
	s.mu.Unlock()
	if served {
		return fmt.Errorf("server: shard %s is served; refusing to drop its durable state", id)
	}
	if s.cfg.Durability.Store == nil {
		return nil
	}
	return s.cfg.Durability.Store.DropShard(id)
}

// EngineOptions returns the serving pool's resolved engine options. The
// cluster tier builds replica engines with them (engine.RestoreDyn), so
// a promoted replica serves exactly like a pool-created shard — same
// shared cache, backend, autoflush tuning.
func (s *Server) EngineOptions() engine.Options { return s.pool.Options() }

// SnapshotDyn captures a locally served dyn shard as a persist-encoded
// snapshot blob plus the epoch it is consistent with — the payload of a
// replication FrameRepSnapshot.
func (s *Server) SnapshotDyn(id string) (blob []byte, epoch uint64, err error) {
	de, ok := s.DynShard(id)
	if !ok {
		return nil, 0, statusErrf(StatusNotFound, "unknown shard_id %s", id)
	}
	st := de.State()
	return persist.EncodeDyn(dynSnapFromState(st)), st.Epoch, nil
}

// DynStateFromSnapshot converts a decoded persist snapshot into the
// engine's restore state. Exported for the cluster tier's replica
// apply; the inverse is DynSnapshotFromState.
func DynStateFromSnapshot(snap persist.DynSnapshot) engine.DynState {
	return dynStateFromSnap(snap)
}

// DynSnapshotFromState converts an engine state capture into the
// persist codec's snapshot type.
func DynSnapshotFromState(st engine.DynState) persist.DynSnapshot {
	return dynSnapFromState(st)
}

// ClusterConfig returns the resolved cluster configuration block.
func (s *Server) ClusterConfig() Cluster { return s.cfg.Cluster }

// handleClusterStatus serves GET /v1/cluster/status.
func (s *Server) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	h := s.clusterHooks()
	if h == nil {
		writeStatus(w, StatusNotFound, "not a cluster node")
		return
	}
	writeJSON(w, http.StatusOK, h.Status())
}
