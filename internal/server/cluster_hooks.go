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
// AdoptDynShard), server knows cluster only as this interface. The
// server's dyn table (s.dyns) is the only registry of served dyn
// shards: routing, Drain and /metrics all read it.

import (
	"errors"
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
	ApplyRecords(shardID string, recs []persist.Record) (cursor uint64, code uint8, msg string)

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
	switch op {
	case wire.OpInsert:
		res.Vertex, err = de.InsertLeaf(arg)
	case wire.OpDelete:
		res.Moved, err = de.DeleteLeaf(arg)
	default:
		return MutateResult{}, statusErrf(StatusBadRequest, "unknown mutation op %d (want %d=insert or %d=delete)", op, wire.OpInsert, wire.OpDelete)
	}
	if err != nil {
		// A mutation that did not apply is the request's fault
		// (engine.ErrInvalid). Any other error means it applied but the
		// layout's post-mutation rebuild failed — or its journal append
		// did, which the shard repaired with a snapshot — server-side
		// degradation, not a bad request.
		if errors.Is(err, engine.ErrInvalid) {
			return MutateResult{}, statusErr(StatusBadRequest, err)
		}
		return MutateResult{}, statusErr(StatusInternal, err)
	}
	res.Epoch, res.N = de.Epoch(), de.N()
	return res, nil
}

// DynCreateLocal creates a dyn shard on this node: the single-node
// creation core, also the cluster owner's create step. id "" assigns
// the next local id ("d<seq>"); a non-empty id is the cluster tier's
// (ring-routable) choice. The order of checks is part of the API
// contract: request faults (bad parents, unknown backend, an epsilon
// engine.CheckEpsilon refuses) are reported before the shard budget,
// so a client cannot be told "too many" for a request that could never
// succeed.
func (s *Server) DynCreateLocal(id string, parents []int, epsilon float64, backend string) (DynCreateResult, error) {
	t, err := tree.FromParents(parents)
	if err != nil {
		return DynCreateResult{}, statusErr(StatusBadRequest, err)
	}
	if backend != "" && !exec.Valid(backend) {
		return DynCreateResult{}, statusErrf(StatusBadRequest, "unknown backend %q (want %q or %q)", backend, exec.Native, exec.Sim)
	}
	if err := engine.CheckEpsilon(epsilon); err != nil {
		return DynCreateResult{}, err
	}
	if s.shardCount() >= s.cfg.Limits.MaxShards {
		return DynCreateResult{}, errShardLimit
	}
	eps := epsilon
	if eps <= 0 {
		eps = s.cfg.Epsilon
	}
	opts := s.pool.Options()
	if backend != "" {
		opts.Backend = backend
	}
	de, err := engine.NewDyn(t, engine.DynOptions{Options: opts, Epsilon: eps})
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
	// precede its log. On persistence failure nothing retains the
	// engine, so a failed create spends no shard budget.
	if err := s.persistDynCreate(id, de); err != nil {
		return DynCreateResult{}, err
	}
	s.mu.Lock()
	if _, dup := s.dyns[id]; dup {
		s.mu.Unlock()
		return DynCreateResult{}, statusErrf(StatusBadRequest, "shard_id %s already exists", id)
	}
	s.dyns[id] = de
	s.mu.Unlock()
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
// replica it was following into a served shard. The engine keeps its
// WAL, so the promoted shard keeps the durability it had as a replica.
// Adoption is idempotent-by-refusal: it fails if id is already served,
// which a racing double-promotion would otherwise corrupt.
func (s *Server) AdoptDynShard(id string, de *engine.DynEngine) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.dyns[id]; dup {
		return fmt.Errorf("server: shard %s already served", id)
	}
	s.dyns[id] = de
	return nil
}

// ReleaseDynShard removes a served dyn shard from the serving table and
// returns its engine — the inverse of AdoptDynShard, used by the
// cluster tier's ownership handback: a shard granted back to its
// rejoined ring owner demotes into a followed replica here. The id
// stops resolving locally the moment this returns; the engine keeps its
// WAL, so mutations applied through the replica path retain the same
// durability.
func (s *Server) ReleaseDynShard(id string) (*engine.DynEngine, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	de := s.dyns[id]
	delete(s.dyns, id)
	return de, de != nil
}

// EngineOptions returns the serving pool's resolved engine options. Dyn
// shards are built with them, and so are the cluster tier's replica
// engines (engine.RestoreDyn), so a promoted replica serves exactly like
// a locally created shard — same shared cache, backend, autoflush
// tuning.
func (s *Server) EngineOptions() engine.Options { return s.pool.Options() }

// StoreOptions returns the resolved options of the server's store, or
// the zero Options without one. The cluster tier opens its replica
// store with them, so replicas journal under the daemon's -fsync and
// -compact-after.
func (s *Server) StoreOptions() persist.Options {
	if s.cfg.Durability.Store == nil {
		return persist.Options{}
	}
	return s.cfg.Durability.Store.Options()
}

// DynSnapshotFromState returns st unchanged: DynEngine.State already
// produces the persist snapshot type.
//
// Deprecated: use the DynEngine.State result directly.
func DynSnapshotFromState(st persist.DynSnapshot) persist.DynSnapshot { return st }

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
