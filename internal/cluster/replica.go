package cluster

// The follower half of replication: applying shipped snapshots and WAL
// records for shards other nodes own, and recovering those replicas at
// boot. A replica is a live DynEngine held outside the serving table —
// it answers nothing until a failover promotes it (route.go). When the
// node has a replica store, the engine journals into its own
// snapshot+WAL under <ReplicaDir>/dyn/<id>, and repairs and compacts it
// exactly as an owned shard does. A copy is dropped through the engine
// that holds it, in whichever store it lives.

import (
	"errors"
	"fmt"

	"spatialtree/internal/engine"
	"spatialtree/internal/persist"
	"spatialtree/internal/wire"
)

// ApplySnapshot implements server.ClusterHooks: replace this node's
// replica of id wholesale with the shipped snapshot. The cursor moves
// to the snapshot's epoch regardless of where the old replica stood —
// a snapshot is always the owner's present, never a rewind below it.
func (n *Node) ApplySnapshot(id string, blob []byte) (uint64, uint8, string) {
	if _, served := n.srv.DynShard(id); served {
		// Both sides believe they own the shard — conflicting liveness
		// views. Refusing keeps this node's served copy authoritative
		// here; see docs/cluster.md on static-membership split-brain.
		return 0, wire.AckRefused, "shard " + id + " is served here (conflicting ownership views)"
	}
	snap, err := persist.DecodeDyn(blob)
	if err != nil {
		return 0, wire.AckRefused, "decode: " + err.Error()
	}
	de, err := engine.RestoreDyn(snap, n.srv.EngineOptions())
	if err != nil {
		return 0, wire.AckRefused, "restore: " + err.Error()
	}
	n.bumpSeq(id)
	sh := n.shard(id, true)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// The snapshot supersedes the old copy, wherever it journals: the
	// replica store, or the server store for a copy demoted at boot
	// (rejoin handback). Dropping it first frees its directory in the
	// replica store and keeps a later restart from resurrecting it.
	if err := sh.follow(nil); err != nil {
		return 0, wire.AckRefused, err.Error()
	}
	if n.store != nil {
		log, err := n.store.CreateShardLog(id, snap)
		if err != nil {
			return 0, wire.AckRefused, err.Error()
		}
		de.SetJournal(log)
	}
	_ = sh.follow(de) // the old copy is gone: nothing to drop
	return snap.Epoch, wire.AckOK, ""
}

// ApplyRecords implements server.ClusterHooks: apply shipped WAL
// records against the replica's cursor. Records at or below the cursor
// are duplicates and skip (idempotent re-delivery); a record further
// ahead than cursor+1 is a gap and asks the owner for a snapshot
// resync; a record that applies with a different result than the owner
// recorded, or that the replica's WAL could not take, discards the
// replica, so the owner rebuilds it from a snapshot. The engine repairs
// and compacts its WAL as an owned shard does; a failed compaction is
// retried on the next record.
func (n *Node) ApplyRecords(id string, recs []persist.Record) (uint64, uint8, string) {
	if _, served := n.srv.DynShard(id); served {
		return 0, wire.AckRefused, "shard " + id + " is served here (conflicting ownership views)"
	}
	sh := n.shard(id, false)
	if sh == nil {
		return 0, wire.AckNeedSync, "no replica of " + id
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.rep == nil {
		return 0, wire.AckNeedSync, "no replica of " + id
	}
	for _, r := range recs {
		err := sh.rep.ApplyRecord(r)
		switch {
		case err == nil:
		case errors.Is(err, engine.ErrReplicaGap):
			return sh.rep.Epoch(), wire.AckNeedSync, err.Error()
		default:
			// Discard the copy, durable state and all — from the server
			// store, for a copy demoted at boot by the rejoin path — so the
			// next shipment gets AckNeedSync and the owner rebuilds it from
			// a snapshot. A failed removal surfaces when that snapshot
			// recreates the copy.
			_ = sh.follow(nil)
			return 0, wire.AckRefused, err.Error()
		}
	}
	return sh.rep.Epoch(), wire.AckOK, ""
}

// recoverReplicas rebuilds the replica table from the replica store at
// boot through engine.OpenDyn, the recovery path owned shards take.
func (n *Node) recoverReplicas() error {
	ids, err := n.store.ShardIDs()
	if err != nil {
		return fmt.Errorf("cluster: replica recovery: %w", err)
	}
	for _, id := range ids {
		de, _, err := engine.OpenDyn(n.store, id, n.srv.EngineOptions())
		if err != nil {
			return fmt.Errorf("cluster: replica %s: %w", id, err)
		}
		sh := n.shard(id, true)
		sh.mu.Lock()
		_ = sh.follow(de) // a new record: nothing to drop
		sh.mu.Unlock()
		n.bumpSeq(id)
	}
	return nil
}
