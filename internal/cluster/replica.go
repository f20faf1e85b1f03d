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
	"sync"

	"spatialtree/internal/engine"
	"spatialtree/internal/persist"
	"spatialtree/internal/wire"
)

// replica is one followed shard. The mutex serializes applies against
// promotion and against snapshot replacement; de == nil means the
// replica was discarded (or promoted) and needs a snapshot resync.
type replica struct {
	mu sync.Mutex //spatialvet:lockclass cluster
	de *engine.DynEngine
}

// cursor returns the replica's apply cursor: the epoch of the last
// record it holds. Idempotency pivot for the owner's shipping.
func (rep *replica) cursor() uint64 {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if rep.de == nil {
		return 0
	}
	return rep.de.Epoch()
}

// replicaEntry returns (creating if needed) the replica slot for id.
func (n *Node) replicaEntry(id string) *replica {
	n.bumpSeq(id)
	n.mu.Lock()
	defer n.mu.Unlock()
	rep := n.reps[id]
	if rep == nil {
		rep = &replica{}
		n.reps[id] = rep
	}
	return rep
}

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
	rep := n.replicaEntry(id)
	rep.mu.Lock()
	defer rep.mu.Unlock()
	// The snapshot supersedes the old copy, wherever it journals: the
	// replica store, or the server store for a copy demoted at boot
	// (rejoin handback). Dropping it keeps a later restart from
	// resurrecting it.
	if rep.de != nil {
		if err := rep.de.Journal().Drop(); err != nil {
			return 0, wire.AckRefused, err.Error()
		}
		rep.de = nil
	}
	if n.store != nil {
		log, err := n.store.CreateShardLog(id, snap)
		if err != nil {
			return 0, wire.AckRefused, err.Error()
		}
		de.SetJournal(log)
	}
	rep.de = de
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
	n.mu.Lock()
	rep := n.reps[id]
	n.mu.Unlock()
	if rep == nil {
		return 0, wire.AckNeedSync, "no replica of " + id
	}
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if rep.de == nil {
		return 0, wire.AckNeedSync, "replica of " + id + " was discarded"
	}
	for _, r := range recs {
		err := rep.de.ApplyRecord(r)
		switch {
		case err == nil:
		case errors.Is(err, engine.ErrReplicaGap):
			return rep.de.Epoch(), wire.AckNeedSync, err.Error()
		default:
			discardReplicaLocked(rep)
			return 0, wire.AckRefused, err.Error()
		}
	}
	return rep.de.Epoch(), wire.AckOK, ""
}

// discardReplicaLocked abandons a replica (caller holds rep.mu): the
// engine is dropped together with its durable copy — from the server
// store, for a copy demoted at boot by the rejoin path — and the next
// shipment gets AckNeedSync, prompting the owner to rebuild from a
// snapshot.
func discardReplicaLocked(rep *replica) {
	_ = rep.de.Journal().Drop() // a failed removal surfaces when the next snapshot recreates the copy
	rep.de = nil
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
		n.reps[id] = &replica{de: de}
		n.bumpSeq(id)
	}
	return nil
}
