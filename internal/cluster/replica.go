package cluster

// The follower half of replication: applying shipped snapshots and WAL
// records for shards other nodes own, and recovering those replicas at
// boot. A replica is a live DynEngine held outside the serving table —
// it answers nothing until a failover promotes it (route.go) — plus,
// when the node has a replica store, its own snapshot+WAL under
// <ReplicaDir>/dyn/<id>, kept by the same journal discipline as an
// owned shard's.

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
	mu  sync.Mutex //spatialvet:lockclass cluster
	de  *engine.DynEngine
	log *persist.ShardLog
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
	// A replica demoted at boot (rejoin handback) journals into the
	// server store; once the snapshot supersedes it, that copy is stale
	// on both counts — drop it so a later restart cannot resurrect it.
	// For ordinary followers the server store holds nothing and this is
	// a no-op.
	_ = n.srv.DropDynState(id)
	var log *persist.ShardLog
	if n.store != nil {
		// Reset the durable copy to match: the old log (if any) is
		// superseded by the snapshot being newer than anything in it.
		if err := n.store.DropShard(id); err != nil {
			return 0, wire.AckRefused, err.Error()
		}
		log, err = n.store.CreateShardLog(id, snap)
		if err != nil {
			return 0, wire.AckRefused, err.Error()
		}
		de.SetJournal(log.Append)
	}
	rep.de, rep.log = de, log
	return snap.Epoch, wire.AckOK, ""
}

// ApplyRecords implements server.ClusterHooks: apply shipped WAL
// records against the replica's cursor. Records at or below the cursor
// are duplicates and skip (idempotent re-delivery); a record further
// ahead than cursor+1 is a gap and asks the owner for a snapshot
// resync; a record that applies with a different result than the owner
// recorded means the copies diverged — the replica is discarded so the
// owner rebuilds it from a snapshot.
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
			n.discardReplicaLocked(id, rep)
			return 0, wire.AckRefused, err.Error()
		}
	}
	if rep.log != nil && rep.log.NeedsCompact() {
		if err := rep.log.Compact(rep.de.State()); err != nil {
			// The replica itself is intact; only its durable form is in
			// question. Discarding forces a clean snapshot resync.
			n.discardReplicaLocked(id, rep)
			return 0, wire.AckRefused, "compact: " + err.Error()
		}
	}
	return rep.de.Epoch(), wire.AckOK, ""
}

// discardReplicaLocked abandons a replica (caller holds rep.mu): the
// engine and the durable copy are dropped — from the server store too,
// for a copy demoted at boot by the rejoin path — and the next shipment
// gets AckNeedSync, prompting the owner to rebuild from a snapshot.
func (n *Node) discardReplicaLocked(id string, rep *replica) {
	rep.de, rep.log = nil, nil
	if n.store != nil {
		_ = n.store.DropShard(id)
	}
	_ = n.srv.DropDynState(id)
}

// recoverReplicas rebuilds the replica table from the replica store at
// boot: snapshot restore, WAL replay through the same idempotent apply
// the live path uses, then journal installation (after replay, so
// replayed records are not re-journaled).
func (n *Node) recoverReplicas() error {
	ids, err := n.store.ShardIDs()
	if err != nil {
		return fmt.Errorf("cluster: replica recovery: %w", err)
	}
	for _, id := range ids {
		log, snap, recs, err := n.store.OpenShardLog(id)
		if err != nil {
			return fmt.Errorf("cluster: replica %s: %w", id, err)
		}
		de, err := engine.RestoreDyn(snap, n.srv.EngineOptions())
		if err != nil {
			return fmt.Errorf("cluster: replica %s: %w", id, err)
		}
		for _, r := range recs {
			if err := de.ApplyRecord(r); err != nil {
				return fmt.Errorf("cluster: replica %s replay epoch %d: %w", id, r.Epoch, err)
			}
		}
		de.SetJournal(log.Append)
		n.reps[id] = &replica{de: de, log: log}
		n.bumpSeq(id)
	}
	return nil
}
