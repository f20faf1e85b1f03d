package server

// Durability wiring: when Config.Store is set, the server persists its
// shard table — registered trees as parents-only tree snapshots,
// mutable shards as a snapshot plus a mutation WAL — and Recover
// rebuilds all of it on boot. A registered tree's only state is its
// structure: recovery re-registers it exactly as a fresh registration
// would, so a sim shard builds its placement on first sight and a
// native one builds none. Dyn shards replay their WAL's surviving
// records through DynEngine.ApplyRecord — the path followers apply
// shipped records through — verifying each record's epoch and result
// against the log.

import (
	"fmt"
	"strconv"
	"strings"

	"spatialtree/internal/engine"
	"spatialtree/internal/persist"
	"spatialtree/internal/tree"
)

// RecoveryStats reports what a Recover call rebuilt.
type RecoveryStats struct {
	// Trees is the number of registered trees restored.
	Trees int
	// DynShards is the number of mutable shards restored.
	DynShards int
	// Records is the number of WAL records replayed across all shards.
	Records int
}

// Recover rebuilds the server's shard table from Config.Store: every
// persisted tree is re-registered on the server's default backend,
// every dyn shard is restored from its snapshot and its WAL's surviving
// records are replayed, and journaling is re-armed so new mutations
// append where the log left off. Call it once, after New and before
// serving; with no Store configured it is a no-op. Recovery does not
// count against MaxShards — the persisted state was admitted when it
// was created.
func (s *Server) Recover() (RecoveryStats, error) {
	var rs RecoveryStats
	if s.cfg.Durability.Store == nil {
		return rs, nil
	}
	saved, err := s.cfg.Durability.Store.LoadTrees()
	if err != nil {
		return rs, err
	}
	for _, st := range saved {
		if err := s.recoverTree(st); err != nil {
			return rs, fmt.Errorf("server: recovering tree %s: %w", st.ID, err)
		}
		rs.Trees++
	}
	ids, err := s.cfg.Durability.Store.ShardIDs()
	if err != nil {
		return rs, err
	}
	for _, id := range ids {
		replayed, err := s.recoverDynShard(id)
		if err != nil {
			return rs, fmt.Errorf("server: recovering shard %s: %w", id, err)
		}
		rs.DynShards++
		rs.Records += replayed
	}
	s.mu.Lock()
	s.recovered = rs
	s.mu.Unlock()
	return rs, nil
}

// recoverTree re-registers one persisted tree.
func (s *Server) recoverTree(st persist.SavedTree) error {
	t, err := tree.FromParents(st.Parents)
	if err != nil {
		return err
	}
	fp := engine.Fingerprint(t)
	if got := treeID(fp); got != st.ID {
		return fmt.Errorf("snapshot decodes to tree %s, not %s", got, st.ID)
	}
	// Recovered trees come back on the server's default backend: the
	// backend is a serving-time knob, not durable state.
	_, err = s.registerTree(t, fp, false, "")
	return err
}

// recoverDynShard restores one mutable shard: snapshot, WAL replay with
// per-record verification, journal re-arming, and a catch-up compaction
// when the surviving log already exceeds the threshold.
func (s *Server) recoverDynShard(id string) (replayed int, err error) {
	log, snap, recs, err := s.cfg.Durability.Store.OpenShardLog(id)
	if err != nil {
		return 0, err
	}
	de, err := engine.RestoreDyn(snap, s.pool.Options())
	if err != nil {
		return 0, err
	}
	for _, r := range recs {
		if err := de.ApplyRecord(r); err != nil {
			return replayed, fmt.Errorf("replaying record at epoch %d: %w", r.Epoch, err)
		}
		replayed++
	}
	de.SetJournal(s.journalFunc(log))
	s.mu.Lock()
	s.dyns[id] = de
	s.logs[id] = log
	if k, ok := dynSeq(id); ok && k > s.nextDyn {
		s.nextDyn = k
	}
	s.mu.Unlock()
	if log.NeedsCompact() {
		// Catch-up compaction is an optimization, exactly like the
		// runtime one in maybeCompact: a shard that recovered cleanly
		// must not fail the whole boot because folding its long-but-
		// valid log into a snapshot did not succeed.
		_ = log.Compact(de.State())
	}
	return replayed, nil
}

// journalFunc adapts a shard log into the engine's durability hook.
func (s *Server) journalFunc(log *persist.ShardLog) engine.JournalFunc {
	return func(rec persist.Record) error {
		if err := log.Append(rec); err != nil {
			return err
		}
		s.journaled.Add(1)
		return nil
	}
}

// persistDynCreate initializes durability for a freshly created shard
// and arms its journal; called from DynCreateLocal after the id is
// assigned. On failure the create fails and the shard is dropped
// unserved.
func (s *Server) persistDynCreate(id string, de *engine.DynEngine) error {
	if s.cfg.Durability.Store == nil {
		return nil
	}
	log, err := s.cfg.Durability.Store.CreateShardLog(id, de.State())
	if err != nil {
		return err
	}
	de.SetJournal(s.journalFunc(log))
	s.mu.Lock()
	s.logs[id] = log
	s.mu.Unlock()
	return nil
}

// maybeCompact folds a shard's WAL into a fresh snapshot once it
// outgrows the threshold. Best-effort: a failed compaction leaves the
// longer log in place, and the next mutation retries.
func (s *Server) maybeCompact(id string, de *engine.DynEngine) {
	s.mu.Lock()
	log := s.logs[id]
	s.mu.Unlock()
	if log == nil || !log.NeedsCompact() {
		return
	}
	_ = log.Compact(de.State())
}

// repairJournal restores a shard's durability after a failed append:
// the engine's epoch has run ahead of the log (the mutation applied in
// memory but its record was lost), the WAL's consecutive-epoch contract
// means the gap can never be filled, so the only way back is a fresh
// snapshot at the engine's current state — after which appends resume.
// Best-effort: while the disk stays broken this fails too, mutations
// keep returning 500, and every failure retries the repair.
func (s *Server) repairJournal(id string, de *engine.DynEngine) {
	s.mu.Lock()
	log := s.logs[id]
	s.mu.Unlock()
	if log == nil {
		return
	}
	st := de.State()
	if log.LastEpoch() >= st.Epoch {
		return // log is not behind; nothing to repair
	}
	_ = log.Compact(st)
}

// persistTree saves a registered tree's parent array, its only durable
// state.
func (s *Server) persistTree(id string, t *tree.Tree) error {
	if s.cfg.Durability.Store == nil {
		return nil
	}
	return s.cfg.Durability.Store.SaveTree(id, t.Parents())
}

// dynSeq extracts the numeric suffix of a dyn shard id ("d17" → 17).
func dynSeq(id string) (int, bool) {
	num, ok := strings.CutPrefix(id, "d")
	if !ok {
		return 0, false
	}
	k, err := strconv.Atoi(num)
	if err != nil || k < 0 {
		return 0, false
	}
	return k, true
}
