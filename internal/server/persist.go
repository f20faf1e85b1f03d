package server

// Durability wiring: when Config.Store is set, the server persists its
// shard table — registered trees as parents-only tree snapshots,
// mutable shards as a snapshot plus a mutation WAL — and Recover
// rebuilds all of it on boot. A registered tree's only state is its
// structure: recovery re-registers it exactly as a fresh registration
// would, so a sim shard builds its placement on first sight and a
// native one builds none. Dyn shards recover through engine.OpenDyn,
// which replays their WAL's surviving records through
// DynEngine.ApplyRecord — the path followers apply shipped records
// through — verifying each record's epoch and result against the log.
// From then on each shard journals, repairs and compacts its own WAL.

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
// persisted tree is re-registered on the server's default backend, and
// every dyn shard is recovered by engine.OpenDyn (snapshot restore, WAL
// replay, journal re-armed so new mutations append where the log left
// off). Call it once, after New and before serving; with no Store
// configured it is a no-op. Recovery does not count against MaxShards —
// the persisted state was admitted when it was created.
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
		de, replayed, err := engine.OpenDyn(s.cfg.Durability.Store, id, s.pool.Options())
		if err != nil {
			return rs, fmt.Errorf("server: recovering shard %s: %w", id, err)
		}
		s.mu.Lock()
		s.dyns[id] = de
		if k, ok := dynSeq(id); ok && k > s.nextDyn {
			s.nextDyn = k
		}
		s.mu.Unlock()
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

// persistDynCreate initializes durability for a freshly created shard
// and attaches its WAL; called from DynCreateLocal after the id is
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
	de.SetJournal(log)
	return nil
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
