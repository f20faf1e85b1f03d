package engine

import (
	"cmp"
	"errors"
	"fmt"
	"sync"

	"spatialtree/internal/dynlayout"
	"spatialtree/internal/exec"
	"spatialtree/internal/exprtree"
	"spatialtree/internal/lca"
	"spatialtree/internal/mincut"
	"spatialtree/internal/persist"
	"spatialtree/internal/sfc"
	"spatialtree/internal/tree"
	"spatialtree/internal/treefix"
)

// DynEngine is the mutable-tree counterpart of Engine: it owns a
// dynamically maintained layout (internal/dynlayout) and serves the same
// batched Submit*/Flush protocol, but additionally accepts InsertLeaf
// and DeleteLeaf between batches. Mutations never race with in-flight
// requests: applying one first drains the pending batch, so every future
// resolves against the tree as it stood when the request was submitted.
//
// One Engine serves every tree version ("epoch"): each mutation bumps
// the epoch and marks the serving state dirty; the next submission
// refreshes it from the dynamic layout and installs it on the engine,
// so the engine's counters, scheduler and profile observer carry across
// epochs untouched.
//
// A native refresh is O(1). The epoch's tree, preorder and LCA table are
// not rebuilt: LCA, min-cut's included, is answered from the table the
// shard last built (the base) through an exec.Overlay that every
// applied mutation updates in O(1), and nothing O(n) runs per mutation
// or per LCA-only epoch. The first treefix, top-down, min-cut or
// expression request of an epoch validates the current tree and records
// its preorder, and the next LCA rebuilds the base once the overlay has
// absorbed more than min(ε, 1)·n mutations (ε is the budget the layout
// rebuilds on) or an inserted chain has grown deeper than ⌈log₂ n⌉. A
// shard that has built no LCA table — a follower that never serves,
// say — keeps no overlay state.
//
// A sim refresh validates the current tree and copies the layout's
// current parked/spread positions — an O(n) copy, not the O(n log n)
// light-first pipeline a static engine would need to rebuild from
// scratch. Only when the dynamic layout itself rebuilds (every εn
// mutations) is the full pipeline paid, which is the whole amortization
// argument of the paper's §VII direction. The layout maintains its
// ranks on both backends: snapshots, replication and a recovery onto a
// sim default need them.
//
// On sim, kernels split by what they require of the placement. Treefix
// sums, top-down sums and expression evaluation are order-agnostic —
// ranks are only message endpoints — so they run on the parked
// placement itself and their costs degrade gracefully with drift,
// exactly the trade-off dynlayout quantifies. Batched LCA and min-cut
// are order-dependent (correctness needs contiguous light-first subtree
// ranges, Section VI-C), so those requests run on a dense light-first
// rank of the current tree, computed lazily and memoized by the sim
// backend — at most once per epoch, and only for epochs that actually
// serve such a request.
//
// A shard's placements never enter the LayoutCache: no lookup could
// reuse one, since each belongs to a single shard at a single epoch.
// The first submission after a mutation installs the current epoch's
// serving state before it queues, so a mutated tree can never be served
// from a stale epoch, not even when a mutation sequence returns to an
// earlier parent array (same structural fingerprint, different parked
// positions).
//
// All methods are safe for concurrent use.
type DynEngine struct {
	eng *Engine // serves every epoch

	mu  sync.Mutex
	dyn *dynlayout.Dyn
	// ov carries a native shard's LCA table across epochs; nil on sim.
	// Mutations update it behind the Quiesce barrier, so no batch reads
	// it meanwhile.
	ov        *exec.Overlay
	epoch     uint64
	dirty     bool
	refreshes uint64
	log       *persist.ShardLog // the shard's WAL; nil = not journaled
}

// SetJournal attaches (or, with nil, detaches) the shard's WAL. Every
// applied mutation appends one record to it — the epoch the shard
// reached by applying it (epochs advance by exactly one per record),
// the type (persist.RecInsert or persist.RecDelete), its argument (the
// parent for inserts, the leaf for deletes) and its result (the new
// vertex id for inserts, the renumbered id for deletes — enough to
// re-apply the record deterministically through ApplyRecord and verify
// it). The append runs while the engine holds its mutation lock, after
// the pending batch has been drained through the Quiesce barrier and
// the mutation has been applied, so records are strictly ordered
// against both each other and batch dispatch, and a record is only ever
// written for a mutation that actually happened. A failed append fails
// the mutation call that produced the record; the in-memory mutation
// stands (the tree did change), but the caller knows it is not durable.
//
// The engine also keeps the log in step: it re-snapshots the shard after
// a failed append (applyLocked), and folds the log into a snapshot once
// it outgrows its compaction threshold (tendJournal). Attach the log
// after constructing or restoring the engine and before serving
// mutations; OpenDyn attaches it only after WAL replay, so replayed
// records are not journaled twice. The log travels with the engine:
// whoever holds the engine holds its durable copy, and drops that copy
// through Journal().Drop().
func (de *DynEngine) SetJournal(log *persist.ShardLog) {
	de.mu.Lock()
	de.log = log
	de.mu.Unlock()
}

// Journal returns the shard's WAL, or nil when it is not journaled.
func (de *DynEngine) Journal() *persist.ShardLog {
	de.mu.Lock()
	defer de.mu.Unlock()
	return de.log
}

// tendJournal folds the shard's WAL into a snapshot once it has
// outgrown its compaction threshold. It runs outside the mutation lock,
// beside batches and other mutations: State is captured under the lock,
// and Compact keeps every record newer than the snapshot it writes.
// Best effort: a failed compaction leaves the longer log in place, and
// the next mutation retries.
func (de *DynEngine) tendJournal() {
	if log := de.Journal(); log != nil && log.NeedsCompact() {
		_ = log.Compact(de.State())
	}
}

// SetProfile installs (or, with nil, removes) the per-batch profile
// observer on the shard. One engine serves every epoch, so the observer
// sees an unbroken stream of batches across mutations.
func (de *DynEngine) SetProfile(fn ProfileFunc) { de.eng.SetProfile(fn) }

// DefaultEpsilon is the dynamic layout drift budget used when
// DynOptions.Epsilon is not positive.
const DefaultEpsilon = 0.2

// DynOptions configures a DynEngine.
type DynOptions struct {
	Options
	// Epsilon is the dynamic layout's rebuild threshold: a full layout
	// rebuild triggers when mutations since the last rebuild exceed
	// Epsilon × current size (<= 0 means DefaultEpsilon). NewDyn
	// refuses what CheckEpsilon refuses.
	Epsilon float64
}

// DynStats snapshots a DynEngine's lifetime counters: the mutation side
// (epoch, inserts/deletes, layout rebuilds, parking and migration
// energy) plus the serving side (Engine is the shard's engine across
// all epochs, including the shared cache's counters).
type DynStats struct {
	// Epoch counts applied mutations; it versions the tree.
	Epoch uint64
	// N is the current vertex count.
	N int
	// Inserts and Deletes count successful mutations.
	Inserts, Deletes uint64
	// Rebuilds counts full light-first recomputations of the dynamic
	// layout (the amortized Θ(n^{3/2})-energy events).
	Rebuilds uint64
	// Refreshes counts serving states installed on the shard's engine:
	// one at construction, then at most one per epoch, when a
	// submission or Tree follows a mutation. On native, installing one
	// is O(1); on sim, it validates the tree and copies the layout's
	// positions.
	Refreshes uint64
	// ParkEnergy and MigrateEnergy are the dynamic layout's maintenance
	// costs (see dynlayout.Dyn).
	ParkEnergy, MigrateEnergy int64
	// Engine is the shard's serving engine's counters across epochs.
	Engine Stats
}

// NewDyn builds a mutable serving engine for t.
func NewDyn(t *tree.Tree, opts DynOptions) (*DynEngine, error) {
	c, err := sfc.ByName(cmp.Or(opts.Curve, "hilbert"))
	if err != nil {
		return nil, err
	}
	eps := opts.Epsilon
	if eps <= 0 {
		eps = DefaultEpsilon
	}
	if err := CheckEpsilon(eps); err != nil {
		return nil, err
	}
	d, err := dynlayout.New(t, c, eps)
	if err != nil {
		return nil, err
	}
	return newDyn(d, 0, opts.Options)
}

// CheckEpsilon refuses, as ErrInvalid, a drift budget no snapshot of a
// dyn shard could hold: NaN, +Inf or anything above
// persist.MaxEpsilon. A budget <= 0 selects DefaultEpsilon and passes.
func CheckEpsilon(eps float64) error {
	if !(eps <= persist.MaxEpsilon) { // NaN too
		return invalid(fmt.Errorf("epsilon %v outside (0, %v]", eps, float64(persist.MaxEpsilon)))
	}
	return nil
}

// newDyn wraps a dynamic layout at the given epoch in a DynEngine whose
// engine serves the layout's current tree.
func newDyn(d *dynlayout.Dyn, epoch uint64, opts Options) (*DynEngine, error) {
	de := &DynEngine{dyn: d, epoch: epoch, refreshes: 1}
	if exec.Normalize(opts.Backend) == exec.Native {
		de.ov = exec.NewOverlay(d.Epsilon())
	}
	var err error
	if de.eng, err = newEngine(nil, de, opts); err != nil {
		return nil, err
	}
	return de, nil
}

// refreshLocked installs the current epoch's serving state, derived
// from the dynamic layout (see Engine.newServing), on the shard's
// engine, if a mutation has been applied since the last one was. The
// mutation quiesced the engine under de.mu, and every submission takes
// de.mu, so the engine is quiescent.
func (de *DynEngine) refreshLocked() error {
	if !de.dirty {
		return nil
	}
	sv, err := de.eng.newServing(de.eng.Backend(), nil, de)
	if err != nil {
		return err
	}
	de.eng.install(sv)
	de.dirty = false
	de.refreshes++
	return nil
}

// InsertLeaf drains the pending batch, adds a new leaf under parent, and
// returns its vertex id. The next submission serves the mutated tree.
// A mutation that did not apply (parent out of range) changes nothing
// and returns an error satisfying errors.Is(err, ErrInvalid). When the
// mutation applied but something after it failed — the layout's
// post-mutation rebuild, or the durability journal — the error is not
// ErrInvalid, and the vertex id is returned alongside it, so the caller
// can still reconcile its id mapping with the shard's.
func (de *DynEngine) InsertLeaf(parent int) (int, error) {
	return de.mutate(persist.RecInsert, parent)
}

// DeleteLeaf drains the pending batch and removes leaf v. As in
// dynlayout.Dyn.DeleteLeaf, ids stay contiguous: the returned moved is
// the old id of the vertex renumbered into v (moved == v when v was the
// last id and nothing moved). As in InsertLeaf, a delete that did not
// apply (v out of range, not a leaf, or the root) is ErrInvalid, and an
// applied-but-degraded mutation (rebuild or journal failure) still
// returns moved with the error — losing the renumbering would silently
// desynchronize the caller's id mapping.
func (de *DynEngine) DeleteLeaf(v int) (moved int, err error) {
	return de.mutate(persist.RecDelete, v)
}

// mutate is InsertLeaf's and DeleteLeaf's shared body: a mutation that
// did not apply is the caller's mistake. The WAL is tended once the
// mutation lock is released.
func (de *DynEngine) mutate(typ persist.RecordType, arg int) (int, error) {
	defer de.tendJournal()
	de.mu.Lock()
	defer de.mu.Unlock()
	//spatialvet:ignore waitunderlock -- the mutation barrier IS the design: in-flight queries must drain before the layout mutates, and Quiesce never takes de.mu
	got, applied, err := de.applyLocked(typ, arg, nil)
	if !applied && err != nil {
		return 0, invalid(err)
	}
	return got, err
}

// applyLocked is the one applied-mutation path, shared by local
// mutations and ApplyRecord, so a follower's replay and an owner's
// mutation cannot diverge. It drains the engine through the Quiesce
// barrier and applies one mutation (an insert under arg, or a delete of
// leaf arg) to the dynamic layout. Whenever the layout changed — even
// if its post-mutation rebuild failed, so the serving state can never
// keep presenting the pre-mutation tree as current — it advances the
// epoch, marks the serving state dirty, folds the mutation into the LCA
// overlay and journals it: a record is written exactly when the tree
// changed, keeping the WAL's epochs consecutive, and a failed append is
// repaired with a snapshot before the error returns. A replayed mutation
// (want non-nil) whose result is not the owner's *want is
// ErrReplicaDiverged and is not journaled. de.mu must be held.
func (de *DynEngine) applyLocked(typ persist.RecordType, arg int, want *int) (got int, applied bool, err error) {
	de.eng.Quiesce()
	switch typ {
	case persist.RecInsert:
		before := de.dyn.Inserts
		got, err = de.dyn.InsertLeaf(arg)
		applied = de.dyn.Inserts != before
	case persist.RecDelete:
		before := de.dyn.Deletes
		got, err = de.dyn.DeleteLeaf(arg)
		applied = de.dyn.Deletes != before
	}
	if !applied {
		return got, false, err
	}
	de.epoch++
	de.dirty = true
	if de.ov != nil {
		if typ == persist.RecInsert {
			de.ov.Insert(arg, got)
		} else {
			de.ov.Delete(arg, got)
		}
	}
	if want != nil && got != *want {
		return got, true, fmt.Errorf("%w: type %d arg %d at epoch %d produced %d, owner recorded %d", ErrReplicaDiverged, typ, arg, de.epoch, got, *want)
	}
	if de.log == nil {
		return got, true, err
	}
	if jerr := de.log.Append(persist.Record{Type: typ, Epoch: de.epoch, Arg: arg, Result: got}); jerr != nil {
		// The log is now behind the engine and can never catch up record
		// by record (its replay contract is consecutive epochs), so a
		// snapshot at the current state repairs it. Best effort: while
		// the disk stays broken this fails too, and so does the next
		// mutation's append, which retries the repair.
		_ = de.log.Compact(de.stateLocked())
		if err == nil {
			err = fmt.Errorf("engine: mutation applied but not journaled: %w", jerr)
		}
	}
	return got, true, err
}

// ErrReplicaGap reports a shipped record whose epoch does not follow
// the replica's apply cursor: the replica missed records and must
// resync from a snapshot.
var ErrReplicaGap = errors.New("engine: record epoch gap")

// ErrReplicaDiverged reports that re-applying a shipped record did not
// reproduce the owner's recorded outcome: the replica's state cannot be
// trusted and must be rebuilt from a snapshot.
var ErrReplicaDiverged = errors.New("engine: replica diverged from owner")

// ApplyRecord re-applies one journaled mutation: the one replay path,
// shared by a follower applying shipped records, by boot recovery
// replaying a WAL and by a rejoining owner applying its handback tail.
// The engine's epoch is the apply cursor: a record at or before it is
// a duplicate shipment and is skipped (idempotence under owner
// retries), one exactly at cursor+1 applies through the same Quiesce
// barrier as a local mutation, and anything further ahead is
// ErrReplicaGap. Only RecInsert and RecDelete apply; a fence or an
// unknown type is an error. The applied result is verified against
// rec.Result; a mismatch is ErrReplicaDiverged. A successful apply
// journals rec to the shard's WAL, so a replica's own WAL tracks its
// cursor, and tends the WAL as a local mutation does; a replica that
// diverged is not tended, so its state never reaches a snapshot.
func (de *DynEngine) ApplyRecord(rec persist.Record) error {
	if rec.Type != persist.RecInsert && rec.Type != persist.RecDelete {
		return fmt.Errorf("engine: cannot apply record type %d", rec.Type)
	}
	err := de.applyRecord(rec)
	if err == nil {
		de.tendJournal()
	}
	return err
}

// applyRecord is ApplyRecord's body under the mutation lock.
func (de *DynEngine) applyRecord(rec persist.Record) error {
	de.mu.Lock()
	defer de.mu.Unlock()
	if rec.Epoch <= de.epoch {
		return nil
	}
	if rec.Epoch != de.epoch+1 {
		return fmt.Errorf("%w: record epoch %d does not follow cursor %d", ErrReplicaGap, rec.Epoch, de.epoch)
	}
	//spatialvet:ignore waitunderlock -- the mutation barrier IS the design: in-flight queries must drain before the layout mutates, and Quiesce never takes de.mu
	_, applied, err := de.applyLocked(rec.Type, rec.Arg, &rec.Result)
	if !applied {
		// The owner applied this mutation; a replica that cannot is out
		// of step with it, whatever the proximate error says.
		if err == nil {
			err = errors.New("mutation did not apply")
		}
		return fmt.Errorf("%w: type %d arg %d at epoch %d: %v", ErrReplicaDiverged, rec.Type, rec.Arg, rec.Epoch, err)
	}
	// A post-apply rebuild error degrades serving, not state: the epoch
	// advanced exactly as the owner's did, so the record still journaled
	// and the error surfaces to the caller.
	return err
}

// N returns the current vertex count.
func (de *DynEngine) N() int {
	de.mu.Lock()
	defer de.mu.Unlock()
	return de.dyn.N()
}

// Curve returns the name of the shard's space-filling curve.
func (de *DynEngine) Curve() string { return de.eng.curve.Name() }

// Epsilon returns the dynamic layout's rebuild threshold.
func (de *DynEngine) Epsilon() float64 {
	de.mu.Lock()
	defer de.mu.Unlock()
	return de.dyn.Epsilon()
}

// Backend returns the shard's resolved execution-backend name. Every
// epoch is served on it. A native epoch holds no placement, and
// installing one is O(1): LCA is answered from the last built table
// through the shard's overlay, which is rebuilt only after min(ε, 1)·n
// mutations, and the current tree and its preorder are built only for
// an epoch's first treefix, top-down, min-cut or expression request. A
// sim epoch validates the tree and copies the dynamic layout's parked
// positions instead.
func (de *DynEngine) Backend() string { return de.eng.Backend() }

// Epoch returns the number of mutations applied so far; it versions the
// tree.
func (de *DynEngine) Epoch() uint64 {
	de.mu.Lock()
	defer de.mu.Unlock()
	return de.epoch
}

// IsLeaf reports whether v is a current vertex with no children (the
// precondition of DeleteLeaf).
func (de *DynEngine) IsLeaf(v int) bool {
	de.mu.Lock()
	defer de.mu.Unlock()
	return de.dyn.IsLeaf(v)
}

// Tree returns the current epoch's serving tree, installing the epoch's
// serving state first if a mutation has been applied since the last
// one was. The tree is validated once per epoch and shared with the
// serving state, so an expression built on it passes SubmitExpr's
// identity check without comparing parent arrays.
func (de *DynEngine) Tree() (*tree.Tree, error) {
	de.mu.Lock()
	defer de.mu.Unlock()
	if err := de.refreshLocked(); err != nil {
		return nil, err
	}
	return de.eng.cur.Load().backend.Tree()
}

// SubmitTreefix enqueues a bottom-up treefix sum on the current tree;
// see Engine.SubmitTreefix. vals must match the current vertex count.
func (de *DynEngine) SubmitTreefix(vals []int64, op treefix.Op) *Future {
	return de.submit(func(e *Engine) *Future { return e.SubmitTreefix(vals, op) })
}

// SubmitTopDown enqueues a top-down treefix sum on the current tree.
func (de *DynEngine) SubmitTopDown(vals []int64, op treefix.Op) *Future {
	return de.submit(func(e *Engine) *Future { return e.SubmitTopDown(vals, op) })
}

// SubmitLCA enqueues a batch of LCA queries on the current tree.
func (de *DynEngine) SubmitLCA(queries []lca.Query) *Future {
	return de.submit(func(e *Engine) *Future { return e.SubmitLCA(queries) })
}

// SubmitMinCut enqueues a 1-respecting minimum-cut computation against
// the current tree.
func (de *DynEngine) SubmitMinCut(edges []mincut.Edge) *Future {
	return de.submit(func(e *Engine) *Future { return e.SubmitMinCut(edges) })
}

// SubmitExpr enqueues evaluation of an expression whose tree matches the
// current tree structurally.
func (de *DynEngine) SubmitExpr(x *exprtree.Expr) *Future {
	return de.submit(func(e *Engine) *Future { return e.SubmitExpr(x) })
}

// submit hands one request to the engine under the mutation lock,
// refreshing the serving state first if a mutation has been applied
// since it was installed, so a submission can never land on a stale
// epoch. A submission that fills the window runs its batch inline while
// holding the lock — mutations land between batches, as documented.
func (de *DynEngine) submit(f func(*Engine) *Future) *Future {
	de.mu.Lock()
	defer de.mu.Unlock()
	if err := de.refreshLocked(); err != nil {
		return failedFuture(err)
	}
	return f(de.eng)
}

// Flush runs the pending batch, if any, and blocks until it resolves.
func (de *DynEngine) Flush() { de.eng.Flush() }

// Pending returns the number of queued, unflushed requests.
func (de *DynEngine) Pending() int { return de.eng.Pending() }

// State captures the engine's complete durable state under the
// mutation lock — everything RestoreDyn needs to yield a shard serving
// identical answers with identical accounting — so it is consistent
// with the epoch of the last journaled record, the invariant compaction
// relies on (a snapshot at epoch E supersedes exactly the WAL records
// with epoch <= E).
func (de *DynEngine) State() persist.DynSnapshot {
	de.mu.Lock()
	defer de.mu.Unlock()
	return de.stateLocked()
}

// stateLocked is State's body; de.mu must be held.
func (de *DynEngine) stateLocked() persist.DynSnapshot {
	return persist.DynSnapshot{
		Parents:       de.dyn.Parents(),
		Curve:         de.eng.curve.Name(),
		Side:          de.dyn.Side(),
		Ranks:         de.dyn.Ranks(),
		Epsilon:       de.dyn.Epsilon(),
		Epoch:         de.epoch,
		Drift:         de.dyn.Drift(),
		Inserts:       uint64(de.dyn.Inserts),
		Deletes:       uint64(de.dyn.Deletes),
		Rebuilds:      uint64(de.dyn.Rebuilds),
		ParkEnergy:    de.dyn.ParkEnergy,
		MigrateEnergy: de.dyn.MigrateEnergy,
	}
}

// RestoreDyn rebuilds a mutable engine from a State() capture (directly
// or decoded from a snapshot): the dynamic layout is reconstructed and
// invariant-checked, counters and epoch are restored, and the serving
// state is refreshed exactly as NewDyn would. OpenDyn is the recovery
// path that also replays and attaches the shard's WAL.
func RestoreDyn(st persist.DynSnapshot, opts Options) (*DynEngine, error) {
	c, err := sfc.ByName(cmp.Or(st.Curve, "hilbert"))
	if err != nil {
		return nil, err
	}
	d, err := dynlayout.Restore(st.Parents, st.Ranks, st.Side, c, st.Epsilon, st.Drift)
	if err != nil {
		return nil, err
	}
	d.Inserts = int(st.Inserts)
	d.Deletes = int(st.Deletes)
	d.Rebuilds = int(st.Rebuilds)
	d.ParkEnergy = st.ParkEnergy
	d.MigrateEnergy = st.MigrateEnergy
	opts.Curve = st.Curve // the snapshot's curve, not the caller's
	return newDyn(d, st.Epoch, opts)
}

// OpenDyn recovers the journaled shard id from store — the one recovery
// path for owned shards and replicas alike. It opens the shard's log
// (the newest snapshot plus the WAL's surviving records), restores the
// snapshot, replays the records through ApplyRecord, verifying each
// one's epoch and result, and attaches the log, so mutations append
// where it left off. A log already past its compaction threshold is
// folded into a snapshot before OpenDyn returns (best effort, as after
// a mutation). replayed counts the records re-applied.
func OpenDyn(store *persist.Store, id string, opts Options) (de *DynEngine, replayed int, err error) {
	log, snap, recs, err := store.OpenShardLog(id)
	if err != nil {
		return nil, 0, err
	}
	if de, err = RestoreDyn(snap, opts); err != nil {
		return nil, 0, err
	}
	for _, r := range recs {
		if err := de.ApplyRecord(r); err != nil {
			return nil, replayed, fmt.Errorf("replaying record at epoch %d: %w", r.Epoch, err)
		}
		replayed++
	}
	de.SetJournal(log)
	de.tendJournal()
	return de, replayed, nil
}

// Stats returns a snapshot of the engine's counters.
func (de *DynEngine) Stats() DynStats {
	de.mu.Lock()
	defer de.mu.Unlock()
	return DynStats{
		Epoch:         de.epoch,
		N:             de.dyn.N(),
		Inserts:       uint64(de.dyn.Inserts),
		Deletes:       uint64(de.dyn.Deletes),
		Rebuilds:      uint64(de.dyn.Rebuilds),
		Refreshes:     de.refreshes,
		ParkEnergy:    de.dyn.ParkEnergy,
		MigrateEnergy: de.dyn.MigrateEnergy,
		Engine:        de.eng.Stats(),
	}
}
