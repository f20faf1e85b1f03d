package engine

import (
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
// Serving works through an inner Engine rebuilt lazily per tree version
// ("epoch"): each mutation bumps the epoch and marks the serving state
// dirty; the next submission refreshes it from the dynamic layout. A
// native refresh reads only the layout's validated current tree, since
// native kernels take no placement. A sim refresh also copies the
// layout's current parked/spread positions — an O(n) copy, not the
// O(n log n) light-first pipeline a static engine would need to rebuild
// from scratch. Only when the dynamic layout itself rebuilds (every εn
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
// Requests always route through the current epoch's inner engine, so a
// mutated tree can never be served from a stale epoch, not even when a
// mutation sequence returns to an earlier parent array (same structural
// fingerprint, different parked positions).
//
// All methods are safe for concurrent use.
type DynEngine struct {
	curve sfc.Curve
	opts  Options // resolved: Curve named, Cache non-nil (shared by every epoch)

	mu        sync.Mutex
	dyn       *dynlayout.Dyn
	inner     *Engine
	epoch     uint64
	dirty     bool
	refreshes uint64
	retired   Stats       // folded counters of previous epochs' inner engines
	journal   JournalFunc // durability hook; nil = no journaling
	profile   ProfileFunc // batch observer, re-installed on every epoch's inner engine
}

// JournalFunc persists one mutation record: the epoch the shard reached
// by applying it (epochs advance by exactly one per record), the type
// (persist.RecInsert or persist.RecDelete), its argument (the parent
// for inserts, the leaf for deletes) and its result (the new vertex id
// for inserts, the renumbered id for deletes — enough to re-apply the
// record deterministically through ApplyRecord and verify it). It is
// invoked while the engine holds its mutation lock, after the pending
// batch has been drained through the Quiesce barrier and the mutation
// has been applied — so records are strictly ordered against both each
// other and batch dispatch, and a record is only ever written for a
// mutation that actually happened. An error fails the mutation call that produced the
// record; the in-memory mutation stands (the tree did change), but the
// caller knows it is not durable.
type JournalFunc func(persist.Record) error

// SetJournal installs (or, with nil, removes) the durability hook.
// Install it after constructing or restoring the engine and before
// serving mutations; recovery installs it only after WAL replay, so
// replayed records are not journaled twice.
func (de *DynEngine) SetJournal(fn JournalFunc) {
	de.mu.Lock()
	de.journal = fn
	de.mu.Unlock()
}

// SetProfile installs (or, with nil, removes) the per-batch profile
// observer on the shard. The observer survives epoch refreshes: every
// future inner engine gets it re-installed, so it sees an unbroken
// stream of batches across mutations.
func (de *DynEngine) SetProfile(fn ProfileFunc) {
	de.mu.Lock()
	de.profile = fn
	if de.inner != nil {
		de.inner.SetProfile(fn)
	}
	de.mu.Unlock()
}

// DefaultEpsilon is the dynamic layout drift budget used when
// DynOptions.Epsilon is not positive.
const DefaultEpsilon = 0.2

// DynOptions configures a DynEngine.
type DynOptions struct {
	Options
	// Epsilon is the dynamic layout's rebuild threshold: a full layout
	// rebuild triggers when mutations since the last rebuild exceed
	// Epsilon × current size (<= 0 means DefaultEpsilon).
	Epsilon float64
}

// DynStats snapshots a DynEngine's lifetime counters: the mutation side
// (epoch, inserts/deletes, layout rebuilds, parking and migration
// energy) plus the serving side (Engine folds the inner engines of all
// epochs, including the shared cache's counters).
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
	// Refreshes counts serving-state rebuilds: inner engines built on
	// the dynamic layout's current tree (at most one per epoch, only
	// when a submission actually follows a mutation).
	Refreshes uint64
	// ParkEnergy and MigrateEnergy are the dynamic layout's maintenance
	// costs (see dynlayout.Dyn).
	ParkEnergy, MigrateEnergy int64
	// Engine aggregates the inner serving engines across epochs.
	Engine Stats
}

// NewDyn builds a mutable serving engine for t.
func NewDyn(t *tree.Tree, opts DynOptions) (*DynEngine, error) {
	name := opts.Curve
	if name == "" {
		name = "hilbert"
	}
	c, err := sfc.ByName(name)
	if err != nil {
		return nil, err
	}
	eps := opts.Epsilon
	if eps <= 0 {
		eps = DefaultEpsilon
	}
	d, err := dynlayout.New(t, c, eps)
	if err != nil {
		return nil, err
	}
	resolved := opts.Options
	resolved.Curve = name
	if resolved.Cache == nil {
		resolved.Cache = NewLayoutCache(DefaultCacheCapacity)
	}
	de := &DynEngine{curve: c, opts: resolved, dyn: d}
	de.mu.Lock()
	defer de.mu.Unlock()
	return de, de.refreshLocked()
}

// refreshLocked derives a fresh serving state from the dynamic layout:
// an inner engine on the current epoch's tree (see newEngine).
func (de *DynEngine) refreshLocked() error {
	inner, err := newEngine(nil, de.dyn, de.opts)
	if err != nil {
		return err
	}
	// The profile observer is a per-shard installation, not per-epoch:
	// every refresh re-installs it so it keeps seeing batches across
	// mutations.
	if de.profile != nil {
		inner.SetProfile(de.profile)
	}
	if de.inner != nil {
		st := de.inner.Stats()
		st.Cache = CacheStats{} // cache counters are global, not per-epoch
		de.retired.Add(st)
	}
	de.inner = inner
	de.dirty = false
	de.refreshes++
	return nil
}

// engineLocked returns the inner engine for the current epoch,
// refreshing it first if a mutation has been applied since it was built.
func (de *DynEngine) engineLocked() (*Engine, error) {
	if de.dirty || de.inner == nil {
		if err := de.refreshLocked(); err != nil {
			return nil, err
		}
	}
	return de.inner, nil
}

// drainLocked quiesces the inner engine so that every already-submitted
// request resolves against the pre-mutation tree AND every in-flight
// batch — the autoflush timer or a running batch's hand-off may have
// dispatched one — has recorded its counters before the engine can be
// retired by a refresh.
func (de *DynEngine) drainLocked() {
	if de.inner != nil {
		de.inner.Quiesce()
	}
}

// InsertLeaf drains the pending batch, adds a new leaf under parent, and
// returns its vertex id. The next submission serves the mutated tree.
// When the mutation applied but something after it failed — the
// layout's post-mutation rebuild, or the durability journal — the
// vertex id is returned alongside the error, so the caller can still
// reconcile its id mapping with the shard's.
func (de *DynEngine) InsertLeaf(parent int) (int, error) {
	de.mu.Lock()
	defer de.mu.Unlock()
	//spatialvet:ignore waitunderlock -- the mutation barrier IS the design: in-flight queries must drain before the layout mutates, and Quiesce never takes de.mu
	de.drainLocked()
	before := de.dyn.Inserts
	v, err := de.dyn.InsertLeaf(parent)
	// Bump the epoch whenever the layout actually mutated — including
	// when a post-mutation rebuild failed — so the serving state can
	// never keep presenting the pre-mutation tree as current. The same
	// condition gates the journal: a record is written exactly when the
	// tree changed, keeping the WAL's epochs consecutive.
	if de.dyn.Inserts != before {
		de.epoch++
		de.dirty = true
		if jerr := de.journalLocked(persist.Record{Type: persist.RecInsert, Epoch: de.epoch, Arg: parent, Result: v}); err == nil {
			err = jerr
		}
		return v, err
	}
	if err != nil {
		return 0, err
	}
	return v, nil
}

// journalLocked invokes the durability hook, if any; de.mu must be held
// (which is also what orders records against batch dispatch — the
// caller drained the engine through Quiesce before mutating).
func (de *DynEngine) journalLocked(rec persist.Record) error {
	if de.journal == nil {
		return nil
	}
	if err := de.journal(rec); err != nil {
		return fmt.Errorf("engine: mutation applied but not journaled: %w", err)
	}
	return nil
}

// DeleteLeaf drains the pending batch and removes leaf v. As in
// dynlayout.Dyn.DeleteLeaf, ids stay contiguous: the returned moved is
// the old id of the vertex renumbered into v (moved == v when v was the
// last id and nothing moved). As in InsertLeaf, an applied-but-degraded
// mutation (rebuild or journal failure) still returns moved with the
// error — losing the renumbering would silently desynchronize the
// caller's id mapping.
func (de *DynEngine) DeleteLeaf(v int) (moved int, err error) {
	de.mu.Lock()
	defer de.mu.Unlock()
	//spatialvet:ignore waitunderlock -- the mutation barrier IS the design: in-flight queries must drain before the layout mutates, and Quiesce never takes de.mu
	de.drainLocked()
	before := de.dyn.Deletes
	moved, err = de.dyn.DeleteLeaf(v)
	if de.dyn.Deletes != before {
		de.epoch++
		de.dirty = true
		if jerr := de.journalLocked(persist.Record{Type: persist.RecDelete, Epoch: de.epoch, Arg: v, Result: moved}); err == nil {
			err = jerr
		}
		return moved, err
	}
	if err != nil {
		return 0, err
	}
	return moved, nil
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
// journals rec through the installed hook, so a replica's own WAL
// tracks its cursor.
func (de *DynEngine) ApplyRecord(rec persist.Record) error {
	if rec.Type != persist.RecInsert && rec.Type != persist.RecDelete {
		return fmt.Errorf("engine: cannot apply record type %d", rec.Type)
	}
	de.mu.Lock()
	defer de.mu.Unlock()
	if rec.Epoch <= de.epoch {
		return nil
	}
	if rec.Epoch != de.epoch+1 {
		return fmt.Errorf("%w: record epoch %d does not follow cursor %d", ErrReplicaGap, rec.Epoch, de.epoch)
	}
	//spatialvet:ignore waitunderlock -- the mutation barrier IS the design: in-flight queries must drain before the layout mutates, and Quiesce never takes de.mu
	de.drainLocked()
	var got int
	var err error
	var applied bool
	switch rec.Type {
	case persist.RecInsert:
		before := de.dyn.Inserts
		got, err = de.dyn.InsertLeaf(rec.Arg)
		applied = de.dyn.Inserts != before
	case persist.RecDelete:
		before := de.dyn.Deletes
		got, err = de.dyn.DeleteLeaf(rec.Arg)
		applied = de.dyn.Deletes != before
	}
	if !applied {
		// The owner applied this mutation; a replica that cannot is out
		// of step with it, whatever the proximate error says.
		if err == nil {
			err = errors.New("mutation did not apply")
		}
		return fmt.Errorf("%w: type %d arg %d at epoch %d: %v", ErrReplicaDiverged, rec.Type, rec.Arg, rec.Epoch, err)
	}
	de.epoch++
	de.dirty = true
	if got != rec.Result {
		return fmt.Errorf("%w: type %d arg %d at epoch %d produced %d, owner recorded %d", ErrReplicaDiverged, rec.Type, rec.Arg, rec.Epoch, got, rec.Result)
	}
	// A post-apply rebuild error degrades serving, not state: the epoch
	// advanced exactly as the owner's did, so the record still journals
	// and the error surfaces to the caller.
	if jerr := de.journalLocked(rec); err == nil {
		err = jerr
	}
	return err
}

// N returns the current vertex count.
func (de *DynEngine) N() int {
	de.mu.Lock()
	defer de.mu.Unlock()
	return de.dyn.N()
}

// Curve returns the name of the shard's space-filling curve.
func (de *DynEngine) Curve() string { return de.curve.Name() }

// Epsilon returns the dynamic layout's rebuild threshold.
func (de *DynEngine) Epsilon() float64 {
	de.mu.Lock()
	defer de.mu.Unlock()
	return de.dyn.Epsilon()
}

// Backend returns the shard's resolved execution-backend name. Every
// epoch's inner engine runs on it. A native epoch holds no placement:
// its per-tree preprocessing (the treefix preorder and the LCA table,
// each built on the epoch's first request that needs it) is the only
// O(n)-to-O(n log n) cost a refresh leads to. A sim epoch copies the
// dynamic layout's parked positions instead.
func (de *DynEngine) Backend() string { return exec.Normalize(de.opts.Backend) }

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

// Tree returns a validated snapshot of the current tree. A getter only:
// it never refreshes the serving state (the inner engine's tree is
// reused when it is current, otherwise a fresh snapshot is validated).
func (de *DynEngine) Tree() (*tree.Tree, error) {
	de.mu.Lock()
	defer de.mu.Unlock()
	if !de.dirty && de.inner != nil {
		return de.inner.Tree(), nil
	}
	return de.dyn.Tree()
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

// submit routes one request to the current epoch's inner engine under
// the mutation lock, so a submission can never land on a retired epoch.
// A submission that fills the window runs its batch inline while holding
// the lock — mutations land between batches, as documented.
func (de *DynEngine) submit(f func(*Engine) *Future) *Future {
	de.mu.Lock()
	defer de.mu.Unlock()
	eng, err := de.engineLocked()
	if err != nil {
		return failedFuture(err)
	}
	return f(eng)
}

// Flush runs the pending batch, if any, and blocks until it resolves.
func (de *DynEngine) Flush() {
	de.mu.Lock()
	inner := de.inner
	de.mu.Unlock()
	if inner != nil {
		inner.Flush()
	}
}

// Pending returns the number of queued, unflushed requests.
func (de *DynEngine) Pending() int {
	de.mu.Lock()
	inner := de.inner
	de.mu.Unlock()
	if inner == nil {
		return 0
	}
	return inner.Pending()
}

// State captures the engine's complete durable state under the
// mutation lock — everything RestoreDyn needs to yield a shard serving
// identical answers with identical accounting — so it is consistent
// with the epoch of the last journaled record, the invariant compaction
// relies on (a snapshot at epoch E supersedes exactly the WAL records
// with epoch <= E).
func (de *DynEngine) State() persist.DynSnapshot {
	de.mu.Lock()
	defer de.mu.Unlock()
	return persist.DynSnapshot{
		Parents:       de.dyn.Parents(),
		Curve:         de.curve.Name(),
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
// state is refreshed exactly as NewDyn would. WAL records newer than
// st.Epoch are the caller's to re-apply through ApplyRecord before
// installing a journal with SetJournal.
func RestoreDyn(st persist.DynSnapshot, opts Options) (*DynEngine, error) {
	name := st.Curve
	if name == "" {
		name = "hilbert"
	}
	c, err := sfc.ByName(name)
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
	resolved := opts
	resolved.Curve = name
	if resolved.Cache == nil {
		resolved.Cache = NewLayoutCache(DefaultCacheCapacity)
	}
	de := &DynEngine{curve: c, opts: resolved, dyn: d, epoch: st.Epoch}
	de.mu.Lock()
	defer de.mu.Unlock()
	return de, de.refreshLocked()
}

// Stats returns a snapshot of the engine's counters.
func (de *DynEngine) Stats() DynStats {
	de.mu.Lock()
	defer de.mu.Unlock()
	eng := de.retired
	if de.inner != nil {
		eng.Add(de.inner.Stats())
	}
	eng.Cache = de.opts.Cache.Stats()
	return DynStats{
		Epoch:         de.epoch,
		N:             de.dyn.N(),
		Inserts:       uint64(de.dyn.Inserts),
		Deletes:       uint64(de.dyn.Deletes),
		Rebuilds:      uint64(de.dyn.Rebuilds),
		Refreshes:     de.refreshes,
		ParkEnergy:    de.dyn.ParkEnergy,
		MigrateEnergy: de.dyn.MigrateEnergy,
		Engine:        eng,
	}
}
