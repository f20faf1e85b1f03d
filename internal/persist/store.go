package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Defaults used by Open when the corresponding Options field is zero.
const (
	// DefaultCompactAfter is the number of WAL records a dyn shard
	// accumulates past its snapshot before NeedsCompact reports true.
	DefaultCompactAfter = 4096
	// DefaultSegmentBytes is the segment size beyond which the WAL
	// rotates to a fresh file.
	DefaultSegmentBytes = 1 << 20
)

// Options configures a Store.
type Options struct {
	// Dir is the data directory. It is created if absent.
	Dir string
	// Fsync, when true, fsyncs the WAL after every appended record —
	// a crash then loses at most the record being written. When false,
	// appends reach the OS page cache only and a crash can lose the
	// un-flushed tail; recovery still yields a consistent prefix either
	// way, because records are CRC-framed. Snapshots are always fsynced
	// regardless of this knob: they are rare and load-bearing.
	Fsync bool
	// CompactAfter is the WAL length (records since the last snapshot)
	// beyond which a shard log reports NeedsCompact (0 means
	// DefaultCompactAfter).
	CompactAfter int
	// SegmentBytes is the WAL segment rotation threshold (0 means
	// DefaultSegmentBytes).
	SegmentBytes int64
}

// Store is a durable home for a server's shard table: registered trees
// as parents-only tree snapshots under trees/, and mutable shards as a
// snapshot plus an append-only WAL under dyn/<id>/. All methods are
// safe for concurrent use; per-shard ordering is the caller's (the
// engine journals under its own mutation lock).
type Store struct {
	opts Options
	lock *os.File // exclusive flock on Dir (nil on platforms without flock)

	mu   sync.Mutex
	logs map[*ShardLog]struct{} // open logs, closed by Close
}

// Open creates or opens the store rooted at opts.Dir.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("persist: empty data directory")
	}
	if opts.CompactAfter <= 0 {
		opts.CompactAfter = DefaultCompactAfter
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	for _, d := range []string{opts.Dir, filepath.Join(opts.Dir, "trees"), filepath.Join(opts.Dir, "dyn")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("persist: %w", err)
		}
	}
	lock, err := lockDir(opts.Dir)
	if err != nil {
		return nil, err
	}
	return &Store{opts: opts, lock: lock, logs: make(map[*ShardLog]struct{})}, nil
}

// Dir returns the store's data directory.
func (s *Store) Dir() string { return s.opts.Dir }

// Options returns the options the store was opened with, defaults
// resolved.
func (s *Store) Options() Options { return s.opts }

// Close closes every open shard log, syncing their current segments.
func (s *Store) Close() error {
	s.mu.Lock()
	logs := make([]*ShardLog, 0, len(s.logs))
	for l := range s.logs {
		logs = append(logs, l)
	}
	s.logs = make(map[*ShardLog]struct{})
	s.mu.Unlock()
	var first error
	for _, l := range logs {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	unlockDir(s.lock)
	s.lock = nil
	return first
}

// SaveTree persists a registered tree's parent array under id as a
// tree snapshot (atomic write; overwriting an existing id is
// idempotent).
func (s *Store) SaveTree(id string, parents []int) error {
	if err := checkID(id); err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(s.opts.Dir, "trees", id+".snap"), EncodeTree(parents))
}

// SavedTree is one recovered registered tree.
type SavedTree struct {
	ID      string
	Parents []int
}

// LoadTrees decodes every registered-tree snapshot, sorted by id. A
// placement snapshot, the form older data directories hold trees in,
// loads too: its parents are the tree, and its placement is dropped.
func (s *Store) LoadTrees() ([]SavedTree, error) {
	dir := filepath.Join(s.opts.Dir, "trees")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	var out []SavedTree
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".snap") {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("persist: %w", err)
		}
		v, err := Decode(raw)
		if err != nil {
			return nil, fmt.Errorf("persist: tree snapshot %s: %w", name, err)
		}
		st := SavedTree{ID: strings.TrimSuffix(name, ".snap")}
		switch snap := v.(type) {
		case TreeSnapshot:
			st.Parents = snap.Parents
		case PlacementSnapshot:
			st.Parents = snap.Parents
		default:
			return nil, fmt.Errorf("persist: tree snapshot %s: %w", name, format.Corruptf("frame holds a %T", v))
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// ShardIDs lists the mutable shards present in the store, sorted.
func (s *Store) ShardIDs() ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(s.opts.Dir, "dyn"))
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// CreateShardLog initializes durability for a new mutable shard: its
// initial snapshot plus an empty WAL segment opened for appending.
func (s *Store) CreateShardLog(id string, snap DynSnapshot) (*ShardLog, error) {
	if err := checkID(id); err != nil {
		return nil, err
	}
	dir := filepath.Join(s.opts.Dir, "dyn", id)
	if _, err := os.Stat(dir); err == nil {
		return nil, fmt.Errorf("persist: shard %s already exists", id)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	if err := writeFileAtomic(snapPath(dir, snap.Epoch), EncodeDyn(snap)); err != nil {
		// Leave nothing behind: a half-created shard directory would
		// otherwise resurrect as a routable ghost on the next recovery,
		// after the creator was told the shard does not exist.
		os.RemoveAll(dir)
		return nil, err
	}
	l := s.newLog(dir, snap.Epoch)
	if err := l.openSegmentLocked(1); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s.track(l)
	return l, nil
}

// OpenShardLog recovers a mutable shard: it loads the newest readable
// snapshot, replays the WAL's surviving prefix (stopping at the first
// torn or inconsistent record, truncating the log there so appends
// resume on a clean boundary), and returns the snapshot together with
// the post-snapshot mutation records to re-apply, in order.
func (s *Store) OpenShardLog(id string) (*ShardLog, DynSnapshot, []Record, error) {
	dir := filepath.Join(s.opts.Dir, "dyn", id)
	snap, err := loadNewestSnapshot(dir)
	if err != nil {
		return nil, DynSnapshot{}, nil, err
	}
	l := s.newLog(dir, snap.Epoch)
	recs, err := l.recoverSegments()
	if err != nil {
		return nil, DynSnapshot{}, nil, err
	}
	s.track(l)
	return l, snap, recs, nil
}

// newLog is the unopened log of the shard in dir, its snapshot at epoch.
func (s *Store) newLog(dir string, epoch uint64) *ShardLog {
	return &ShardLog{
		store:        s,
		dir:          dir,
		fsync:        s.opts.Fsync,
		segmentBytes: s.opts.SegmentBytes,
		compactAfter: s.opts.CompactAfter,
		snapEpoch:    epoch,
		lastEpoch:    epoch,
	}
}

func (s *Store) track(l *ShardLog) {
	s.mu.Lock()
	s.logs[l] = struct{}{}
	s.mu.Unlock()
}

// ShardLog is one mutable shard's durability state: the append-side of
// its WAL plus the bookkeeping that ties segments to snapshots. Safe
// for concurrent use, though mutation ordering is the caller's (the
// engine journals under its mutation lock, so records arrive in epoch
// order).
type ShardLog struct {
	mu           sync.Mutex
	store        *Store
	dir          string
	fsync        bool
	segmentBytes int64
	compactAfter int

	f        *os.File
	seg      int
	segBytes int64

	lastEpoch uint64 // epoch of the newest appended (or recovered) record
	snapEpoch uint64 // epoch of the newest snapshot
	closed    []closedSegment
	scratch   []byte

	appends     uint64
	compactions uint64
}

// closedSegment remembers a rotated-out segment and the epoch of its
// last record, so compaction deletes exactly the segments a snapshot
// fully covers.
type closedSegment struct {
	seq  int
	last uint64
}

// Append journals one mutation record (RecInsert or RecDelete),
// rotating the segment when it outgrew the threshold and fsyncing per
// the store's policy. Records must arrive in epoch order, advancing by
// exactly one — the engine's mutation lock guarantees it.
func (l *ShardLog) Append(r Record) error {
	if r.Type != RecInsert && r.Type != RecDelete {
		return fmt.Errorf("persist: cannot append record type %d", r.Type)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("persist: shard log is closed")
	}
	if r.Epoch != l.lastEpoch+1 {
		return fmt.Errorf("persist: record epoch %d does not follow %d", r.Epoch, l.lastEpoch)
	}
	if l.segBytes >= l.segmentBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	if err := l.writeLocked(r); err != nil {
		return err
	}
	if l.fsync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("persist: %w", err)
		}
	}
	l.lastEpoch = r.Epoch
	l.appends++
	return nil
}

// RecordsSinceSnapshot returns the WAL length past the newest snapshot.
// Epochs advance by one per record, so this is a subtraction, not a
// scan. (A snapshot can run ahead of the log after an append failure —
// see Compact — in which case there is nothing to replay and this is
// zero.)
func (l *ShardLog) RecordsSinceSnapshot() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.lastEpoch < l.snapEpoch {
		return 0
	}
	return l.lastEpoch - l.snapEpoch
}

// LastEpoch returns the epoch of the newest record the log holds (or
// the snapshot epoch when the snapshot is newer). A shard whose engine
// epoch is ahead of this has un-journaled mutations: its durability can
// only be restored by a Compact at the engine's current state.
func (l *ShardLog) LastEpoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.snapEpoch > l.lastEpoch {
		return l.snapEpoch
	}
	return l.lastEpoch
}

// NeedsCompact reports whether the WAL has outgrown the compaction
// threshold and the shard should be re-snapshotted via Compact.
func (l *ShardLog) NeedsCompact() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastEpoch >= l.snapEpoch && l.lastEpoch-l.snapEpoch >= uint64(l.compactAfter)
}

// Appends returns how many records Append journaled through this log.
func (l *ShardLog) Appends() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appends
}

// Compactions returns how many times Compact succeeded.
func (l *ShardLog) Compactions() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.compactions
}

// Compact folds the WAL into a fresh snapshot: snap (the shard's state
// at snap.Epoch, captured by the caller) is written atomically, the
// current segment is rotated out, and every closed segment whose
// records the snapshot covers is deleted. Records newer than snap.Epoch
// — appended between the caller's state capture and this call — stay in
// place and replay on top of the snapshot, so Compact never needs to
// exclude the engine's mutation lock.
//
// Compact is also the log's repair path: after a failed Append the
// engine's epoch runs ahead of the log, the gap can never be filled
// (the WAL's replay contract is consecutive epochs), and Append
// rightly refuses everything that follows. A snapshot at the engine's
// current state supersedes the gap entirely, so a successful Compact
// advances the log to snap.Epoch and appends resume at snap.Epoch+1.
func (l *ShardLog) Compact(snap DynSnapshot) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("persist: shard log is closed")
	}
	if snap.Epoch < l.snapEpoch {
		return fmt.Errorf("persist: compaction epoch %d behind snapshot epoch %d", snap.Epoch, l.snapEpoch)
	}
	if err := writeFileAtomic(snapPath(l.dir, snap.Epoch), EncodeDyn(snap)); err != nil {
		return err
	}
	l.snapEpoch = snap.Epoch
	if snap.Epoch > l.lastEpoch {
		// The snapshot covers mutations the log never received (a
		// prior Append failed); resync so appends resume after it.
		l.lastEpoch = snap.Epoch
	}
	// Older snapshots are now redundant; best-effort removal.
	removeOtherSnapshots(l.dir, snap.Epoch)
	if err := l.rotateLocked(); err != nil {
		return err
	}
	kept := l.closed[:0]
	for _, c := range l.closed {
		if c.last <= l.snapEpoch {
			_ = os.Remove(segPath(l.dir, c.seq))
		} else {
			kept = append(kept, c)
		}
	}
	l.closed = kept
	l.compactions++
	return nil
}

// ErrCompacted reports that the records a reader asked for are no
// longer in the WAL: a snapshot superseded them and compaction deleted
// their segments. The reader must resync from a snapshot instead.
var ErrCompacted = fmt.Errorf("persist: records compacted away")

// RecordsAfter returns the mutation records with epochs strictly after
// epoch, in order — the log-shipping read path: a replication owner
// ships exactly the records a follower's apply cursor is missing.
// Segments whose last record the cursor already covers are skipped
// without being read. ErrCompacted (wrapped) means the WAL no longer
// reaches back to epoch and the follower needs a snapshot.
//
// Reading happens on independent file handles against segments the
// holder of l.mu can see, so it is consistent with appends: a record is
// returned only once its single-call Write completed.
func (l *ShardLog) RecordsAfter(epoch uint64) ([]Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil, fmt.Errorf("persist: shard log is closed")
	}
	if epoch >= l.lastEpoch {
		return nil, nil
	}
	if epoch < l.snapEpoch {
		return nil, fmt.Errorf("%w: epoch %d predates snapshot %d", ErrCompacted, epoch, l.snapEpoch)
	}
	var out []Record
	read := func(seq int) error {
		raw, err := os.ReadFile(segPath(l.dir, seq))
		if err != nil {
			return fmt.Errorf("persist: %w", err)
		}
		recs, _, _ := scanRecords(raw)
		for _, r := range recs {
			if r.Type != RecFence && r.Epoch > epoch {
				out = append(out, r)
			}
		}
		return nil
	}
	for _, c := range l.closed {
		if c.last <= epoch {
			continue
		}
		if err := read(c.seq); err != nil {
			return nil, err
		}
	}
	if err := read(l.seg); err != nil {
		return nil, err
	}
	// The append path enforces consecutive epochs, so any discontinuity
	// here means the files under the log changed out from under it.
	for i, r := range out {
		if r.Epoch != epoch+1+uint64(i) {
			return nil, fmt.Errorf("persist: records after epoch %d are not consecutive (found %d at index %d)", epoch, r.Epoch, i)
		}
	}
	return out, nil
}

// Close syncs and closes the current segment; the log is unusable
// afterwards.
func (l *ShardLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	return nil
}

// Drop closes the log and deletes the shard's durable state: its
// snapshots and every WAL segment. The holder of the shard's engine
// drops a superseded or discarded copy with it, in whichever store the
// copy lives. Dropping a nil log is a no-op.
func (l *ShardLog) Drop() error {
	if l == nil {
		return nil
	}
	_ = l.Close() // the files are removed next; a failed final sync loses nothing
	l.store.mu.Lock()
	delete(l.store.logs, l)
	l.store.mu.Unlock()
	if err := os.RemoveAll(l.dir); err != nil {
		return fmt.Errorf("persist: drop shard %s: %w", filepath.Base(l.dir), err)
	}
	return nil
}

// writeLocked frames r and writes it with a single Write call, so a
// crash tears at most the final record.
func (l *ShardLog) writeLocked(r Record) error {
	l.scratch = appendRecord(l.scratch[:0], r)
	n, err := l.f.Write(l.scratch)
	l.segBytes += int64(n)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	return nil
}

// rotateLocked closes the current segment and starts the next one,
// fencing it with the epoch the log has reached.
func (l *ShardLog) rotateLocked() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	l.closed = append(l.closed, closedSegment{seq: l.seg, last: l.lastEpoch})
	return l.openSegmentLocked(l.seg + 1)
}

// openSegmentLocked creates segment seq and writes its fence record.
func (l *ShardLog) openSegmentLocked(seq int) error {
	f, err := os.OpenFile(segPath(l.dir, seq), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	l.f, l.seg, l.segBytes = f, seq, 0
	if err := l.writeLocked(Record{Type: RecFence, Epoch: l.lastEpoch}); err != nil {
		return err
	}
	if l.fsync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("persist: %w", err)
		}
	}
	return nil
}

// recoverSegments scans the shard's WAL segments in order, validates
// epoch continuity, truncates the log at the first torn or inconsistent
// record, deletes any segments beyond the cut, reopens the tail for
// appending, and returns the surviving post-snapshot mutation records.
func (l *ShardLog) recoverSegments() ([]Record, error) {
	seqs, err := listSegments(l.dir)
	if err != nil {
		return nil, err
	}
	if len(seqs) == 0 {
		// A shard with a snapshot but no WAL (e.g. a crash between
		// snapshot rename and segment creation): start a fresh log.
		return nil, l.openSegmentLocked(1)
	}

	var kept []Record
	cursor := uint64(0) // epoch of the last record seen
	haveCursor := false
	cut := -1 // index into seqs where the log was cut, -1 = clean
	cutOff := int64(0)
	segLast := make([]uint64, len(seqs)) // last record epoch per scanned segment

	for i, seq := range seqs {
		raw, err := os.ReadFile(segPath(l.dir, seq))
		if err != nil {
			return nil, fmt.Errorf("persist: %w", err)
		}
		recs, starts, valid := scanRecords(raw)
		for j, r := range recs {
			// Epoch continuity: a fence repeats the epoch the log had
			// reached when its segment was created; a mutation advances
			// it by exactly one. Anything else — like a gap between the
			// snapshot and the first surviving record — means the rest of
			// the log is unusable, so it is cut exactly like a torn tail.
			ok := !haveCursor || r.Epoch == cursor
			if r.Type != RecFence {
				ok = !haveCursor || r.Epoch == cursor+1
				if ok && r.Epoch > l.snapEpoch && r.Epoch != l.snapEpoch+1+uint64(len(kept)) {
					ok = false
				}
			}
			if !ok {
				cut, cutOff = i, int64(starts[j])
				break
			}
			cursor, haveCursor = r.Epoch, true
			segLast[i] = r.Epoch
			if r.Type != RecFence && r.Epoch > l.snapEpoch {
				kept = append(kept, r)
			}
		}
		if cut < 0 && valid < len(raw) {
			// Torn tail inside this segment.
			cut, cutOff = i, int64(valid)
		}
		if cut >= 0 {
			break
		}
	}

	last := len(seqs) - 1
	if cut >= 0 {
		if err := os.Truncate(segPath(l.dir, seqs[cut]), cutOff); err != nil {
			return nil, fmt.Errorf("persist: %w", err)
		}
		for _, seq := range seqs[cut+1:] {
			_ = os.Remove(segPath(l.dir, seq))
		}
		last = cut
	}
	if len(kept) > 0 {
		l.lastEpoch = kept[len(kept)-1].Epoch
	}
	for i, seq := range seqs[:last] {
		// segLast may read as 0 for a segment holding only a pre-cursor
		// fence; max with snapEpoch keeps the deletion rule conservative.
		lastEpoch := segLast[i]
		if lastEpoch < l.snapEpoch {
			lastEpoch = l.snapEpoch
		}
		l.closed = append(l.closed, closedSegment{seq: seq, last: lastEpoch})
	}
	// Reopen the surviving tail for appending.
	f, err := os.OpenFile(segPath(l.dir, seqs[last]), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("persist: %w", err)
	}
	l.f, l.seg, l.segBytes = f, seqs[last], info.Size()
	return kept, nil
}

// --- file naming and helpers ---

func snapPath(dir string, epoch uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%020d.snap", epoch))
}

func segPath(dir string, seq int) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%06d.log", seq))
}

// listSegments returns the WAL segment sequence numbers in dir, sorted.
func listSegments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	var seqs []int
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		seq, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"))
		if err != nil || seq <= 0 {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	return seqs, nil
}

// loadNewestSnapshot decodes the newest snapshot in dir. There is
// deliberately no fallback to an older snapshot: the WAL's segments
// may already have been compacted against the newest one, so recovering
// from an older snapshot would hit an epoch gap, cut the log there, and
// destroy fsync-acknowledged records — silent rollback. A newest
// snapshot that fails to read (unreachable short of disk corruption,
// given the atomic write) is a loud recovery error for the operator.
func loadNewestSnapshot(dir string) (DynSnapshot, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return DynSnapshot{}, fmt.Errorf("persist: %w", err)
	}
	var newest string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap") && name > newest {
			newest = name // zero-padded epochs sort lexicographically
		}
	}
	if newest == "" {
		return DynSnapshot{}, fmt.Errorf("persist: shard %s has no snapshot", filepath.Base(dir))
	}
	raw, err := os.ReadFile(filepath.Join(dir, newest))
	if err != nil {
		return DynSnapshot{}, fmt.Errorf("persist: %w", err)
	}
	snap, err := DecodeDyn(raw)
	if err != nil {
		return DynSnapshot{}, fmt.Errorf("persist: snapshot %s: %w", newest, err)
	}
	return snap, nil
}

func removeOtherSnapshots(dir string, keepEpoch uint64) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	keep := filepath.Base(snapPath(dir, keepEpoch))
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap") && name != keep {
			_ = os.Remove(filepath.Join(dir, name))
		}
	}
}

// writeFileAtomic writes data via a temp file, fsyncs it, renames it
// into place and best-effort-syncs the directory, so readers only ever
// observe complete files.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("persist: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("persist: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("persist: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("persist: %w", err)
	}
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

func checkID(id string) error {
	if id == "" || strings.ContainsAny(id, "/\\") || strings.HasPrefix(id, ".") {
		return fmt.Errorf("persist: invalid id %q", id)
	}
	return nil
}
