package waitunderlock

// Tuner-class cases model a background component that republishes a
// shard's layout: a retune reuses the engine's Quiesce barrier, which
// blocks until every in-flight batch resolves, so Retune must never run
// with a tuner lock held. The sanctioned shape plans under the lock,
// releases it, and only then republishes.

import "sync"

// Target mimics a dyn shard: Retune drains the in-flight batch (a
// transitive Wait) before republishing the layout.
type Target struct{ last *Future }

// Retune quiesces, then installs the new layout.
func (d *Target) Retune() {
	if d.last != nil {
		d.last.Wait()
	}
}

// Tuner mirrors the per-shard tuner state lock.
type Tuner struct {
	tmu    sync.Mutex
	target *Target
}

// BrokenRepublishUnderLock holds the tuner lock across the quiesce:
// every serving batch on the shard would stall behind the tuner.
func (t *Tuner) BrokenRepublishUnderLock() {
	t.tmu.Lock()
	defer t.tmu.Unlock()
	t.target.Retune() // want "call to blocking waitunderlock.Retune .blocks in waitunderlock.Wait. while holding waitunderlock.tmu"
}

// CleanPlanThenRepublish is the tuner's real shape: snapshot the plan
// under the lock, release it, then let Retune quiesce on its own.
func (t *Tuner) CleanPlanThenRepublish() {
	t.tmu.Lock()
	tgt := t.target
	t.tmu.Unlock()
	if tgt != nil {
		tgt.Retune()
	}
}
