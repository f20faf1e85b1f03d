package lockorder

// Cluster-class cases: a cluster lock (sanctioned to block on the
// network while held) must be outermost — taking one with anything
// already held is flagged, directly and transitively. The sanctioned
// shape beside each: take the cluster lock first, then whatever nests
// under it.

import "sync"

// Owner mirrors the replication pipeline's per-shard state.
type Owner struct {
	cmu sync.Mutex //spatialvet:lockclass cluster
	n   int
}

func (o *Owner) ship() {
	o.cmu.Lock()
	defer o.cmu.Unlock()
	o.n++
}

// Table mirrors an unclassified bookkeeping lock.
type Table struct {
	tmu   sync.Mutex
	owner *Owner
}

// BrokenClusterUnderLock takes the cluster lock with another held.
func (t *Table) BrokenClusterUnderLock() {
	t.tmu.Lock()
	defer t.tmu.Unlock()
	t.owner.cmu.Lock() // want "cluster-class lock lockorder.cmu acquired while holding lockorder.tmu"
	t.owner.n++
	t.owner.cmu.Unlock()
}

// BrokenClusterTransitive reaches the cluster lock through a callee.
func (t *Table) BrokenClusterTransitive() {
	t.tmu.Lock()
	defer t.tmu.Unlock()
	t.owner.ship() // want "call to lockorder.ship .acquires cluster-class lockorder.cmu. while holding lockorder.tmu"
}

// BrokenClusterUnderRouting nests the cluster lock under routing: the
// routing rule fires (one report per site; it subsumes the cluster one).
func (p *Pool) BrokenClusterUnderRouting(o *Owner) {
	p.mu.Lock()
	defer p.mu.Unlock()
	o.cmu.Lock() // want "lockorder.cmu acquired while holding routing-class lock lockorder.mu"
	o.n++
	o.cmu.Unlock()
}

// CleanClusterFirst is the sanctioned order: cluster lock outermost,
// bookkeeping nested under it.
func (t *Table) CleanClusterFirst() {
	t.owner.cmu.Lock()
	defer t.owner.cmu.Unlock()
	t.tmu.Lock()
	t.tmu.Unlock()
}

// CleanCopyThenShip copies under the table lock, releases it, then
// takes the cluster lock.
func (t *Table) CleanCopyThenShip() {
	t.tmu.Lock()
	o := t.owner
	t.tmu.Unlock()
	o.ship()
}

// BrokenClusterAfterEarlyReturn releases tmu only on the branch that
// returns: on the path that falls through, tmu is still held when the
// cluster lock is taken.
func (t *Table) BrokenClusterAfterEarlyReturn(done bool) {
	t.tmu.Lock()
	if done {
		t.tmu.Unlock()
		return
	}
	t.owner.cmu.Lock() // want "cluster-class lock lockorder.cmu acquired while holding lockorder.tmu"
	t.owner.n++
	t.owner.cmu.Unlock()
	t.tmu.Unlock()
}

// BrokenClusterAfterCaseExit is the same shape through a switch case
// that panics and a select case that returns.
func (t *Table) BrokenClusterAfterCaseExit(k int, quit chan struct{}) {
	t.tmu.Lock()
	switch k {
	case 0:
		t.tmu.Unlock()
		panic("k = 0")
	}
	select {
	case <-quit:
		t.tmu.Unlock()
		return
	default:
	}
	t.owner.ship() // want "call to lockorder.ship .acquires cluster-class lockorder.cmu. while holding lockorder.tmu"
	t.tmu.Unlock()
}

// CleanClusterInEarlyReturn takes the cluster lock inside the branch
// that returns, after the branch released tmu.
func (t *Table) CleanClusterInEarlyReturn(done bool) {
	t.tmu.Lock()
	if done {
		t.tmu.Unlock()
		t.owner.cmu.Lock()
		t.owner.n++
		t.owner.cmu.Unlock()
		return
	}
	t.tmu.Unlock()
}
