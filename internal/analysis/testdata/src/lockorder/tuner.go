package lockorder

// Tuner-class cases model a background component that adopts shards:
// adopt installs a per-shard observer under the shard's own lock, so
// calling it while the routing table is locked inverts the shard/
// routing order — the sanctioned shape publishes the shard, releases
// the routing lock, and only then hands the shard to the tuner.

import "sync"

// Tuner is the adopting component: adopt touches per-shard state under
// the shard's own lock.
type Tuner struct{ adopted int }

func (t *Tuner) adopt(sh *Shard) {
	sh.smu.Lock()
	t.adopted++
	sh.smu.Unlock()
}

// Registry mirrors the server's shard table gated by a routing lock.
type Registry struct {
	rmu   sync.Mutex //spatialvet:lockclass routing
	tuner *Tuner
	byID  map[string]*Shard
}

// BrokenAdoptUnderRouting registers and adopts in one critical section.
func (r *Registry) BrokenAdoptUnderRouting(id string, sh *Shard) {
	r.rmu.Lock()
	defer r.rmu.Unlock()
	r.byID[id] = sh
	r.tuner.adopt(sh) // want "call to lockorder.adopt .acquires lockorder.smu. while holding routing-class lock lockorder.rmu"
}

// CleanRegisterThenAdopt is the server's real shape: publish the shard
// under the routing lock, release it, then let the tuner take the
// shard's own lock.
func (r *Registry) CleanRegisterThenAdopt(id string, sh *Shard) {
	r.rmu.Lock()
	r.byID[id] = sh
	r.rmu.Unlock()
	r.tuner.adopt(sh)
}
