package engine

import (
	"fmt"
	"sync"

	"spatialtree/internal/exec"
	"spatialtree/internal/par"
	"spatialtree/internal/persist"
	"spatialtree/internal/tree"
)

// Pool shards engines by tree: it keeps one Engine per distinct
// (tree fingerprint, execution backend) pair, all backed by one shared
// LayoutCache, and flushes the shards' independent batches in parallel
// on a worker pool. Use it when traffic spans many trees (e.g. a forest
// of per-tenant indexes): same tree and backend → same engine →
// coalesced batches; different trees → different shards → concurrent
// runs. Folding the backend into the key lets one pool serve the same
// structure natively and under the metering simulator side by side
// (registration APIs pick per tree). Only the sim shard holds a
// placement, taken from the one shared cache; the native shard builds
// none.
//
// Mutable trees cannot be routed structurally — every mutation changes
// the fingerprint — so the pool routes them by engine identity instead:
// NewDynShard registers a DynEngine and hands back the handle, which is
// the shard's only address. FlushAll and Stats cover both kinds.
type Pool struct {
	opts    Options
	workers int

	mu       sync.Mutex //spatialvet:lockclass routing
	engines  map[poolKey]*Engine
	building map[poolKey]*poolBuild
	shards   []*Engine    // stable insertion order for FlushAll and Stats
	dyns     []*DynEngine // mutable shards, routed by identity
}

// poolKey addresses an immutable shard: structural fingerprint plus the
// normalized execution backend serving it.
type poolKey struct {
	fp      uint64
	backend string
}

// poolBuild coalesces concurrent Engine calls for one unseen
// fingerprint: the first caller constructs the engine, the rest wait.
type poolBuild struct {
	done chan struct{}
	e    *Engine
	err  error
}

// NewPool returns a pool whose FlushAll uses at most workers goroutines
// (<= 0 means par.Workers()). opts applies to every engine the pool
// creates; a nil opts.Cache is replaced by one shared cache sized to
// hold DefaultCacheCapacity placements.
func NewPool(workers int, opts Options) *Pool {
	if workers <= 0 {
		workers = par.Workers()
	}
	if opts.Cache == nil {
		opts.Cache = NewLayoutCache(DefaultCacheCapacity)
	}
	return &Pool{
		opts:     opts,
		workers:  workers,
		engines:  make(map[poolKey]*Engine),
		building: make(map[poolKey]*poolBuild),
	}
}

// Engine returns the pool's engine for t on the pool's default backend,
// creating it on first sight. Structurally identical trees share a
// shard. Concurrent first sights of the same key coalesce onto one
// construction (and, on sim, through the shared cache, one layout
// build).
func (p *Pool) Engine(t *tree.Tree) (*Engine, error) {
	return p.EngineBackend(t, "")
}

// EngineBackend is Engine with an explicit execution backend; "" means
// the pool's default (Options.Backend). The same tree on different
// backends occupies distinct shards.
func (p *Pool) EngineBackend(t *tree.Tree, backend string) (*Engine, error) {
	if backend == "" {
		backend = p.opts.Backend
	}
	backend = exec.Normalize(backend)
	key := poolKey{fp: Fingerprint(t), backend: backend}
	p.mu.Lock()
	if e, ok := p.engines[key]; ok {
		p.mu.Unlock()
		return e, nil
	}
	if b, ok := p.building[key]; ok {
		p.mu.Unlock()
		<-b.done
		return b.e, b.err
	}
	b := &poolBuild{done: make(chan struct{})}
	p.building[key] = b
	p.mu.Unlock()

	// Build outside the lock: construction (on sim, the layout) is the
	// expensive part and must not serialize unrelated shards. The deferred publish runs
	// even if the build panics, so waiters get an error instead of
	// blocking forever on a done channel that never closes.
	var e *Engine
	var err error
	defer func() {
		if e == nil && err == nil {
			err = fmt.Errorf("engine: pool build for fingerprint %x did not complete", key.fp)
		}
		p.mu.Lock()
		delete(p.building, key)
		if err == nil {
			p.engines[key] = e
			p.shards = append(p.shards, e)
		}
		b.e, b.err = e, err
		p.mu.Unlock()
		close(b.done)
	}()
	opts := p.opts
	opts.Backend = backend
	e, err = New(t, opts)
	return e, err
}

// NewDynShard creates a mutable shard for t on the pool's default
// backend, backed by the pool's options and shared cache, and registers
// it for FlushAll and Stats. The returned handle is the shard's address
// — the pool never routes mutable trees by fingerprint, because
// mutations change it.
func (p *Pool) NewDynShard(t *tree.Tree, epsilon float64) (*DynEngine, error) {
	return p.NewDynShardBackend(t, epsilon, "")
}

// NewDynShardBackend is NewDynShard with an explicit execution backend
// ("" means the pool's default).
func (p *Pool) NewDynShardBackend(t *tree.Tree, epsilon float64, backend string) (*DynEngine, error) {
	opts := p.opts
	if backend != "" {
		opts.Backend = backend
	}
	de, err := NewDyn(t, DynOptions{Options: opts, Epsilon: epsilon})
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.dyns = append(p.dyns, de)
	p.mu.Unlock()
	return de, nil
}

// RestoreDynShard adopts a recovered mutable shard: the engine is
// rebuilt from st (see RestoreDyn) with the pool's options and shared
// cache and registered for FlushAll and Stats, exactly like a shard
// created through NewDynShard.
func (p *Pool) RestoreDynShard(st persist.DynSnapshot) (*DynEngine, error) {
	de, err := RestoreDyn(st, p.opts)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.dyns = append(p.dyns, de)
	p.mu.Unlock()
	return de, nil
}

// AdoptDynShard registers an existing mutable engine for FlushAll and
// Stats — the failover path, where a cluster node promotes a replica
// engine (built with RestoreDyn on this pool's Options) into serving.
func (p *Pool) AdoptDynShard(de *DynEngine) {
	p.mu.Lock()
	p.dyns = append(p.dyns, de)
	p.mu.Unlock()
}

// ReleaseDynShard unregisters a mutable engine previously registered by
// NewDynShard, RestoreDynShard or AdoptDynShard, so FlushAll and Stats
// stop covering it — the cluster tier's ownership-handback step, where
// a served shard demotes back into a followed replica. Unregistered
// engines are a no-op.
func (p *Pool) ReleaseDynShard(de *DynEngine) {
	p.mu.Lock()
	for i, d := range p.dyns {
		if d == de {
			p.dyns = append(p.dyns[:i], p.dyns[i+1:]...)
			break
		}
	}
	p.mu.Unlock()
}

// Options returns the pool's resolved engine options (shared cache
// included), so callers can build engines that serve identically to the
// pool's own without registering them — replica engines, which only
// apply shipped records until a failover adopts them.
func (p *Pool) Options() Options { return p.opts }

// Cache returns the shared layout cache.
func (p *Pool) Cache() *LayoutCache { return p.opts.Cache }

// Size returns the number of shards (distinct immutable trees plus
// registered mutable shards).
func (p *Pool) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.shards) + len(p.dyns)
}

// FlushAll flushes every shard — immutable and mutable — running
// independent shards' batches in parallel across the pool's workers,
// and blocks until all of them have resolved.
func (p *Pool) FlushAll() {
	p.mu.Lock()
	shards := append([]*Engine(nil), p.shards...)
	dyns := append([]*DynEngine(nil), p.dyns...)
	p.mu.Unlock()
	par.For(len(shards)+len(dyns), p.workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if i < len(shards) {
				shards[i].Flush()
			} else {
				dyns[i-len(shards)].Flush()
			}
		}
	})
}

// Stats aggregates the counters of every shard, folding mutable shards'
// inner-engine counters in. The Cache field is the shared cache's (not
// a per-shard sum).
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	shards := append([]*Engine(nil), p.shards...)
	dyns := append([]*DynEngine(nil), p.dyns...)
	p.mu.Unlock()
	var agg Stats
	for _, e := range shards {
		agg.Add(e.Stats())
	}
	for _, d := range dyns {
		agg.Add(d.Stats().Engine)
	}
	agg.Cache = p.opts.Cache.Stats()
	return agg
}
