package engine

import (
	"cmp"
	"fmt"
	"sync"

	"spatialtree/internal/exec"
	"spatialtree/internal/par"
	"spatialtree/internal/tree"
)

// Pool shards engines by tree: it keeps one Engine per distinct tree
// fingerprint, all backed by one shared LayoutCache, and flushes the
// shards' independent batches in parallel. Use it when traffic spans
// many trees (e.g. a forest of per-tenant indexes): same tree → same
// engine → coalesced batches; different trees → different shards →
// concurrent runs. A shard serves on one execution backend at a time;
// EngineBackend switches it in place, keeping its counters, so a tree
// can move between native serving and the metering simulator without a
// second shard. Only a sim shard holds a placement, taken from the one
// shared cache; a native shard builds none.
//
// Mutable trees cannot be routed structurally — every mutation changes
// the fingerprint — so the pool holds none: a DynEngine built with the
// pool's Options serves identically, and its owner routes it by
// identity.
type Pool struct {
	opts Options

	mu       sync.Mutex //spatialvet:lockclass routing
	engines  map[uint64]*Engine
	building map[uint64]*poolBuild
	shards   []*Engine // stable insertion order for FlushAll and Stats
}

// poolBuild coalesces concurrent first sights of one fingerprint: the
// first caller constructs the engine, the rest wait.
type poolBuild struct {
	done chan struct{}
	e    *Engine
	err  error
}

// NewPool returns a pool; opts applies to every engine the pool
// creates, and a nil opts.Cache is replaced by one shared cache sized to
// hold DefaultCacheCapacity placements.
func NewPool(opts Options) *Pool {
	if opts.Cache == nil {
		opts.Cache = NewLayoutCache(DefaultCacheCapacity)
	}
	return &Pool{
		opts:     opts,
		engines:  make(map[uint64]*Engine),
		building: make(map[uint64]*poolBuild),
	}
}

// Engine returns the pool's engine for t, creating it on the pool's
// default backend on first sight. Structurally identical trees share a
// shard. An existing shard is returned on whichever backend it serves:
// Engine never switches one. Concurrent first sights of the same tree
// coalesce onto one construction (and, on sim, through the shared
// cache, one layout build).
func (p *Pool) Engine(t *tree.Tree) (*Engine, error) {
	return p.shard(t, exec.Normalize(p.opts.Backend))
}

// EngineBackend returns the pool's engine for t serving on backend (""
// means the pool's default, Options.Backend): it builds the shard on
// that backend on first sight, or switches the tree's one shard to it in
// place. Batches already dispatched finish on the backend they were
// taken on, and the shard's counters carry across the switch.
func (p *Pool) EngineBackend(t *tree.Tree, backend string) (*Engine, error) {
	name := exec.Normalize(cmp.Or(backend, p.opts.Backend))
	e, err := p.shard(t, name)
	if err == nil {
		err = e.setBackend(name)
	}
	if err != nil {
		return nil, err
	}
	return e, nil
}

// shard returns t's shard, building it on backend on first sight.
func (p *Pool) shard(t *tree.Tree, backend string) (*Engine, error) {
	fp := Fingerprint(t)
	p.mu.Lock()
	if e, ok := p.engines[fp]; ok {
		p.mu.Unlock()
		return e, nil
	}
	if b, ok := p.building[fp]; ok {
		p.mu.Unlock()
		<-b.done
		return b.e, b.err
	}
	b := &poolBuild{done: make(chan struct{})}
	p.building[fp] = b
	p.mu.Unlock()

	// Build outside the lock: construction (on sim, the layout) is the
	// expensive part and must not serialize unrelated shards. The deferred publish runs
	// even if the build panics, so waiters get an error instead of
	// blocking forever on a done channel that never closes.
	var e *Engine
	var err error
	defer func() {
		if e == nil && err == nil {
			err = fmt.Errorf("engine: pool build for fingerprint %x did not complete", fp)
		}
		p.mu.Lock()
		delete(p.building, fp)
		if err == nil {
			p.engines[fp] = e
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

// Options returns the pool's resolved engine options (shared cache
// included), so callers can build engines that serve identically to the
// pool's own without registering them — mutable shards, and replica
// engines, which only apply shipped records until a failover adopts
// them.
func (p *Pool) Options() Options { return p.opts }

// Size returns the number of shards (distinct trees).
func (p *Pool) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.shards)
}

// FlushAll flushes every shard, running independent shards' batches in
// parallel, and blocks until all of them have resolved.
func (p *Pool) FlushAll() {
	p.mu.Lock()
	shards := append([]*Engine(nil), p.shards...)
	p.mu.Unlock()
	par.For(len(shards), 0, func(lo, hi int) {
		for _, e := range shards[lo:hi] {
			e.Flush()
		}
	})
}

// Stats aggregates the counters of every shard. The Cache field is the
// shared cache's (not a per-shard sum).
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	shards := append([]*Engine(nil), p.shards...)
	p.mu.Unlock()
	var agg Stats
	for _, e := range shards {
		agg.Add(e.Stats())
	}
	agg.Cache = p.opts.Cache.Stats()
	return agg
}
