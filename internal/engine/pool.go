package engine

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"

	"spatialtree/internal/exec"
	"spatialtree/internal/par"
	"spatialtree/internal/tree"
)

// Pool shards engines by tree: it keeps one Engine per distinct tree,
// keyed by fingerprint (a second tree with the same fingerprint gets no
// shard), all backed by one shared LayoutCache, and flushes the
// shards' independent batches in parallel. Use it when traffic spans
// many trees (e.g. a forest of per-tenant indexes): same tree → same
// engine → coalesced batches; different trees → different shards →
// concurrent runs. A shard serves on one execution backend at a time;
// Shard switches it in place, keeping its counters, so a tree
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

	mu      sync.Mutex //spatialvet:lockclass routing
	engines map[uint64]*Engine
	shards  []*Engine // stable insertion order for FlushAll and Stats
}

// NewPool returns a pool; opts applies to every engine the pool
// creates, and a nil opts.Cache is replaced by one shared cache sized to
// hold DefaultCacheCapacity placements.
func NewPool(opts Options) *Pool {
	if opts.Cache == nil {
		opts.Cache = NewLayoutCache(DefaultCacheCapacity)
	}
	return &Pool{opts: opts, engines: make(map[uint64]*Engine)}
}

// ErrCollision reports that a different tree already holds the pool
// shard of a fingerprint. Fingerprints are 64-bit non-cryptographic
// hashes of client-supplied parent arrays, so the pool compares the
// arrays before it returns a shard.
var ErrCollision = errors.New("engine: fingerprint collision")

// Engine returns the pool's engine for t, creating it on the pool's
// default backend on first sight. Structurally identical trees share a
// shard. An existing shard is returned on whichever backend it serves:
// Engine never switches one. Concurrent first sights of the same tree
// may each construct an engine, but all of them get the one the pool
// published first; on sim the shared cache builds their layout once.
func (p *Pool) Engine(t *tree.Tree) (*Engine, error) {
	return p.Shard(t, Fingerprint(t), "")
}

// Shard is Engine for a caller that already holds t's fingerprint fp
// (which must be Fingerprint(t)), with a backend choice. On first sight
// it builds t's shard on backend, "" meaning the pool's default; racing
// first sights all get the one shard published first, as with Engine. An
// existing shard keeps its backend when backend is "", and is switched
// to backend in place otherwise: batches already dispatched finish on
// the backend they were taken on, and the shard's counters carry across
// the switch. When a different tree holds fp's shard, Shard returns an
// error matching ErrCollision and changes nothing.
func (p *Pool) Shard(t *tree.Tree, fp uint64, backend string) (*Engine, error) {
	e, err := p.shard(t, fp, exec.Normalize(cmp.Or(backend, p.opts.Backend)))
	if err == nil && backend != "" {
		err = e.setBackend(exec.Normalize(backend))
	}
	if err != nil {
		return nil, err
	}
	return e, nil
}

// Lookup returns the shard serving exactly parents, or nil when the
// pool holds none yet; fp must be FingerprintParents(parents). A hit
// needs no validation of parents: its shard's tree was validated when
// the shard was built.
func (p *Pool) Lookup(fp uint64, parents []int) *Engine {
	p.mu.Lock()
	e := p.engines[fp]
	p.mu.Unlock()
	if e == nil || !slices.Equal(e.Tree().Parents(), parents) {
		return nil
	}
	return e
}

// shard returns t's shard, building it on backend on first sight, or an
// ErrCollision error when a different tree holds fp.
func (p *Pool) shard(t *tree.Tree, fp uint64, backend string) (*Engine, error) {
	p.mu.Lock()
	e := p.engines[fp]
	p.mu.Unlock()
	if e == nil {
		// Build outside the lock, so a first sight never serializes
		// unrelated shards. Racing first sights each build and the first
		// to publish wins, which wastes little: the layout cache builds a
		// sim shard's layout once, and a native engine is O(1) to build.
		opts := p.opts
		opts.Backend = backend
		built, err := New(t, opts)
		if err != nil {
			return nil, err
		}
		p.mu.Lock()
		if e = p.engines[fp]; e == nil {
			p.engines[fp] = built
			p.shards = append(p.shards, built)
		}
		p.mu.Unlock()
		if e == nil {
			return built, nil
		}
	}
	return sameTree(e, t, fp)
}

// sameTree returns the shard e holding fp when it serves t's parent
// array, and an ErrCollision error when it serves another tree.
func sameTree(e *Engine, t *tree.Tree, fp uint64) (*Engine, error) {
	if !slices.Equal(e.Tree().Parents(), t.Parents()) {
		return nil, fmt.Errorf("%w: the shard of fingerprint %x serves a different tree", ErrCollision, fp)
	}
	return e, nil
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
