package engine

import (
	"container/list"
	"sync"

	"spatialtree/internal/layout"
	"spatialtree/internal/order"
	"spatialtree/internal/sfc"
	"spatialtree/internal/tree"
)

// Fingerprint returns a 64-bit structural hash of a tree: two trees with
// the same parent array have the same fingerprint. It is the tree
// component of layout-cache keys, so that a workload that rebuilds an
// identical tree (e.g. from the same on-disk dataset) still reuses the
// cached placement. Like any hash-keyed cache, distinct trees may
// collide (probability ~2^-64 per pair); callers needing an exact
// identity check must compare parent arrays.
func Fingerprint(t *tree.Tree) uint64 { return FingerprintParents(t.Parents()) }

// FingerprintParents is Fingerprint over a raw parent array, valid or
// not: for a valid array it equals the fingerprint of the tree
// tree.FromParents builds from it, so a caller can find the pool shard
// serving an array before validating it (Pool.Lookup).
func FingerprintParents(parents []int) uint64 {
	h := uint64(len(parents))*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	for _, p := range parents {
		h ^= uint64(int64(p))
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 29
	}
	h ^= h >> 32
	return h
}

// cacheKey identifies one cached light-first placement: the tree's
// structural fingerprint and the space-filling curve.
type cacheKey struct {
	fp    uint64
	curve string
}

// CacheStats reports layout-cache traffic. Hits counts lookups served
// without building (including coalesced waiters); Misses counts lookups
// that started a build; Coalesced counts lookups that piggybacked on a
// build already in flight (every coalesced lookup is also a hit);
// Builds counts layout pipelines actually run — with the in-flight
// coalescing of GetOrBuild, Builds == Misses no matter how many
// goroutines miss the same key concurrently. Evictions counts entries
// removed by LRU pressure.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Builds    uint64
	Coalesced uint64
	Size      int
	Capacity  int
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (c CacheStats) HitRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(total)
}

// DefaultCacheCapacity is the placement capacity of caches created
// implicitly by New when Options.Cache is nil.
const DefaultCacheCapacity = 32

// LayoutCache is a concurrency-safe LRU cache of light-first placements
// keyed by tree fingerprint and curve. One cache can back many engines
// (see Pool); sharing it is what lets a fresh sim Engine on an
// already-seen tree skip the O(n log n) light-first layout pipeline
// entirely.
type LayoutCache struct {
	mu       sync.Mutex
	cap      int
	lru      list.List // front = most recently used; values are *cacheEntry
	entries  map[cacheKey]*list.Element
	building map[cacheKey]*buildCall

	hits, misses, evictions, builds, coalesced uint64
}

type cacheEntry struct {
	key cacheKey
	p   *layout.Placement
}

// buildCall is one in-flight GetOrBuild: the first miss on a key owns
// the build, later misses wait on done and share p.
type buildCall struct {
	done chan struct{}
	p    *layout.Placement
}

// NewLayoutCache returns a cache holding at most capacity placements
// (capacity <= 0 means DefaultCacheCapacity).
func NewLayoutCache(capacity int) *LayoutCache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	c := &LayoutCache{
		cap:      capacity,
		entries:  make(map[cacheKey]*list.Element),
		building: make(map[cacheKey]*buildCall),
	}
	c.lru.Init()
	return c
}

// putLocked inserts a freshly built placement under key, evicting the
// least recently used entries while the cache is full; c.mu must be
// held. Only the build that owns key inserts it, so key is absent.
func (c *LayoutCache) putLocked(key cacheKey, p *layout.Placement) {
	for c.lru.Len() >= c.cap {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.entries, back.Value.(*cacheEntry).key)
		c.evictions++
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, p: p})
}

// GetOrBuild returns the light-first placement of t on curve c, building
// and caching it on a miss. fp must be Fingerprint(t). Concurrent misses
// on the same key coalesce onto a single build (the first miss runs the
// O(n log n) layout pipeline, the rest wait for it), so a thundering
// herd of engines on one tree costs one build, not one per engine.
func (c *LayoutCache) GetOrBuild(t *tree.Tree, fp uint64, curve sfc.Curve) *layout.Placement {
	key := cacheKey{fp: fp, curve: curve.Name()}
	for {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			c.hits++
			c.lru.MoveToFront(el)
			p := el.Value.(*cacheEntry).p
			c.mu.Unlock()
			return p
		}
		if call, ok := c.building[key]; ok {
			c.hits++
			c.coalesced++
			c.mu.Unlock()
			<-call.done
			if call.p != nil {
				return call.p
			}
			// The owning build died (panicked) before publishing; loop
			// and take over the build rather than hand out nil.
			continue
		}
		c.misses++
		call := &buildCall{done: make(chan struct{})}
		c.building[key] = call
		c.mu.Unlock()

		// Build outside the lock: the layout pipeline is the expensive
		// part and must not serialize lookups of other keys. The
		// deferred publish runs even if the build panics, so waiters
		// never block forever.
		defer func() {
			c.mu.Lock()
			if call.p != nil {
				c.builds++
				c.putLocked(key, call.p)
			}
			delete(c.building, key)
			c.mu.Unlock()
			close(call.done)
		}()
		call.p = layout.New(t, order.LightFirst(t), curve)
		return call.p
	}
}

// Stats returns a snapshot of the cache counters.
func (c *LayoutCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Builds:    c.builds,
		Coalesced: c.coalesced,
		Size:      c.lru.Len(),
		Capacity:  c.cap,
	}
}

// Len returns the number of cached placements.
func (c *LayoutCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
