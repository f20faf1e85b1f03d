package engine

import (
	"sync"
	"testing"

	"spatialtree/internal/machine"
	"spatialtree/internal/rng"
	"spatialtree/internal/sfc"
	"spatialtree/internal/tree"
)

// TestGetOrBuildSingleFlight is the thundering-herd regression test:
// N concurrent misses on one key must run the layout pipeline exactly
// once, with every caller receiving the same placement.
func TestGetOrBuildSingleFlight(t *testing.T) {
	tr := tree.RandomAttachment(4000, rng.New(1))
	fp := Fingerprint(tr)
	c := NewLayoutCache(4)
	const goroutines = 32
	var (
		wg    sync.WaitGroup
		start = make(chan struct{})
		got   [goroutines]interface{}
	)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i] = c.GetOrBuild(tr, fp, sfc.Hilbert{})
		}(i)
	}
	close(start)
	wg.Wait()

	st := c.Stats()
	if st.Builds != 1 {
		t.Fatalf("builds = %d for %d concurrent misses, want exactly 1", st.Builds, goroutines)
	}
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (only the building lookup)", st.Misses)
	}
	if st.Hits != goroutines-1 {
		t.Fatalf("hits = %d, want %d (coalesced waiters and late hits)", st.Hits, goroutines-1)
	}
	for i := 1; i < goroutines; i++ {
		if got[i] != got[0] {
			t.Fatal("concurrent callers received distinct placements")
		}
	}
	if st.Size != 1 {
		t.Fatalf("cache holds %d entries, want 1", st.Size)
	}
}

// TestPoolEngineSingleBuild pins Pool.Engine's first sight: N concurrent
// first sights of one tree may each construct an engine, but must all
// get the one the pool published, over one layout from the shared cache.
func TestPoolEngineSingleBuild(t *testing.T) {
	base := tree.RandomAttachment(4000, rng.New(2))
	pool := NewPool(Options{})
	const goroutines = 32
	var (
		wg      sync.WaitGroup
		start   = make(chan struct{})
		engines [goroutines]*Engine
	)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			// Fresh Tree value per caller: routing is structural.
			e, err := pool.Engine(tree.MustFromParents(base.Parents()))
			if err != nil {
				t.Error(err)
				return
			}
			engines[i] = e
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 1; i < goroutines; i++ {
		if engines[i] != engines[0] {
			t.Fatal("concurrent callers received distinct engines for one fingerprint")
		}
	}
	if pool.Size() != 1 {
		t.Fatalf("pool size = %d, want 1", pool.Size())
	}
	if st := pool.Stats().Cache; st.Builds != 1 {
		t.Fatalf("layout builds = %d, want exactly 1", st.Builds)
	}
}

// TestCacheStatsEdges pins the divide-by-zero edges of the stats
// surface in a table.
func TestCacheStatsEdges(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    CacheStats
		want float64
	}{
		{"zero lookups", CacheStats{}, 0},
		{"only misses", CacheStats{Misses: 7}, 0},
		{"only hits", CacheStats{Hits: 5}, 1},
		{"mixed", CacheStats{Hits: 3, Misses: 1}, 0.75},
	} {
		if got := tc.s.HitRate(); got != tc.want {
			t.Errorf("%s: HitRate() = %v, want %v", tc.name, got, tc.want)
		}
	}
	// A fresh cache's snapshot must be all-zero and HitRate-safe.
	st := NewLayoutCache(0).Stats()
	if st.Hits != 0 || st.Misses != 0 || st.Builds != 0 || st.HitRate() != 0 {
		t.Errorf("fresh cache stats not zero: %+v", st)
	}
	if st.Capacity != DefaultCacheCapacity {
		t.Errorf("capacity %d, want default %d", st.Capacity, DefaultCacheCapacity)
	}
}

// TestStatsAddFolding pins Stats.Add: counters sum, costs fold
// component-wise, and the Cache field is deliberately untouched
// (cache counters live on the shared cache, not per engine).
func TestStatsAddFolding(t *testing.T) {
	for _, tc := range []struct {
		name string
		a, b Stats
		want Stats
	}{
		{"zero plus zero", Stats{}, Stats{}, Stats{}},
		{
			"zero absorbs",
			Stats{},
			Stats{Batches: 2, Requests: 5, LCAQueries: 7, LCARuns: 1, Cost: machine.Cost{Energy: 10, Messages: 3, Depth: 4}},
			Stats{Batches: 2, Requests: 5, LCAQueries: 7, LCARuns: 1, Cost: machine.Cost{Energy: 10, Messages: 3, Depth: 4}},
		},
		{
			"components sum",
			Stats{Batches: 1, Requests: 2, LCAQueries: 3, LCARuns: 1, Cost: machine.Cost{Energy: 5, Messages: 2, Depth: 7}},
			Stats{Batches: 4, Requests: 8, LCAQueries: 1, LCARuns: 2, Cost: machine.Cost{Energy: 1, Messages: 1, Depth: 1}},
			Stats{Batches: 5, Requests: 10, LCAQueries: 4, LCARuns: 3, Cost: machine.Cost{Energy: 6, Messages: 3, Depth: 8}},
		},
		{
			"trigger counts sum",
			Stats{SizeFlushes: 1, DeadlineFlushes: 2, IdleFlushes: 3},
			Stats{SizeFlushes: 4, DeadlineFlushes: 5, IdleFlushes: 6},
			Stats{SizeFlushes: 5, DeadlineFlushes: 7, IdleFlushes: 9},
		},
	} {
		got := tc.a
		got.Add(tc.b)
		if got != tc.want {
			t.Errorf("%s: Add => %+v, want %+v", tc.name, got, tc.want)
		}
	}
	// Cache counters must not fold: they are shared-cache globals and
	// summing them per shard would double count.
	a := Stats{Cache: CacheStats{Hits: 9}}
	a.Add(Stats{Cache: CacheStats{Hits: 5, Misses: 2}})
	if a.Cache.Hits != 9 || a.Cache.Misses != 0 {
		t.Errorf("Add folded cache counters: %+v", a.Cache)
	}
}
