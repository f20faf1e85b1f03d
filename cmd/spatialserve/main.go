// Command spatialserve replays mixed treefix / LCA / min-cut traffic
// against the batched query engine and prints throughput, modeling the
// serving shape the ROADMAP targets: many clients issuing small batches
// against a forest of long-lived trees.
//
// Each round, every client picks a tree from the forest, rebuilds it
// from its parent array (so routing by structural fingerprint, and on
// -backend sim the layout cache, are exercised the way a server
// deserializing per-request tree ids would exercise them), submits
// one treefix plus several LCA sub-batches to the pool's engine for that
// tree, and waits for the coalesced results. The naive comparison point
// (-naive) replays identical traffic through the one-shot public API
// shape: every call rebuilds the light-first layout and runs on its own
// simulator.
//
// With -churn k > 0 the forest becomes mutable: one round in k first
// applies a mutation pair (insert a leaf under a random original
// vertex, delete the youngest inserted leaf) before serving. In engine
// mode the forest is served by DynEngine shards built with the pool's
// options and routed by identity; mutations are O(1) parked moves and
// the serving state refreshes lazily. In -naive mode every mutation pays a
// from-scratch tree validation + light-first rebuild — the
// rebuild-per-mutation baseline the dynamic path is measured against.
//
// By default the engines run under the background autoflush scheduler
// (-flush-delay): waiting clients no longer force a flush, so a round's
// sub-batches keep coalescing with other clients' until the window
// fills or the deadline fires — the linger spatialtreed serves only
// when -max-delay is set. -flush-delay 0 gives the daemon's default
// instead: an idle engine runs a waited request at once, and requests
// that arrive while a batch runs join the next one.
//
// Usage:
//
//	spatialserve                           # defaults: 4 trees × 64 rounds
//	spatialserve -n 16384 -trees 8 -clients 16 -rounds 128
//	spatialserve -naive                    # per-call baseline for the same traffic
//	spatialserve -churn 4                  # mutable forest: 1 in 4 rounds mutates
//	spatialserve -churn 4 -naive           # naive rebuild-per-mutation baseline
//	spatialserve -flush-delay 0            # disable the autoflush scheduler
//	spatialserve -tcp localhost:8373       # remote: binary protocol against spatialtreed
//
// With -tcp the traffic goes out over the length-prefixed binary
// protocol (internal/wire, docs/protocol.md) to a running spatialtreed
// -tcp-addr listener: one pipelined connection per client, queries
// routed by parent array, backpressure answers counted rather than
// fatal. -naive, -churn and -restart are in-process-only knobs.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"spatialtree/internal/dynlayout"
	"spatialtree/internal/engine"
	"spatialtree/internal/exec"
	"spatialtree/internal/layout"
	"spatialtree/internal/lca"
	"spatialtree/internal/machine"
	"spatialtree/internal/mincut"
	"spatialtree/internal/rng"
	"spatialtree/internal/sfc"
	"spatialtree/internal/tree"
	"spatialtree/internal/treefix"
	"spatialtree/internal/wire"
)

func fatal(args ...any) {
	fmt.Fprintln(os.Stderr, append([]any{"spatialserve:"}, args...)...)
	os.Exit(1)
}

func main() {
	var (
		n       = flag.Int("n", 1<<12, "vertices per tree")
		trees   = flag.Int("trees", 4, "distinct trees in the forest")
		clients = flag.Int("clients", 8, "concurrent client goroutines")
		rounds  = flag.Int("rounds", 64, "request rounds per client")
		queries = flag.Int("queries", 256, "LCA queries per round")
		subs    = flag.Int("sub-batches", 4, "LCA sub-batches the queries arrive in")
		window  = flag.Int("window", 16, "engine auto-flush window")
		curve   = flag.String("curve", "hilbert", "space-filling curve")
		seed    = flag.Uint64("seed", 42, "workload seed")
		naive   = flag.Bool("naive", false, "replay through the per-call API instead of the engine")
		cutSh   = flag.Int("mincut-share", 8, "1 in k rounds is a min-cut request (0 = none)")
		churn   = flag.Int("churn", 0, "1 in k rounds mutates its tree (insert+delete) before serving (0 = immutable forest)")
		restart = flag.Int("restart", 4, "immutable forest only: 1 in k rounds uses an ephemeral engine rebuilt from the shared cache, modeling shard restarts (0 = never)")
		epsilon = flag.Float64("epsilon", 0.2, "dynamic layout rebuild threshold (churn mode)")
		fldelay = flag.Duration("flush-delay", time.Millisecond, "autoflush scheduler deadline; 0 disables it (an idle engine runs a waited request at once)")
		backend = flag.String("backend", "native", "engine execution backend: native (goroutine-parallel) or sim (model-cost metering)")
		tcp     = flag.String("tcp", "", "replay against a remote spatialtreed binary-protocol listener at this address instead of in-process (see docs/protocol.md; incompatible with -naive/-churn/-restart)")
	)
	flag.Parse()

	if *tcp != "" {
		if *naive || *churn > 0 {
			fatal("-tcp is remote load generation; -naive and -churn only apply in-process")
		}
		runRemote(*tcp, *n, *trees, *clients, *rounds, *queries, *subs, *cutSh, *seed)
		return
	}

	if !exec.Valid(*backend) {
		fatal("-backend must be one of", exec.Names())
	}

	crv, err := sfc.ByName(*curve)
	if err != nil {
		fatal(err)
	}
	if *subs < 1 {
		*subs = 1
	}

	// The forest: per-tree parent arrays, rebuilt into fresh Tree values
	// per round to model deserialized requests (the cache key is the
	// structural fingerprint, not the pointer).
	parents := make([][]int, *trees)
	edgesOf := make([][]mincut.Edge, *trees)
	for i := range parents {
		t := tree.RandomAttachment(*n, rng.New(*seed+uint64(i)))
		parents[i] = append([]int(nil), t.Parents()...)
		edgesOf[i] = mincut.RandomGraph(t, *n/4, 10, rng.New(*seed+100+uint64(i)))
	}

	opts := engine.Options{
		Curve:      *curve,
		Window:     *window,
		Seed:       *seed,
		Cache:      engine.NewLayoutCache(2 * *trees),
		FlushDelay: *fldelay,
		Backend:    *backend,
	}
	pool := engine.NewPool(opts)

	// Churn mode: one mutable shard per tree. Engine mode routes by
	// identity to a DynEngine; naive mode keeps a bare dynamic layout as
	// the mutable structure and rebuilds from it.
	// The per-shard mutex serializes a mutation with the rounds served
	// against it, so a round's vals length always matches its tree.
	var shards []*mutShard
	if *churn > 0 {
		shards = make([]*mutShard, *trees)
		for i := range shards {
			t := tree.MustFromParents(parents[i])
			sh := &mutShard{origN: *n}
			if *naive {
				d, err := dynlayout.New(t, crv, *epsilon)
				if err != nil {
					fatal(err)
				}
				sh.naive, sh.tree = d, d
			} else {
				de, err := engine.NewDyn(t, engine.DynOptions{Options: opts, Epsilon: *epsilon})
				if err != nil {
					fatal(err)
				}
				sh.eng, sh.tree = de, de
			}
			shards[i] = sh
		}
	}

	var (
		mu        sync.Mutex
		queriesN  int64
		mutations int64
		naiveCost machine.Cost
	)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rng.New(*seed ^ uint64(c)*0x9e3779b97f4a7c15)
			for round := 0; round < *rounds; round++ {
				ti := r.Intn(*trees)
				var served, muts int
				var cost machine.Cost
				wantCut := *cutSh > 0 && (c+round)%*cutSh == 0
				if *churn > 0 {
					mutate := (c+round)%*churn == 0
					served, muts, cost = runMutable(shards[ti], mutate, r, *queries, *subs, wantCut, edgesOf[ti], *naive, crv, *seed)
				} else {
					t := tree.MustFromParents(parents[ti])
					ephemeral := *restart > 0 && (c+round)%*restart == 0
					if wantCut && t.N() >= 2 {
						served, cost = runMinCut(pool, opts, ephemeral, t, edgesOf[ti], *naive, crv, *seed)
					} else {
						served, cost = runMixed(pool, opts, ephemeral, t, r, *queries, *subs, *naive, crv, *seed)
					}
				}
				mu.Lock()
				queriesN += int64(served)
				mutations += int64(muts)
				naiveCost = naiveCost.Plus(cost)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	pool.FlushAll()
	for _, sh := range shards {
		if sh.eng != nil {
			sh.eng.Flush()
		}
	}
	elapsed := time.Since(start)

	mode := "engine"
	if *naive {
		mode = "naive"
	}
	totalRounds := int64(*clients) * int64(*rounds)
	fmt.Printf("mode=%s trees=%d n=%d clients=%d rounds=%d sub-batches=%d window=%d curve=%s churn=%d\n",
		mode, *trees, *n, *clients, *rounds, *subs, *window, *curve, *churn)
	fmt.Printf("wall=%v  rounds/s=%.1f  queries/s=%.1f  mutations=%d\n",
		elapsed.Round(time.Millisecond),
		float64(totalRounds)/elapsed.Seconds(),
		float64(queriesN)/elapsed.Seconds(),
		mutations)
	if *naive {
		fmt.Printf("model: energy=%d messages=%d depth=%d (summed over per-call runs)\n",
			naiveCost.Energy, naiveCost.Messages, naiveCost.Depth)
		return
	}
	st := pool.Stats()
	ephemMu.Lock()
	st.Add(ephemStats)
	ephemMu.Unlock()
	var dyn []engine.DynStats
	for _, sh := range shards {
		ds := sh.eng.Stats()
		st.Add(ds.Engine)
		dyn = append(dyn, ds)
	}
	if *backend == exec.Sim {
		fmt.Printf("model: energy=%d messages=%d depth=%d (summed over batch runs)\n",
			st.Cost.Energy, st.Cost.Messages, st.Cost.Depth)
	} else {
		fmt.Printf("model: unmetered (backend=%s; use -backend sim for model costs)\n", *backend)
	}
	fmt.Printf("engine: batches=%d requests=%d coalescing=%.1f req/batch lca-queries=%d lca-runs=%d\n",
		st.Batches, st.Requests, float64(st.Requests)/float64(max64(st.Batches, 1)),
		st.LCAQueries, st.LCARuns)
	fmt.Printf("scheduler: size-flushes=%d deadline-flushes=%d idle-flushes=%d flush-delay=%v\n",
		st.SizeFlushes, st.DeadlineFlushes, st.IdleFlushes, *fldelay)
	fmt.Printf("cache: hits=%d misses=%d evictions=%d size=%d hit-rate=%.1f%%\n",
		st.Cache.Hits, st.Cache.Misses, st.Cache.Evictions, st.Cache.Size,
		100*st.Cache.HitRate())
	if *churn > 0 {
		var epoch, rebuilds, refreshes uint64
		var park, migrate int64
		for _, ds := range dyn {
			epoch += ds.Epoch
			rebuilds += ds.Rebuilds
			refreshes += ds.Refreshes
			park += ds.ParkEnergy
			migrate += ds.MigrateEnergy
		}
		fmt.Printf("dyn: epoch=%d refreshes=%d layout-rebuilds=%d park-energy=%d migrate-energy=%d\n",
			epoch, refreshes, rebuilds, park, migrate)
	}
}

// runRemote replays the immutable-forest traffic shape against a
// spatialtreed binary-protocol listener: every client holds one
// pipelined connection, routes each query by its tree's parent array
// (the deserializing-server shape the local mode models with
// MustFromParents) and issues one treefix plus the round's LCA
// sub-batches per round. Backpressure answers (StatusTooMany,
// StatusUnavailable) are counted and retried-as-lost rather than
// fatal, so the generator can be pointed at a saturated daemon.
func runRemote(addr string, n, trees, clients, rounds, nq, subs, cutSh int, seed uint64) {
	parents := make([][]int, trees)
	edgesOf := make([][]wire.Edge, trees)
	for i := range parents {
		t := tree.RandomAttachment(n, rng.New(seed+uint64(i)))
		parents[i] = append([]int(nil), t.Parents()...)
		for _, e := range mincut.RandomGraph(t, n/4, 10, rng.New(seed+100+uint64(i))) {
			edgesOf[i] = append(edgesOf[i], wire.Edge{U: e.U, V: e.V, W: e.W})
		}
	}

	var (
		mu       sync.Mutex
		queriesN int64
		rejected int64
	)
	conns := make([]*wire.Client, clients)
	for c := range conns {
		cl, err := wire.Dial(addr, wire.DialOptions{DialTimeout: 5 * time.Second})
		if err != nil {
			fatal(err)
		}
		defer cl.Close()
		conns[c] = cl
	}

	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := conns[c]
			r := rng.New(seed ^ uint64(c)*0x9e3779b97f4a7c15)
			var served, lost int64
			do := func(q *wire.Query) int {
				_, err := cl.Do(q)
				var we *wire.Error
				switch {
				case err == nil:
					return 1
				case errors.As(err, &we) && (we.Status == wire.StatusTooMany || we.Status == wire.StatusUnavailable):
					lost++
					return 0
				default:
					fatal(err)
					return 0
				}
			}
			for round := 0; round < rounds; round++ {
				ti := r.Intn(trees)
				if cutSh > 0 && (c+round)%cutSh == 0 {
					q := wire.Query{Kind: wire.KindMinCut, Parents: parents[ti], Edges: edgesOf[ti]}
					served += int64(do(&q) * len(edgesOf[ti]))
					continue
				}
				vals := make([]int64, n)
				for i := range vals {
					vals[i] = int64(r.Intn(1000))
				}
				q := wire.Query{Kind: wire.KindTreefix, Parents: parents[ti], Op: "add", Vals: vals}
				served += int64(do(&q) * n)
				for _, qs := range splitQueries(r, nq, subs, n) {
					wqs := make([]wire.LCAQuery, len(qs))
					for i, lq := range qs {
						wqs[i] = wire.LCAQuery{U: lq.U, V: lq.V}
					}
					q := wire.Query{Kind: wire.KindLCA, Parents: parents[ti], Queries: wqs}
					served += int64(do(&q) * len(wqs))
				}
			}
			mu.Lock()
			queriesN += served
			rejected += lost
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	fmt.Printf("mode=remote addr=%s trees=%d n=%d clients=%d rounds=%d sub-batches=%d\n",
		addr, trees, n, clients, rounds, subs)
	fmt.Printf("wall=%v  rounds/s=%.1f  queries/s=%.1f  backpressured=%d\n",
		elapsed.Round(time.Millisecond),
		float64(int64(clients)*int64(rounds))/elapsed.Seconds(),
		float64(queriesN)/elapsed.Seconds(),
		rejected)
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// mutShard is one mutable tree of the churn-mode forest: a DynEngine in
// engine mode, a bare dynamic layout (rebuilt from scratch per
// mutation) in naive mode. tree is whichever of the two is live.
type mutShard struct {
	mu    sync.Mutex
	origN int
	tree  dynlayout.MutTree
	eng   *engine.DynEngine
	naive *dynlayout.Dyn
}

// mutate applies the churn pair: insert a leaf under a random original
// vertex, delete the youngest inserted leaf (never an original id, so
// query ids stay valid across the run). The after hook (when non-nil)
// runs once per applied mutation — the naive arm hangs its
// per-mutation rebuild on it.
func (sh *mutShard) mutate(r *rng.RNG, after func()) int {
	muts := 1
	if _, err := sh.tree.InsertLeaf(r.Intn(sh.origN)); err != nil {
		fatal(err)
	}
	if after != nil {
		after()
	}
	ok, err := dynlayout.DeleteYoungestLeaf(sh.tree, sh.origN)
	if err != nil {
		fatal(err)
	}
	if ok {
		muts++
		if after != nil {
			after()
		}
	}
	return muts
}

// runMutable serves one churn-mode round: an optional mutation pair,
// then the usual mixed traffic against the mutable shard. In naive
// mode, the tree is revalidated and the light-first layout rebuilt from
// scratch for every call — and once more after each mutation — which is
// exactly the rebuild-per-mutation baseline.
func runMutable(sh *mutShard, mutate bool, r *rng.RNG, nq, subs int, wantCut bool, edges []mincut.Edge, naive bool, crv sfc.Curve, seed uint64) (served, muts int, cost machine.Cost) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if mutate {
		// In naive mode every applied mutation pays the rebuild a
		// static deployment would: revalidate the tree and rerun the
		// light-first pipeline from scratch.
		var after func()
		if naive {
			after = func() {
				t, err := sh.naive.Tree()
				if err != nil {
					fatal(err)
				}
				layout.LightFirst(t, crv)
			}
		}
		muts = sh.mutate(r, after)
	}

	if naive {
		t, err := sh.naive.Tree()
		if err != nil {
			fatal(err)
		}
		if wantCut {
			s, c := naiveMinCut(t, edges, crv, seed)
			return s, muts, c
		}
		s, c := naiveMixed(t, r, nq, subs, crv, seed)
		return s, muts, c
	}

	de := sh.eng
	n := de.N()
	if wantCut {
		//spatialvet:ignore waitunderlock -- sh.mu serializes whole churn rounds per shard by design; engine workers never take it, so no cycle
		if res := de.SubmitMinCut(edges).Wait(); res.Err != nil {
			fatal(res.Err)
		}
		return len(edges), muts, machine.Cost{}
	}
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(r.Intn(1000))
	}
	futs := make([]*engine.Future, 0, subs+1)
	futs = append(futs, de.SubmitTreefix(vals, treefix.Add))
	for _, qs := range splitQueries(r, nq, subs, sh.origN) {
		futs = append(futs, de.SubmitLCA(qs))
	}
	for _, f := range futs {
		//spatialvet:ignore waitunderlock -- sh.mu serializes whole churn rounds per shard by design; engine workers never take it, so no cycle
		if res := f.Wait(); res.Err != nil {
			fatal("request failed:", res.Err)
		}
	}
	return nq + n, muts, machine.Cost{}
}

// splitQueries draws nq random LCA queries over [0, idRange) in subs
// sub-batches.
func splitQueries(r *rng.RNG, nq, subs, idRange int) [][]lca.Query {
	batches := make([][]lca.Query, subs)
	per := (nq + subs - 1) / subs
	for b := range batches {
		m := per
		if (b+1)*per > nq {
			m = nq - b*per
		}
		if m < 0 {
			m = 0
		}
		qs := make([]lca.Query, m)
		for i := range qs {
			qs[i] = lca.Query{U: r.Intn(idRange), V: r.Intn(idRange)}
		}
		batches[b] = qs
	}
	return batches
}

// naiveMixed replays one round through the per-call API shape: every
// call rebuilds the layout and runs on its own simulator.
func naiveMixed(t *tree.Tree, r *rng.RNG, nq, subs int, crv sfc.Curve, seed uint64) (int, machine.Cost) {
	n := t.N()
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(r.Intn(1000))
	}
	var cost machine.Cost
	p := layout.LightFirst(t, crv)
	s := machine.New(n, p.Curve)
	treefix.BottomUp(s, t, p.Order.Rank, vals, treefix.Add, rng.New(seed))
	cost = cost.Plus(s.Cost())
	for _, qs := range splitQueries(r, nq, subs, n) {
		p := layout.LightFirst(t, crv)
		s := machine.New(n, p.Curve)
		lca.Batched(s, t, p.Order.Rank, qs, rng.New(seed))
		cost = cost.Plus(s.Cost())
	}
	return nq + n, cost
}

func naiveMinCut(t *tree.Tree, edges []mincut.Edge, crv sfc.Curve, seed uint64) (int, machine.Cost) {
	p := layout.LightFirst(t, crv)
	s := machine.New(t.N(), p.Curve)
	if _, err := mincut.OneRespecting(s, t, p.Order.Rank, edges, rng.New(seed)); err != nil {
		fatal(err)
	}
	return len(edges), s.Cost()
}

// Counters of ephemeral (restart-round) engines, which live outside the
// pool and would otherwise vanish from the final report.
var (
	ephemMu    sync.Mutex
	ephemStats engine.Stats
)

// engineFor returns the pool's long-lived shard for t, or — on restart
// rounds — an ephemeral engine, whose placement on sim comes from the
// shared layout cache (the restart path the cache exists for). The
// returned retire func must be called after the round's futures
// resolve; it folds an ephemeral engine's counters into the report.
func engineFor(pool *engine.Pool, opts engine.Options, ephemeral bool, t *tree.Tree) (*engine.Engine, func()) {
	if ephemeral {
		// No scheduler on a round-private engine: nothing else can join
		// its batches, so Wait should flush at once instead of sleeping
		// out the autoflush deadline.
		opts.FlushDelay = 0
		eng, err := engine.New(t, opts)
		if err != nil {
			fatal(err)
		}
		return eng, func() {
			st := eng.Stats()
			ephemMu.Lock()
			ephemStats.Add(st)
			ephemMu.Unlock()
		}
	}
	eng, err := pool.Engine(t)
	if err != nil {
		fatal(err)
	}
	return eng, func() {}
}

// runMixed issues one treefix plus the round's LCA queries split into
// subs sub-batches, and returns the number of individual queries served
// plus (naive mode only) the exact model cost of the per-call runs.
func runMixed(pool *engine.Pool, opts engine.Options, ephemeral bool, t *tree.Tree, r *rng.RNG, nq, subs int, naive bool, crv sfc.Curve, seed uint64) (int, machine.Cost) {
	if naive {
		return naiveMixed(t, r, nq, subs, crv, seed)
	}
	n := t.N()
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(r.Intn(1000))
	}
	eng, retire := engineFor(pool, opts, ephemeral, t)
	futs := make([]*engine.Future, 0, subs+1)
	futs = append(futs, eng.SubmitTreefix(vals, treefix.Add))
	for _, qs := range splitQueries(r, nq, subs, n) {
		futs = append(futs, eng.SubmitLCA(qs))
	}
	for _, f := range futs {
		if res := f.Wait(); res.Err != nil {
			fatal("request failed:", res.Err)
		}
	}
	retire()
	return nq + n, machine.Cost{}
}

func runMinCut(pool *engine.Pool, opts engine.Options, ephemeral bool, t *tree.Tree, edges []mincut.Edge, naive bool, crv sfc.Curve, seed uint64) (int, machine.Cost) {
	if naive {
		return naiveMinCut(t, edges, crv, seed)
	}
	eng, retire := engineFor(pool, opts, ephemeral, t)
	if res := eng.SubmitMinCut(edges).Wait(); res.Err != nil {
		fatal(res.Err)
	}
	retire()
	return len(edges), machine.Cost{}
}
