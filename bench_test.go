package spatialtree

// Benchmark harness: one benchmark per reproduction experiment E1-E12
// (`go run ./cmd/spatialbench -list` prints the claim each one checks;
// docs/bench.md covers the serving benchmarks E13-E17 and their gate).
// Beyond wall-clock ns/op, the benchmarks report the spatial-model
// metrics as custom units: energy/vertex (the
// quantity the paper's O(n) and O(n log n) bounds normalize),
// model-depth, and where relevant the ratio against the PRAM baseline.
//
// Run everything:  go test -bench=. -benchmem
// One experiment:  go test -bench=BenchmarkE9 -benchmem

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spatialtree/internal/dynlayout"
	"spatialtree/internal/engine"
	"spatialtree/internal/eulertour"
	"spatialtree/internal/exprtree"
	"spatialtree/internal/layout"
	"spatialtree/internal/lca"
	"spatialtree/internal/listrank"
	"spatialtree/internal/machine"
	"spatialtree/internal/mincut"
	"spatialtree/internal/order"
	"spatialtree/internal/par"
	"spatialtree/internal/persist"
	"spatialtree/internal/pram"
	"spatialtree/internal/rng"
	"spatialtree/internal/server"
	"spatialtree/internal/sfc"
	"spatialtree/internal/tree"
	"spatialtree/internal/treefix"
	"spatialtree/internal/vtree"
	"spatialtree/internal/wire"
)

const benchN = 1 << 14

// BenchmarkE1CurveConstants measures the distance-bound constant scan
// (E1: α = 3 for Hilbert, unbounded for Z).
func BenchmarkE1CurveConstants(b *testing.B) {
	for _, c := range []sfc.Curve{sfc.Hilbert{}, sfc.ZOrder{}, sfc.Peano{}} {
		b.Run(c.Name(), func(b *testing.B) {
			side := c.Side(1 << 12)
			var alpha float64
			for i := 0; i < b.N; i++ {
				alpha = sfc.MeasureDistanceBoundSampled(c, side).Alpha
			}
			b.ReportMetric(alpha, "alpha")
		})
	}
}

// BenchmarkE2BadLayouts measures the Section III worst cases: BFS on a
// perfect binary tree vs light-first.
func BenchmarkE2BadLayouts(b *testing.B) {
	t := tree.PerfectBinary(14)
	for _, ord := range []string{"bfs", "light-first"} {
		b.Run(ord, func(b *testing.B) {
			o, _ := order.ByName(ord, t, rng.New(1))
			var per float64
			for i := 0; i < b.N; i++ {
				p := layout.New(t, o, sfc.Hilbert{})
				per = layout.ParentChildEnergy(p).PerMessage
			}
			b.ReportMetric(per, "dist/msg")
		})
	}
}

// BenchmarkE3EnergyBound measures the Theorem 1 kernel on light-first
// layouts across curves.
func BenchmarkE3EnergyBound(b *testing.B) {
	t := tree.RandomBoundedDegree(benchN, 2, rng.New(3))
	for _, c := range []sfc.Curve{sfc.Hilbert{}, sfc.Moore{}, sfc.Peano{}} {
		b.Run(c.Name(), func(b *testing.B) {
			var per float64
			for i := 0; i < b.N; i++ {
				p := layout.LightFirst(t, c)
				per = layout.ParentChildEnergy(p).PerVertex
			}
			b.ReportMetric(per, "energy/vertex")
		})
	}
}

// BenchmarkE4ZOrder measures Theorem 2: the Z-order kernel and its
// diagonal split.
func BenchmarkE4ZOrder(b *testing.B) {
	t := tree.RandomBoundedDegree(benchN, 2, rng.New(4))
	var diagPer float64
	for i := 0; i < b.N; i++ {
		p := layout.LightFirst(t, sfc.ZOrder{})
		z := layout.MeasureZDiagnostics(p)
		diagPer = float64(z.Diagonal) / float64(t.N())
	}
	b.ReportMetric(diagPer, "diag-energy/vertex")
}

// BenchmarkE5VirtualTree measures Theorem 3: local broadcast over a
// star through the virtual tree.
func BenchmarkE5VirtualTree(b *testing.B) {
	t := tree.Star(benchN)
	vt := vtree.Build(t, eulertour.SortedChildrenBySize(t, t.SubtreeSizes()))
	rank := order.LightFirst(t).Rank
	vals := make([]int64, t.N())
	var depth int64
	for i := 0; i < b.N; i++ {
		s := machine.New(t.N(), sfc.Hilbert{})
		vtree.LocalBroadcast(s, vt, rank, vals)
		depth = s.Depth()
	}
	b.ReportMetric(float64(depth), "model-depth")
}

// BenchmarkE6ListRanking measures Theorem 5 (spatial) vs Wyllie (PRAM).
func BenchmarkE6ListRanking(b *testing.B) {
	r := rng.New(6)
	next := make([]int, benchN)
	perm := r.Perm(benchN)
	for i := 0; i+1 < benchN; i++ {
		next[perm[i]] = perm[i+1]
	}
	next[perm[benchN-1]] = -1
	b.Run("spatial", func(b *testing.B) {
		var energy int64
		for i := 0; i < b.N; i++ {
			s := machine.New(benchN, sfc.Hilbert{})
			listrank.Spatial(s, next, nil, rng.New(uint64(i)))
			energy = s.Energy()
		}
		b.ReportMetric(float64(energy)/float64(benchN), "energy/vertex")
	})
	b.Run("wyllie-pram", func(b *testing.B) {
		var energy int64
		for i := 0; i < b.N; i++ {
			s := machine.New(benchN, sfc.Hilbert{})
			listrank.Wyllie(s, next, nil)
			energy = s.Energy()
		}
		b.ReportMetric(float64(energy)/float64(benchN), "energy/vertex")
	})
}

// BenchmarkE7LayoutCreation measures Theorem 4: the full light-first
// layout construction pipeline.
func BenchmarkE7LayoutCreation(b *testing.B) {
	t := tree.RandomAttachment(benchN/2, rng.New(7))
	var energy, depth int64
	for i := 0; i < b.N; i++ {
		s := machine.New(t.N()*2, sfc.Hilbert{})
		eulertour.LightFirstLayout(s, t, rng.New(uint64(i)))
		energy, depth = s.Energy(), s.Depth()
	}
	b.ReportMetric(float64(energy), "model-energy")
	b.ReportMetric(float64(depth), "model-depth")
}

// BenchmarkE8Compact measures Lemma 10/11: contraction rounds.
func BenchmarkE8Compact(b *testing.B) {
	t := tree.RandomBoundedDegree(benchN, 2, rng.New(8))
	rank := order.LightFirst(t).Rank
	vals := make([]int64, t.N())
	var rounds int
	for i := 0; i < b.N; i++ {
		s := machine.New(t.N(), sfc.Hilbert{})
		_, st := treefix.BottomUp(s, t, rank, vals, treefix.Add, rng.New(uint64(i)))
		rounds = st.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkE9Treefix measures Lemmas 11/12: the spatial treefix against
// the executable PRAM baseline.
func BenchmarkE9Treefix(b *testing.B) {
	t := tree.RandomBoundedDegree(benchN, 2, rng.New(9))
	rank := order.LightFirst(t).Rank
	vals := make([]int64, t.N())
	for i := range vals {
		vals[i] = int64(i)
	}
	b.Run("spatial", func(b *testing.B) {
		var energy, depth int64
		for i := 0; i < b.N; i++ {
			s := machine.New(t.N(), sfc.Hilbert{})
			treefix.BottomUp(s, t, rank, vals, treefix.Add, rng.New(uint64(i)))
			energy, depth = s.Energy(), s.Depth()
		}
		b.ReportMetric(float64(energy)/float64(t.N()), "energy/vertex")
		b.ReportMetric(float64(depth), "model-depth")
	})
	b.Run("pram-direct", func(b *testing.B) {
		var energy, depth int64
		for i := 0; i < b.N; i++ {
			s := machine.New(2*t.N(), sfc.Hilbert{})
			pram.TreefixDirect(s, t, vals)
			energy, depth = s.Energy(), s.Depth()
		}
		b.ReportMetric(float64(energy)/float64(t.N()), "energy/vertex")
		b.ReportMetric(float64(depth), "model-depth")
	})
}

// BenchmarkE10PathDecomp measures §VI-A: layers of the heavy-light
// decomposition (via the batched-LCA machinery).
func BenchmarkE10PathDecomp(b *testing.B) {
	t := tree.RandomAttachment(benchN, rng.New(10))
	rank := order.LightFirst(t).Rank
	qs := []lca.Query{{U: 0, V: t.N() - 1}}
	var layers int
	for i := 0; i < b.N; i++ {
		s := machine.New(t.N(), sfc.Hilbert{})
		_, st := lca.Batched(s, t, rank, qs, rng.New(uint64(i)))
		layers = st.Layers
	}
	b.ReportMetric(float64(layers), "layers")
}

// BenchmarkE11LCA measures Theorem 6: a full disjoint query batch.
func BenchmarkE11LCA(b *testing.B) {
	t := tree.RandomAttachment(benchN, rng.New(11))
	rank := order.LightFirst(t).Rank
	perm := rng.New(12).Perm(t.N())
	var qs []lca.Query
	for i := 0; i+1 < t.N(); i += 2 {
		qs = append(qs, lca.Query{U: perm[i], V: perm[i+1]})
	}
	var energy, depth int64
	for i := 0; i < b.N; i++ {
		s := machine.New(t.N(), sfc.Hilbert{})
		lca.Batched(s, t, rank, qs, rng.New(uint64(i)))
		energy, depth = s.Energy(), s.Depth()
	}
	b.ReportMetric(float64(energy)/float64(t.N()), "energy/vertex")
	b.ReportMetric(float64(depth), "model-depth")
}

// BenchmarkE12Parallel measures the goroutine executors' wall-clock
// scaling (treefix bottom-up under +, where n = 2^20 is above
// treefix.ParallelMin, so every row but workers=1 splits the pass; see
// also the LCA engine below).
func BenchmarkE12Parallel(b *testing.B) {
	t := tree.RandomAttachment(1<<20, rng.New(13))
	vals := make([]int64, t.N())
	for i := range vals {
		vals[i] = int64(i)
	}
	for _, w := range []int{1, 2, 4, par.Workers()} {
		b.Run("treefix-w"+itoa(w), func(b *testing.B) {
			e := treefix.NewEngine(t, w)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.BottomUp(vals, treefix.Add); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	qs := make([]lca.Query, 1<<17)
	qr := rng.New(14)
	for i := range qs {
		qs[i] = lca.Query{U: qr.Intn(t.N()), V: qr.Intn(t.N())}
	}
	for _, w := range []int{1, par.Workers()} {
		b.Run("lca-queries-w"+itoa(w), func(b *testing.B) {
			e := lca.NewEngine(treefix.NewEngine(t, 1), w)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.BatchLCA(qs)
			}
		})
	}
}

// BenchmarkE13EngineThroughput measures PR 1's batched query engine
// against the naive per-call path on a repeated same-tree workload: 32
// batches (a 128-query LCA batch each, plus a treefix sum every 8th),
// all on one n=2^14 tree. The naive path rebuilds the light-first
// layout and runs a fresh simulator per call; the engine path gets its
// placement from the layout cache and coalesces the whole workload's
// LCA traffic into a single spatial run. It is a sim-backend
// (model-cost) benchmark: the engine arm leaves Backend unset, so both
// arms run exec.Sim; native serving speed is measured by E16, E17 and
// the bench module's open-loop load generator.
func BenchmarkE13EngineThroughput(b *testing.B) {
	t := tree.RandomAttachment(benchN, rng.New(30))
	const (
		batches      = 32
		queriesPer   = 128
		treefixEvery = 8
	)
	qr := rng.New(31)
	qsets := make([][]lca.Query, batches)
	totalQueries := 0
	for i := range qsets {
		qs := make([]lca.Query, queriesPer)
		for j := range qs {
			qs[j] = lca.Query{U: qr.Intn(t.N()), V: qr.Intn(t.N())}
		}
		qsets[i] = qs
		totalQueries += len(qs)
	}
	vals := make([]int64, t.N())
	for i := range vals {
		vals[i] = int64(i % 101)
	}

	b.Run("naive-percall", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for bi := 0; bi < batches; bi++ {
				p := layout.LightFirst(t, sfc.Hilbert{})
				s := machine.New(t.N(), p.Curve)
				lca.Batched(s, t, p.Order.Rank, qsets[bi], rng.New(uint64(i)))
				if bi%treefixEvery == 0 {
					p = layout.LightFirst(t, sfc.Hilbert{})
					s = machine.New(t.N(), p.Curve)
					treefix.BottomUp(s, t, p.Order.Rank, vals, treefix.Add, rng.New(uint64(i)))
				}
			}
		}
		b.ReportMetric(float64(totalQueries*b.N)/b.Elapsed().Seconds(), "queries/s")
	})

	b.Run("engine-batched", func(b *testing.B) {
		cache := engine.NewLayoutCache(4)
		if _, err := engine.New(t, engine.Options{Cache: cache}); err != nil {
			b.Fatal(err) // warm the cache outside the timer
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng, err := engine.New(t, engine.Options{
				Cache:  cache,
				Window: batches + batches/treefixEvery + 1,
				Seed:   uint64(i),
			})
			if err != nil {
				b.Fatal(err)
			}
			futs := make([]*engine.Future, 0, batches+batches/treefixEvery)
			for bi := 0; bi < batches; bi++ {
				futs = append(futs, eng.SubmitLCA(qsets[bi]))
				if bi%treefixEvery == 0 {
					futs = append(futs, eng.SubmitTreefix(vals, treefix.Add))
				}
			}
			eng.Flush()
			for _, f := range futs {
				if res := f.Wait(); res.Err != nil {
					b.Fatal(res.Err)
				}
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(totalQueries*b.N)/b.Elapsed().Seconds(), "queries/s")
		b.ReportMetric(100*cache.Stats().HitRate(), "cache-hit-%")
	})
}

// churnMutation applies step m of the deterministic churn schedule:
// two inserts (under a random original vertex) per delete (of the
// youngest inserted leaf — never an original id, so query ids stay
// valid; see dynlayout.DeleteYoungestLeaf).
func churnMutation(b *testing.B, mt dynlayout.MutTree, r *rng.RNG, m, origN int) {
	if m%3 == 2 {
		ok, err := dynlayout.DeleteYoungestLeaf(mt, origN)
		if err != nil {
			b.Fatal(err)
		}
		if ok {
			return
		}
	}
	if _, err := mt.InsertLeaf(r.Intn(origN)); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkE14DynChurn measures the PR 2 mutable serving path against
// naive rebuild-per-mutation at n=2^14 with 5% churn: benchN/20
// mutations, an LCA batch every 64 of them. The same deterministic
// schedule drives both arms; they differ only in how serving state is
// maintained. The naive arm does what a static-engine deployment must:
// after every mutation, revalidate the tree and rebuild the light-first
// layout from scratch. The dynamic arm applies O(1) parked mutations
// and refreshes its serving state lazily, once per query round — the
// acceptance target is ≥2× on wall clock. It is a sim-backend
// (model-cost) benchmark: the dyn-engine arm leaves Backend unset, so
// its LCA batches run exec.Sim, as the naive arm's do.
func BenchmarkE14DynChurn(b *testing.B) {
	const (
		mutations  = benchN / 20 // 5% churn
		queryEvery = 64
		queriesPer = 16
	)
	base := tree.RandomAttachment(benchN, rng.New(50))
	querySets := make([][]lca.Query, 0, mutations/queryEvery+1)
	qr := rng.New(51)
	for m := 0; m < mutations; m += queryEvery {
		qs := make([]lca.Query, queriesPer)
		for i := range qs {
			qs[i] = lca.Query{U: qr.Intn(benchN), V: qr.Intn(benchN)}
		}
		querySets = append(querySets, qs)
	}

	b.Run("naive-rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d, err := dynlayout.New(base, sfc.Hilbert{}, 0.2)
			if err != nil {
				b.Fatal(err)
			}
			r := rng.New(52)
			for m := 0; m < mutations; m++ {
				churnMutation(b, d, r, m, benchN)
				t, err := d.Tree()
				if err != nil {
					b.Fatal(err)
				}
				p := layout.LightFirst(t, sfc.Hilbert{}) // rebuild per mutation
				if m%queryEvery == 0 {
					s := machine.New(t.N(), p.Curve)
					lca.Batched(s, t, p.Order.Rank, querySets[m/queryEvery], rng.New(uint64(i)))
				}
			}
		}
		b.ReportMetric(float64(mutations*b.N)/b.Elapsed().Seconds(), "mutations/s")
	})

	b.Run("dyn-engine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			de, err := engine.NewDyn(base, engine.DynOptions{
				Options: engine.Options{Seed: uint64(i), Window: 64},
				Epsilon: 0.2,
			})
			if err != nil {
				b.Fatal(err)
			}
			r := rng.New(52)
			for m := 0; m < mutations; m++ {
				churnMutation(b, de, r, m, benchN)
				if m%queryEvery == 0 {
					if res := de.SubmitLCA(querySets[m/queryEvery]).Wait(); res.Err != nil {
						b.Fatal(res.Err)
					}
				}
			}
			if i == b.N-1 {
				st := de.Stats()
				b.ReportMetric(float64(st.Refreshes), "refreshes")
				b.ReportMetric(float64(st.Rebuilds), "layout-rebuilds")
			}
		}
		b.ReportMetric(float64(mutations*b.N)/b.Elapsed().Seconds(), "mutations/s")
	})
}

// BenchmarkE16NativeBackend measures the execution-backend layer on an
// E13-style batched treefix workload at n=2^14: 16 coalesced treefix
// requests (bottom-up and top-down, operators cycling through the
// registry so every operator is on the clock) per
// iteration, identical on both arms. The sim arm is the engine's
// historical serving path — every batch through the spatial-computer
// simulator with per-message accounting; the native arm runs the same
// batches on the goroutine-parallel kernels. The acceptance target is
// native ≥ 5× sim; in practice the gap is well over an order of
// magnitude, which is the whole argument for demoting the simulator to
// a metering/validation backend.
func BenchmarkE16NativeBackend(b *testing.B) {
	t := tree.RandomAttachment(benchN, rng.New(80))
	const reqs = 16
	ops := []treefix.Op{treefix.Add, treefix.Max, treefix.Min, treefix.Xor}
	vals := make([]int64, t.N())
	for i := range vals {
		vals[i] = int64(i%1013) - 500
	}
	for _, backend := range []string{"sim", "native"} {
		b.Run(backend+"-backend", func(b *testing.B) {
			cache := engine.NewLayoutCache(4)
			if _, err := engine.New(t, engine.Options{Cache: cache}); err != nil {
				b.Fatal(err) // warm the cache outside the timer
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng, err := engine.New(t, engine.Options{
					Backend: backend,
					Cache:   cache,
					Window:  reqs + 1,
					Seed:    uint64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				futs := make([]*engine.Future, 0, reqs)
				for r := 0; r < reqs; r++ {
					if r%2 == 0 {
						futs = append(futs, eng.SubmitTreefix(vals, ops[r%len(ops)]))
					} else {
						futs = append(futs, eng.SubmitTopDown(vals, ops[r%len(ops)]))
					}
				}
				eng.Flush()
				for _, f := range futs {
					if res := f.Wait(); res.Err != nil {
						b.Fatal(res.Err)
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(reqs*b.N)/b.Elapsed().Seconds(), "treefix/s")
		})
	}
}

// BenchmarkE17WireThroughput measures the serving protocols end to end
// over loopback: identical treefix traffic — concurrent clients, each
// issuing sequential queries against the same registered shard — once
// through the HTTP/JSON API and once through the length-prefixed
// binary protocol (internal/wire, docs/protocol.md). The arms share
// the server configuration and differ only in transport and encoding,
// so the queries/s gap is pure protocol overhead; with -benchmem the
// allocs/op gap shows the zero-alloc discipline of the binary hot
// path (pooled frame buffers, connection-local decode state) against
// per-request JSON marshalling. Acceptance: binary ≥ 2× JSON on
// queries/s and ≤ half its allocs/op.
func BenchmarkE17WireThroughput(b *testing.B) {
	const (
		wireN   = 1 << 10
		clients = 16
		perIter = 48 // sequential queries per client per op (big enough to average out scheduler jitter)
	)
	t := tree.RandomAttachment(wireN, rng.New(90))
	vals := make([]int64, t.N())
	for i := range vals {
		vals[i] = int64(i%1013) - 500
	}
	// MaxBatch 1 dispatches every query the moment it arrives: the
	// protocols' queries/s then measure transport + encoding + kernel
	// with no batch-deadline stalls in the loop. (Coalescing throughput
	// is E13's experiment; here it would only add scheduler jitter to a
	// transport comparison.)
	newServer := func(b *testing.B) (*server.Server, string) {
		b.Helper()
		s := server.New(server.Config{
			Scheduler: server.Scheduler{MaxBatch: 1, MaxDelay: time.Millisecond},
			Limits:    server.Limits{QueueLimit: 4096},
		})
		id, err := s.RegisterTree(t)
		if err != nil {
			b.Fatal(err)
		}
		return s, id
	}
	reportQPS := func(b *testing.B) {
		b.ReportMetric(float64(clients*perIter*b.N)/b.Elapsed().Seconds(), "queries/s")
	}

	b.Run("json-http", func(b *testing.B) {
		s, id := newServer(b)
		hs := httptest.NewServer(s.Handler())
		defer hs.Close()
		body, err := json.Marshal(server.QueryRequest{TreeID: id, Kind: "treefix", Vals: vals})
		if err != nil {
			b.Fatal(err)
		}
		var failed atomic.Value
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for r := 0; r < perIter; r++ {
						resp, err := http.Post(hs.URL+"/v1/query", "application/json", bytes.NewReader(body))
						if err != nil {
							failed.Store(err)
							return
						}
						var qr server.QueryResponse
						err = json.NewDecoder(resp.Body).Decode(&qr)
						resp.Body.Close()
						if err != nil || len(qr.Sums) != wireN {
							failed.Store(fmt.Errorf("bad response (err=%v, %d sums)", err, len(qr.Sums)))
							return
						}
					}
				}()
			}
			wg.Wait()
		}
		b.StopTimer()
		if err := failed.Load(); err != nil {
			b.Fatal(err)
		}
		reportQPS(b)
	})

	b.Run("binary-tcp", func(b *testing.B) {
		s, id := newServer(b)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		go func() { _ = s.ServeBinary(ln) }()
		defer s.CloseBinary()
		conns := make([]*wire.Client, clients)
		for c := range conns {
			cl, err := wire.Dial(ln.Addr().String(), wire.DialOptions{DialTimeout: 5 * time.Second})
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			conns[c] = cl
		}
		var failed atomic.Value
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(cl *wire.Client) {
					defer wg.Done()
					q := wire.Query{Kind: wire.KindTreefix, TreeID: id, Vals: vals}
					for r := 0; r < perIter; r++ {
						res, err := cl.Do(&q)
						if err != nil {
							failed.Store(err)
							return
						}
						if len(res.Sums) != wireN {
							failed.Store(fmt.Errorf("bad response: %d sums", len(res.Sums)))
							return
						}
					}
				}(conns[c])
			}
			wg.Wait()
		}
		b.StopTimer()
		if err := failed.Load(); err != nil {
			b.Fatal(err)
		}
		reportQPS(b)
	})
}

// BenchmarkExprEval measures the §V-cited application: Miller-Reif
// expression evaluation by rake contraction on the simulator.
func BenchmarkExprEval(b *testing.B) {
	e := exprtree.Random(benchN/2, rng.New(21))
	rank := order.LightFirst(e.Tree).Rank
	var rounds int
	for i := 0; i < b.N; i++ {
		s := machine.New(e.Tree.N(), sfc.Hilbert{})
		_, st := exprtree.EvalSpatial(s, e, rank)
		rounds = st.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkMinCut measures the Karger 1-respecting-cut application:
// one batched LCA plus two treefix sums.
func BenchmarkMinCut(b *testing.B) {
	r := rng.New(22)
	t := tree.RandomAttachment(benchN, r)
	edges := mincut.RandomGraph(t, benchN/2, 10, r)
	rank := order.LightFirst(t).Rank
	var energy int64
	for i := 0; i < b.N; i++ {
		s := machine.New(t.N(), sfc.Hilbert{})
		if _, err := mincut.OneRespecting(s, t, rank, edges, rng.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
		energy = s.Energy()
	}
	b.ReportMetric(float64(energy)/float64(t.N()), "energy/vertex")
}

// BenchmarkAblationOrders measures the messaging kernel per vertex order
// (the ablation: the layout supplies the bound, not the code).
func BenchmarkAblationOrders(b *testing.B) {
	t := tree.RandomBoundedDegree(benchN, 2, rng.New(23))
	for _, name := range order.Names() {
		b.Run(name, func(b *testing.B) {
			o, _ := order.ByName(name, t, rng.New(1))
			var per float64
			for i := 0; i < b.N; i++ {
				p := layout.New(t, o, sfc.Hilbert{})
				per = layout.ParentChildEnergy(p).PerVertex
			}
			b.ReportMetric(per, "energy/vertex")
		})
	}
}

// BenchmarkDynamicInserts measures the §VII future-work extension:
// leaf insertions into a dynamically maintained layout, including
// amortized rebuilds.
func BenchmarkDynamicInserts(b *testing.B) {
	r := rng.New(24)
	t := tree.RandomAttachment(1<<12, r)
	d, err := dynlayout.New(t, sfc.Hilbert{}, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.InsertLeaf(r.Intn(d.N())); err != nil {
			b.Fatal(err)
		}
	}
	fresh, err := d.FreshKernelCost()
	if err != nil {
		b.Fatal(err)
	}
	ratio := float64(d.KernelCost().Energy) / float64(fresh.Energy)
	b.ReportMetric(ratio, "kernel-vs-fresh")
	b.ReportMetric(float64(d.Rebuilds), "rebuilds")
}

// BenchmarkSequentialBaselines provides the host-oracle costs for
// context (not a paper experiment).
func BenchmarkSequentialBaselines(b *testing.B) {
	t := tree.RandomAttachment(1<<20, rng.New(15))
	vals := make([]int64, t.N())
	b.Run("treefix-sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			treefix.SequentialBottomUp(t, vals, treefix.Add)
		}
	})
	b.Run("lca-oracle-build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lca.NewOracle(t)
		}
	})
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// e15Mutate applies the deterministic E15 churn schedule to a mutable
// shard: three inserts per delete of the youngest inserted leaf.
func e15Mutate(b *testing.B, de *engine.DynEngine, n, mutations int) {
	b.Helper()
	var last int
	for i := 0; i < mutations; i++ {
		if i%4 == 3 {
			if _, err := de.DeleteLeaf(last); err != nil {
				b.Fatal(err)
			}
			continue
		}
		v, err := de.InsertLeaf(i % n)
		if err != nil {
			b.Fatal(err)
		}
		last = v
	}
}

// BenchmarkE15Recovery measures the durability subsystem's warm-start
// against what a store-less deployment must redo after a restart. The
// fixture is a serving state of 4 registered trees (n=2^14 each) plus
// one mutable shard (n=2048) that took 400 journaled mutations. The
// warm arm opens the data dir and runs the full snapshot+WAL recovery:
// placements come back through the seeded layout cache (no light-first
// pipeline runs) and the dyn shard replays only its WAL. The cold arm
// rebuilds the same state from scratch: one light-first pipeline per
// registered tree, a fresh dynamic layout, and a full re-application of
// the mutation history — which a real store-less restart could not even
// do, because the mutation history dies with the process. Both arms pay
// the same per-vertex curve-coordinate cost (the placement must exist
// either way), so the warm arm's edge is the skipped pipeline work —
// ~1.3× on wall clock — and the gate's job is to keep recovery from
// regressing into costing more than the rebuild it replaces.
func BenchmarkE15Recovery(b *testing.B) {
	const (
		regTrees  = 4
		regN      = 16384
		dynN      = 2048
		mutations = 400
	)
	trees := make([]*tree.Tree, regTrees)
	for i := range trees {
		trees[i] = tree.RandomAttachment(regN, rng.New(uint64(60+i)))
	}
	dynBase := tree.RandomAttachment(dynN, rng.New(70))

	// Build the durable fixture once.
	dir := b.TempDir()
	store, err := persist.Open(persist.Options{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	seed := server.New(server.Config{Durability: server.Durability{Store: store}})
	for _, tr := range trees {
		if _, err := seed.RegisterTree(tr); err != nil {
			b.Fatal(err)
		}
	}
	de, err := seed.Pool().NewDynShard(dynBase, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	shardLog, err := store.CreateShardLog("d1", de.State())
	if err != nil {
		b.Fatal(err)
	}
	de.SetJournal(shardLog.Append)
	e15Mutate(b, de, dynN, mutations)
	if err := store.Close(); err != nil {
		b.Fatal(err)
	}

	b.Run("warm-start", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st, err := persist.Open(persist.Options{Dir: dir})
			if err != nil {
				b.Fatal(err)
			}
			srv := server.New(server.Config{Durability: server.Durability{Store: st}})
			rs, err := srv.Recover()
			if err != nil {
				b.Fatal(err)
			}
			if rs.Trees != regTrees || rs.DynShards != 1 || rs.Records != mutations {
				b.Fatalf("recovery incomplete: %+v", rs)
			}
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(mutations), "replayed-records")
	})

	b.Run("cold-restart", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			srv := server.New(server.Config{})
			for _, tr := range trees {
				if _, err := srv.RegisterTree(tr); err != nil {
					b.Fatal(err)
				}
			}
			de, err := srv.Pool().NewDynShard(dynBase, 0.2)
			if err != nil {
				b.Fatal(err)
			}
			e15Mutate(b, de, dynN, mutations)
		}
	})
}
