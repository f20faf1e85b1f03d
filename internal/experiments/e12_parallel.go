package experiments

import (
	"time"

	"spatialtree/internal/lca"
	"spatialtree/internal/par"
	"spatialtree/internal/rng"
	"spatialtree/internal/tree"
	"spatialtree/internal/treefix"
	"spatialtree/internal/xstat"
)

func init() {
	register(Experiment{
		ID:    "E12",
		Title: "Wall-clock scalability of the goroutine executors",
		Claim: "The paper's algorithms assume fine-grained hardware parallelism; the CPU executors (range-split preorder treefix, sparse-table LCA over the same preorder) must scale with cores (the repro-band caveat: fork-join on goroutines)",
		Run:   runE12,
	})
}

func runE12(cfg Config) []*xstat.Table {
	n := 1 << 20
	if cfg.Quick {
		n = 1 << 16
	}
	r := rng.New(cfg.Seed)
	t := tree.RandomAttachment(n, r)
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}

	workersList := []int{1, 2, 4, par.Workers()}
	tb := &xstat.Table{
		Title:  "E12: goroutine treefix/LCA wall-clock (n = " + xstat.I(n) + ")",
		Header: []string{"workers", "treefix-bu ms", "treefix-td ms", "lca-build ms", "lca-1e5-queries ms", "bu speedup"},
	}
	var base float64
	for _, w := range workersList {
		e := treefix.NewEngine(t, w)
		start := time.Now()
		if _, err := e.BottomUp(vals, treefix.Add); err != nil {
			panic(err) // vals is sized to the tree and Add has a Combine
		}
		buMS := float64(time.Since(start).Microseconds()) / 1000

		start = time.Now()
		if _, err := e.TopDown(vals, treefix.Add); err != nil {
			panic(err)
		}
		tdMS := float64(time.Since(start).Microseconds()) / 1000

		start = time.Now()
		le := lca.NewEngine(e, w)
		buildMS := float64(time.Since(start).Microseconds()) / 1000

		qr := rng.New(7)
		qs := make([]lca.Query, 100000)
		for i := range qs {
			qs[i] = lca.Query{U: qr.Intn(n), V: qr.Intn(n)}
		}
		start = time.Now()
		le.BatchLCA(qs)
		qMS := float64(time.Since(start).Microseconds()) / 1000

		if w == 1 {
			base = buMS
		}
		tb.Add(xstat.I(w), xstat.F(buMS, 1), xstat.F(tdMS, 1),
			xstat.F(buildMS, 1), xstat.F(qMS, 1), xstat.F(base/buMS, 2)+"x")
	}
	path := "every row runs the sequential one-pass: n is below treefix.ParallelMin = " + xstat.I(treefix.ParallelMin)
	if n >= treefix.ParallelMin {
		path = "the workers=1 row runs the sequential one-pass; every other row splits the preorder into one range per worker (n ≥ treefix.ParallelMin = " + xstat.I(treefix.ParallelMin) + ")"
	}
	tb.Note("treefix (+ through Engine.BottomUp/TopDown): " + path + "; speedups are bounded by memory traffic on the shared output; see internal/treefix BenchmarkEnginePaths for testing.B numbers")
	tb.Note("lca-build times the LCA table over the treefix engine's recorded preorder (the row's engine); see internal/lca BenchmarkEngine for testing.B numbers")
	return []*xstat.Table{tb}
}
