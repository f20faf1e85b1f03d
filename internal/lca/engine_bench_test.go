package lca

import (
	"fmt"
	"testing"

	"spatialtree/internal/par"
	"spatialtree/internal/rng"
	"spatialtree/internal/tree"
	"spatialtree/internal/treefix"
)

var (
	benchSink     []int
	benchEngine   *Engine
	benchPreorder *treefix.Engine
)

// BenchmarkEngine times the native LCA engine on RandomAttachment trees
// at n = 2^10 … 2^20, at GOMAXPROCS workers (set them with -cpu) as the
// native backend runs it: recording the preorder (preorder, which the
// first LCA request pays only when no treefix request has recorded it
// yet), building the table from it (build), and answering a 1024-query
// batch at one worker (queries).
//
//	go test -run '^$' -bench 'Engine$' -benchmem -cpu 1,2 ./internal/lca
func BenchmarkEngine(b *testing.B) {
	for lg := 10; lg <= 20; lg++ {
		n := 1 << lg
		tr := tree.RandomAttachment(n, rng.New(uint64(lg)))
		qr := rng.New(uint64(lg) + 1)
		qs := make([]Query, 1024)
		for i := range qs {
			qs[i] = Query{U: qr.Intn(n), V: qr.Intn(n)}
		}
		tf := treefix.NewEngine(tr, 1)
		b.Run(fmt.Sprintf("preorder/n=2^%d", lg), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchPreorder = treefix.NewEngine(tr, 0)
			}
		})
		b.Run(fmt.Sprintf("build/n=2^%d", lg), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchEngine = NewEngine(tf, par.Workers())
			}
		})
		e := NewEngine(tf, 1)
		benchSink = make([]int, len(qs))
		b.Run(fmt.Sprintf("queries/n=2^%d", lg), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = e.BatchLCAInto(benchSink, qs)
			}
		})
	}
}
