package treefix

import (
	"fmt"
	"testing"

	"spatialtree/internal/par"
	"spatialtree/internal/rng"
	"spatialtree/internal/tree"
)

var benchSink []int64

// BenchmarkEnginePaths times BottomUp and TopDown under every operator
// through both paths — the one-pass, and the split pass at GOMAXPROCS
// workers (set it with -cpu) — at n = 2^12 … 2^20 on RandomAttachment
// trees. ParallelMin is the smallest size at which the split pass wins
// under every operator. The + sums have only the one-pass; sum/…/one-pass
// against add/…/parallel is the comparison that keeps them from
// splitting.
//
//	go test -run '^$' -bench EnginePaths -benchmem -cpu 2 ./internal/treefix
func BenchmarkEnginePaths(b *testing.B) {
	workers := par.Workers()
	if workers < 2 {
		b.Skip("the split pass needs two or more workers")
	}
	for _, lg := range []int{12, 13, 14, 15, 16, 17, 18, 19, 20} {
		n := 1 << lg
		tr := tree.RandomAttachment(n, rng.New(uint64(lg)))
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(i%1013) - 500
		}
		pass := newEngine(tr, 1)
		for _, path := range []struct {
			name string
			e    *Engine
		}{{"one-pass", pass}, {"parallel", newEngine(tr, workers)}} {
			e := path.e
			for _, op := range []Op{Add, Max, Min, Xor} {
				b.Run(fmt.Sprintf("%s/bu/%s/n=2^%d", op.Name, path.name, lg), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						benchSink, _ = e.BottomUp(vals, op)
					}
				})
				b.Run(fmt.Sprintf("%s/td/%s/n=2^%d", op.Name, path.name, lg), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						benchSink, _ = e.TopDown(vals, op)
					}
				})
			}
		}
		b.Run(fmt.Sprintf("sum/bu/one-pass/n=2^%d", lg), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = pass.BottomUpSum(vals)
			}
		})
		b.Run(fmt.Sprintf("sum/td/one-pass/n=2^%d", lg), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = pass.TopDownSum(vals)
			}
		})
	}
}
