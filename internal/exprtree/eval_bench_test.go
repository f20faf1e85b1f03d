package exprtree

import (
	"fmt"
	"testing"

	"spatialtree/internal/rng"
	"spatialtree/internal/treefix"
)

var benchSink int64

// BenchmarkEvalNative times the native expression kernel, EvalPreorder,
// on random expressions with 2^10 … 2^20 leaves: over a preorder the
// treefix engine has already recorded (eval; a native shard records it
// once), and with the recording at GOMAXPROCS workers as the native
// backend does it (first, a shard's first request when no other kernel
// has recorded it yet; set the workers with -cpu).
//
//	go test -run '^$' -bench EvalNative -benchmem -cpu 1,2 ./internal/exprtree
func BenchmarkEvalNative(b *testing.B) {
	for lg := 10; lg <= 20; lg++ {
		e := Random(1<<lg, rng.New(uint64(lg)))
		tf := treefix.NewEngine(e.Tree, 1)
		b.Run(fmt.Sprintf("eval/leaves=2^%d", lg), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = e.EvalPreorder(tf)
			}
		})
		b.Run(fmt.Sprintf("first/leaves=2^%d", lg), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = e.EvalPreorder(treefix.NewEngine(e.Tree, 0))
			}
		})
	}
}
