// Package par provides the fork-join parallel for used by the
// goroutine-parallel executors. The paper's algorithms assume
// fine-grained hardware parallelism; on a CPU we realize the same
// algorithms with coarser grains over index ranges, which is the
// natural Go idiom for fork-join (goroutines + WaitGroup).
package par

import (
	"runtime"
	"sync"
)

// Workers returns the default worker count: GOMAXPROCS.
func Workers() int { return runtime.GOMAXPROCS(0) }

// For runs fn over [0, n) split into contiguous chunks across at most
// workers goroutines. fn receives a half-open index range. workers <= 0
// means Workers(). Chunks are sized so each worker gets one contiguous
// range (the executors choose grain by structuring their data, not by
// oversubscribing).
func For(n, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = Workers()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
