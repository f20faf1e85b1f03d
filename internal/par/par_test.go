package par

import (
	"sync/atomic"
	"testing"
)

func TestForCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 1001} {
		for _, w := range []int{0, 1, 2, 8, 64} {
			mark := make([]int32, n)
			For(n, w, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&mark[i], 1)
				}
			})
			for i, m := range mark {
				if m != 1 {
					t.Fatalf("n=%d w=%d: index %d touched %d times", n, w, i, m)
				}
			}
		}
	}
}

// TestForEdgeGrains pins the chunking contract at the boundaries the
// native kernels rely on: n smaller than the worker count must still
// produce disjoint single-index chunks, n == 0 must not invoke fn at
// all, and the single-worker fast path must run inline over the full
// range (no goroutine: callers may rely on stack locality).
func TestForEdgeGrains(t *testing.T) {
	// n < workers: every index covered exactly once, each chunk non-empty.
	var chunks atomic.Int32
	mark := make([]int32, 3)
	For(3, 64, func(lo, hi int) {
		chunks.Add(1)
		if lo >= hi {
			t.Error("empty chunk dispatched")
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&mark[i], 1)
		}
	})
	if chunks.Load() != 3 {
		t.Fatalf("n=3 w=64: %d chunks, want 3 single-index chunks", chunks.Load())
	}
	for i, m := range mark {
		if m != 1 {
			t.Fatalf("index %d touched %d times", i, m)
		}
	}

	// n == 0: fn must never run (a zero-length kernel pass is free).
	called := false
	For(0, 8, func(lo, hi int) { called = true })
	if called {
		t.Fatal("For(0, ...) invoked fn")
	}

	// workers == 1 (and n == 1 forcing it): one inline call spanning the
	// whole range.
	for _, tc := range []struct{ n, w int }{{100, 1}, {1, 16}} {
		calls := 0
		For(tc.n, tc.w, func(lo, hi int) {
			calls++
			if lo != 0 || hi != tc.n {
				t.Fatalf("n=%d w=%d: chunk [%d,%d), want [0,%d)", tc.n, tc.w, lo, hi, tc.n)
			}
		})
		if calls != 1 {
			t.Fatalf("n=%d w=%d: %d calls, want 1", tc.n, tc.w, calls)
		}
	}
}

func TestWorkersPositive(t *testing.T) {
	if Workers() < 1 {
		t.Fatal("Workers() < 1")
	}
}
