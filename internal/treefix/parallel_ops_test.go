package treefix

import (
	"errors"
	"fmt"
	"testing"

	"spatialtree/internal/rng"
	"spatialtree/internal/tree"
)

// opsTestTrees yields the shapes that stress the range split: a deep
// path (every range boundary crossed by one long ancestor chain), a star
// (most vertices' parent in an earlier range), a random attachment tree
// (mixed), and the same tree delete-renumbered (parent ids above child
// ids).
func opsTestTrees(t *testing.T, n int, seed uint64) []*tree.Tree {
	t.Helper()
	r := rng.New(seed)
	path := make([]int, n)
	for i := range path {
		path[i] = i - 1
	}
	star := make([]int, n)
	star[0] = -1
	base := tree.RandomAttachment(n, r)
	perm := r.Perm(n) // relabeled random tree: parents may exceed children
	relabeled := make([]int, n)
	for v := 0; v < n; v++ {
		if p := base.Parent(v); p == -1 {
			relabeled[perm[v]] = -1
		} else {
			relabeled[perm[v]] = perm[p]
		}
	}
	return []*tree.Tree{
		tree.MustFromParents(path),
		tree.MustFromParents(star),
		base,
		tree.MustFromParents(relabeled),
	}
}

// TestEngineGeneralOps pins BottomUp and TopDown to the sequential
// oracle under all four operators, on both sides of ParallelMin: one
// worker always runs the one-pass, four split from ParallelMin vertices
// on. The + methods never split, so they are checked at the small sizes.
func TestEngineGeneralOps(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64, 513, ParallelMin - 1, ParallelMin, ParallelMin + 1} {
		for ti, tr := range opsTestTrees(t, n, uint64(n)) {
			want := newOracle(tr, uint64(ti+n))
			for _, workers := range []int{1, 4} {
				e := NewEngine(tr, workers)
				label := fmt.Sprintf("n=%d tree=%d w=%d", n, ti, workers)
				want.check(t, e, label)
				if n < ParallelMin-1 {
					want.checkSums(t, e, label)
				}
			}
		}
	}
}

// TestEngineSplit runs the split pass on small trees with range counts
// that leave ranges of a few vertices, empty ranges, and ranges inside
// one subtree.
func TestEngineSplit(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 64, 513} {
		for ti, tr := range opsTestTrees(t, n, uint64(n)+7) {
			want := newOracle(tr, uint64(ti+n)+7)
			for _, k := range []int{2, 3, 4, 7, 64} {
				e := newEngine(tr, k)
				label := fmt.Sprintf("n=%d tree=%d ranges=%d", n, ti, k)
				want.check(t, e, label)
				want.checkSums(t, e, label)
			}
		}
	}
}

// engineOracle holds one tree's values and the sequential folds of them
// under every registered operator.
type engineOracle struct {
	vals   []int64
	ops    []Op
	bu, td [][]int64
}

func newOracle(tr *tree.Tree, seed uint64) *engineOracle {
	o := &engineOracle{vals: make([]int64, tr.N()), ops: []Op{Add, Max, Min, Xor}}
	r := rng.New(seed)
	for i := range o.vals {
		o.vals[i] = int64(r.Intn(2001)) - 1000
	}
	for _, op := range o.ops {
		o.bu = append(o.bu, SequentialBottomUp(tr, o.vals, op))
		o.td = append(o.td, SequentialTopDown(tr, o.vals, op))
	}
	return o
}

// check compares BottomUp and TopDown on e against the oracle under
// every operator.
func (o *engineOracle) check(t *testing.T, e *Engine, label string) {
	t.Helper()
	for k, op := range o.ops {
		bu, err := e.BottomUp(o.vals, op)
		if err != nil {
			t.Fatal(err)
		}
		assertFolds(t, label+" op="+op.Name+" bottom-up", bu, o.bu[k])
		td, err := e.TopDown(o.vals, op)
		if err != nil {
			t.Fatal(err)
		}
		assertFolds(t, label+" op="+op.Name+" top-down", td, o.td[k])
	}
}

// checkSums compares the + methods on e against the oracle's add folds.
func (o *engineOracle) checkSums(t *testing.T, e *Engine, label string) {
	t.Helper()
	assertFolds(t, label+" BottomUpSum", e.BottomUpSum(o.vals), o.bu[0])
	assertFolds(t, label+" TopDownSum", e.TopDownSum(o.vals), o.td[0])
	inPlace := append([]int64(nil), o.vals...)
	e.BottomUpSumInPlace(inPlace)
	assertFolds(t, label+" BottomUpSumInPlace", inPlace, o.bu[0])
}

func assertFolds(t *testing.T, label string, got, want []int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", label, len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("%s: vertex %d = %d, want %d", label, v, got[v], want[v])
		}
	}
}

// TestEngineIgnoresOpName pins that Name selects no code path: an
// operator called "add" whose Combine saturates at 1000 must fold with
// that Combine, not with +.
func TestEngineIgnoresOpName(t *testing.T) {
	sat := Op{Name: "add", Identity: 0, Combine: func(a, b int64) int64 { return min(a+b, 1000) }}
	tr := tree.RandomAttachment(257, rng.New(5))
	vals := make([]int64, tr.N())
	for i := range vals {
		vals[i] = 50
	}
	for _, workers := range []int{1, 4} {
		e := NewEngine(tr, workers)
		bu, err := e.BottomUp(vals, sat)
		if err != nil {
			t.Fatal(err)
		}
		if root := bu[tr.Root()]; root != 1000 {
			t.Fatalf("w=%d: bottom-up root = %d, want the saturated 1000", workers, root)
		}
		td, err := e.TopDown(vals, sat)
		if err != nil {
			t.Fatal(err)
		}
		wantBU, wantTD := SequentialBottomUp(tr, vals, sat), SequentialTopDown(tr, vals, sat)
		for v := range vals {
			if bu[v] != wantBU[v] || td[v] != wantTD[v] {
				t.Fatalf("w=%d vertex %d: got (%d, %d), want (%d, %d)", workers, v, bu[v], td[v], wantBU[v], wantTD[v])
			}
		}
	}
}

// TestEngineNonCapabilityOp pins an operator with no algebra beyond
// commutativity and associativity — not a group, not idempotent — to
// the oracle: the pass needs only Combine.
func TestEngineNonCapabilityOp(t *testing.T) {
	// Saturating add: commutative and associative, not a group, not
	// idempotent.
	sat := Op{Name: "satadd", Identity: 0, Combine: func(a, b int64) int64 {
		s := a + b
		if s > 1000 {
			return 1000
		}
		return s
	}}
	tr := tree.RandomAttachment(257, rng.New(5))
	vals := make([]int64, tr.N())
	r := rng.New(6)
	for i := range vals {
		vals[i] = int64(r.Intn(90))
	}
	e := NewEngine(tr, 4)
	gotBU, err := e.BottomUp(vals, sat)
	if err != nil {
		t.Fatal(err)
	}
	gotTD, err := e.TopDown(vals, sat)
	if err != nil {
		t.Fatal(err)
	}
	wantBU := SequentialBottomUp(tr, vals, sat)
	wantTD := SequentialTopDown(tr, vals, sat)
	for v := 0; v < tr.N(); v++ {
		if gotBU[v] != wantBU[v] || gotTD[v] != wantTD[v] {
			t.Fatalf("vertex %d: got (%d, %d), want (%d, %d)", v, gotBU[v], gotTD[v], wantBU[v], wantTD[v])
		}
	}
}

// TestEngineUnsupportedOp pins the doc/behavior fix: an operator the
// engine cannot execute is a typed error, never a silent + sum.
func TestEngineUnsupportedOp(t *testing.T) {
	tr := tree.RandomAttachment(16, rng.New(7))
	e := NewEngine(tr, 2)
	vals := make([]int64, tr.N())
	if _, err := e.BottomUp(vals, Op{Name: "broken"}); !errors.Is(err, ErrUnsupportedOp) {
		t.Fatalf("bottom-up with nil Combine: err = %v, want ErrUnsupportedOp", err)
	}
	if _, err := e.TopDown(vals, Op{Name: "broken"}); !errors.Is(err, ErrUnsupportedOp) {
		t.Fatalf("top-down with nil Combine: err = %v, want ErrUnsupportedOp", err)
	}
	if _, err := e.BottomUp(vals[:4], Add); err == nil {
		t.Fatal("bottom-up with short vals: err = nil, want length error")
	}
	if _, err := e.TopDown(vals[:4], Add); err == nil {
		t.Fatal("top-down with short vals: err = nil, want length error")
	}
}

// TestEngineAllocatesOnlyOutput pins the one-pass's allocation contract:
// each method allocates its output and nothing else, and the in-place
// sum allocates nothing.
func TestEngineAllocatesOnlyOutput(t *testing.T) {
	tr := tree.RandomAttachment(1<<10, rng.New(9))
	e := NewEngine(tr, 4)
	vals := make([]int64, tr.N())
	for name, want := range map[string]float64{"BottomUp": 1, "TopDown": 1, "BottomUpSum": 1, "TopDownSum": 1, "BottomUpSumInPlace": 0} {
		got := testing.AllocsPerRun(10, func() {
			switch name {
			case "BottomUp":
				_, _ = e.BottomUp(vals, Max)
			case "TopDown":
				_, _ = e.TopDown(vals, Max)
			case "BottomUpSum":
				e.BottomUpSum(vals)
			case "TopDownSum":
				e.TopDownSum(vals)
			case "BottomUpSumInPlace":
				e.BottomUpSumInPlace(vals)
			}
		})
		if got != want {
			t.Errorf("%s: %.1f allocations per call, want %.0f", name, got, want)
		}
	}
}
