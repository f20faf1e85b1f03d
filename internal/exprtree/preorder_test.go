package exprtree

import (
	"testing"

	"spatialtree/internal/rng"
	"spatialtree/internal/tree"
	"spatialtree/internal/treefix"
)

// TestEvalParallelAgainstSequential pins the native one-pass evaluator
// to the host oracle across sizes and seeds.
func TestEvalParallelAgainstSequential(t *testing.T) {
	for _, leaves := range []int{1, 2, 3, 8, 33, 129, 512, 1000} {
		for _, seed := range []uint64{1, 2, 3} {
			e := Random(leaves, rng.New(seed))
			want := e.EvalSequential()[e.Tree.Root()]
			if got := e.EvalPreorder(treefix.NewEngine(e.Tree, 1)); got != want {
				t.Fatalf("leaves=%d seed=%d: one-pass %d, sequential %d", leaves, seed, got, want)
			}
		}
	}
}

// TestEvalParallelDeepChain runs the one-pass on a left-leaning
// caterpillar, the deepest full binary tree of its size (the worst rake
// schedule for the spatial evaluator).
func TestEvalParallelDeepChain(t *testing.T) {
	const leaves = 400
	n := 2*leaves - 1
	parents := make([]int, n)
	kind := make([]NodeKind, n)
	val := make([]int64, n)
	// Vertex 0 is the root; internal vertices 0..leaves-2 form a left
	// spine: internal i has children (i+1 = next internal or the last
	// leaf) and (leaf leaves-1+i).
	parents[0] = -1
	for i := 0; i < leaves-1; i++ {
		kind[i] = Mul
		if i%3 == 0 {
			kind[i] = Add
		}
		if i+1 < leaves-1 {
			parents[i+1] = i
		}
		parents[leaves-1+i] = i
	}
	parents[n-1] = leaves - 2
	for v := leaves - 1; v < n; v++ {
		kind[v] = Leaf
		val[v] = int64(v * 37 % Mod)
	}
	e := &Expr{Tree: tree.MustFromParents(parents), Kind: kind, Val: val}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	want := e.EvalSequential()[e.Tree.Root()]
	if got := e.EvalPreorder(treefix.NewEngine(e.Tree, 1)); got != want {
		t.Fatalf("one-pass %d, sequential %d", got, want)
	}
}
