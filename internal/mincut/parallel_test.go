package mincut

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"spatialtree/internal/lca"
	"spatialtree/internal/rng"
	"spatialtree/internal/tree"
	"spatialtree/internal/treefix"
)

// TestParallelAgainstOracle pins the goroutine executor to the
// brute-force oracle, including tie-breaking on the arg vertex.
func TestParallelAgainstOracle(t *testing.T) {
	for _, n := range []int{2, 7, 64, 257, 1024} {
		for _, seed := range []uint64{1, 2, 3} {
			tr := tree.RandomAttachment(n, rng.New(seed))
			edges := RandomGraph(tr, n/2, 12, rng.New(seed+3))
			want := OneRespectingSequential(tr, edges)
			for _, workers := range []int{1, 4} {
				p := NewParallel(tr, nil, nil, workers)
				got, err := p.OneRespecting(edges)
				if err != nil {
					t.Fatal(err)
				}
				if got.MinWeight != want.MinWeight || got.ArgVertex != want.ArgVertex {
					t.Fatalf("n=%d seed=%d w=%d: got (%d, v%d), want (%d, v%d)",
						n, seed, workers, got.MinWeight, got.ArgVertex, want.MinWeight, want.ArgVertex)
				}
				for v := range want.Cuts {
					if got.Cuts[v] != want.Cuts[v] {
						t.Fatalf("n=%d seed=%d w=%d: cut[%d] = %d, want %d",
							n, seed, workers, v, got.Cuts[v], want.Cuts[v])
					}
				}
			}
		}
	}
}

// TestParallelTieBreak forces equal-weight cuts and asserts the
// sequential scan's arg choice (smallest vertex id) survives chunked
// parallel reduction.
func TestParallelTieBreak(t *testing.T) {
	// A star: every leaf's parent edge cuts exactly its own edge weight;
	// uniform weights make every cut tie.
	parents := make([]int, 9)
	parents[0] = -1
	tr := tree.MustFromParents(parents)
	var edges []Edge
	for v := 1; v < tr.N(); v++ {
		edges = append(edges, Edge{U: 0, V: v, W: 5})
	}
	want := OneRespectingSequential(tr, edges)
	for _, workers := range []int{1, 3, 8} {
		got, err := NewParallel(tr, nil, nil, workers).OneRespecting(edges)
		if err != nil {
			t.Fatal(err)
		}
		if got.ArgVertex != want.ArgVertex || got.MinWeight != want.MinWeight {
			t.Fatalf("w=%d: got (%d, v%d), want (%d, v%d)",
				workers, got.MinWeight, got.ArgVertex, want.MinWeight, want.ArgVertex)
		}
	}
}

// TestParallelValidation pins the shared validation: the parallel
// executor rejects exactly what the spatial one rejects.
func TestParallelValidation(t *testing.T) {
	single := tree.MustFromParents([]int{-1})
	if _, err := NewParallel(single, nil, nil, 2).OneRespecting(nil); err == nil {
		t.Fatal("1-vertex tree accepted")
	}
	tr := tree.MustFromParents([]int{-1, 0, 0})
	if _, err := NewParallel(tr, nil, nil, 2).OneRespecting([]Edge{{U: 0, V: 9, W: 1}}); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if _, err := NewParallel(tr, nil, nil, 2).OneRespecting([]Edge{{U: 0, V: 1, W: -2}}); err == nil {
		t.Fatal("negative weight accepted")
	}
	// Self-loops are ignored, as in the spatial executor.
	got, err := NewParallel(tr, nil, nil, 2).OneRespecting([]Edge{{U: 1, V: 1, W: 7}, {U: 0, V: 1, W: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cuts[1] != 2 {
		t.Fatalf("self-loop contributed to cut: %d", got.Cuts[1])
	}
}

// treefixOracle computes the 1-respecting cuts the way the executors
// decompose them, but from the sequential treefix and the
// binary-lifting LCA oracle: an oracle that stays fast on trees far
// beyond OneRespectingSequential's O(n·m) reach.
func treefixOracle(tr *tree.Tree, edges []Edge) Result {
	n := tr.N()
	wdeg, val := make([]int64, n), make([]int64, n)
	o := lca.NewOracle(tr)
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		wdeg[e.U] += e.W
		wdeg[e.V] += e.W
		val[o.LCA(e.U, e.V)] += e.W
	}
	d := treefix.SequentialBottomUp(tr, wdeg, treefix.Add)
	in := treefix.SequentialBottomUp(tr, val, treefix.Add)
	res := Result{Cuts: make([]int64, n), ArgVertex: -1}
	for v := range n {
		if v == tr.Root() {
			continue
		}
		res.Cuts[v] = d[v] - 2*in[v]
		if res.ArgVertex == -1 || res.Cuts[v] < res.MinWeight {
			res.MinWeight, res.ArgVertex = res.Cuts[v], v
		}
	}
	return res
}

func assertResult(t *testing.T, label string, got, want Result) {
	t.Helper()
	if got.MinWeight != want.MinWeight || got.ArgVertex != want.ArgVertex {
		t.Fatalf("%s: got (%d, v%d), want (%d, v%d)", label, got.MinWeight, got.ArgVertex, want.MinWeight, want.ArgVertex)
	}
	for v := range want.Cuts {
		if got.Cuts[v] != want.Cuts[v] {
			t.Fatalf("%s: cut[%d] = %d, want %d", label, v, got.Cuts[v], want.Cuts[v])
		}
	}
}

// TestParallelAgainstTreefixOracle checks the executor on trees too
// large for the brute-force oracle, path included, against the
// treefix-and-LCA oracle.
func TestParallelAgainstTreefixOracle(t *testing.T) {
	n := 1<<14 + 1
	for ti, tr := range []*tree.Tree{
		tree.RandomAttachment(n, rng.New(uint64(n))),
		tree.RandomBoundedDegree(n, 2, rng.New(uint64(n)+1)),
		tree.Path(n),
	} {
		edges := RandomGraph(tr, n/2, 12, rng.New(uint64(n+ti)))
		want := treefixOracle(tr, edges)
		for _, workers := range []int{1, 4} {
			got, err := NewParallel(tr, nil, nil, workers).OneRespecting(edges)
			if err != nil {
				t.Fatal(err)
			}
			assertResult(t, fmt.Sprintf("tree=%d w=%d", ti, workers), got, want)
		}
	}
}

// TestParallelConcurrentCallers shares one executor among goroutines,
// each calling it with its own edge set. A call that handed out pooled
// scratch, or reused another call's, shows up as a wrong answer or a
// mutated earlier result (and as a race under -race).
func TestParallelConcurrentCallers(t *testing.T) {
	n := 1 << 12
	tr := tree.RandomAttachment(n, rng.New(21))
	p := NewParallel(tr, nil, nil, 2)
	const callers, calls = 8, 6
	edgeSets := make([][]Edge, callers)
	wants := make([]Result, callers)
	for c := range edgeSets {
		edgeSets[c] = RandomGraph(tr, n/4, 12, rng.New(uint64(30+c)))
		wants[c] = treefixOracle(tr, edgeSets[c])
	}
	var wg sync.WaitGroup
	for c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var kept []Result
			for range calls {
				got, err := p.OneRespecting(edgeSets[c])
				if err != nil {
					t.Error(err)
					return
				}
				kept = append(kept, got)
			}
			for i, got := range kept {
				if got.MinWeight != wants[c].MinWeight || got.ArgVertex != wants[c].ArgVertex || !slices.Equal(got.Cuts, wants[c].Cuts) {
					t.Errorf("caller %d call %d: result differs from the oracle", c, i)
				}
			}
		}()
	}
	wg.Wait()
}

// TestParallelAllocatesOnlyCuts pins the scratch pool: once it is warm,
// a call's only allocation on a one-pass, one-worker executor is
// Result.Cuts.
func TestParallelAllocatesOnlyCuts(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop pooled scratch at random")
	}
	tr := tree.RandomAttachment(1<<12, rng.New(40))
	edges := RandomGraph(tr, 1<<11, 12, rng.New(41))
	p := NewParallel(tr, nil, nil, 1)
	if _, err := p.OneRespecting(edges); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := p.OneRespecting(edges); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("OneRespecting allocates %.1f times per call, want only Result.Cuts", allocs)
	}
}
