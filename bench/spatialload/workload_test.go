package main

import (
	"reflect"
	"testing"
	"time"

	"spatialtree/internal/lca"
	"spatialtree/internal/mincut"
	"spatialtree/internal/rng"
	"spatialtree/internal/tree"
)

// testScale shrinks every tree 2^testScale times in the package tests.
const testScale = 6

func genRun(t *testing.T, w *workload, seed uint64) (*pool, []entry) {
	t.Helper()
	p, err := newPool(w, seed, testScale)
	if err != nil {
		t.Fatal(err)
	}
	sc := newScheduler(p, seed)
	es := sc.poisson(nil, phLo, w.lo, 0, time.Second)
	es = sc.poisson(es, phHi, w.hi, time.Second, time.Second)
	return p, append(es, sc.sequence(64)...)
}

// poolEqual compares everything a pool sends and expects.
func poolEqual(a, b *pool) bool {
	if len(a.trees) != len(b.trees) {
		return false
	}
	for i := range a.trees {
		x, y := a.trees[i], b.trees[i]
		if !reflect.DeepEqual(x.parents, y.parents) || !reflect.DeepEqual(x.lcaWire, y.lcaWire) ||
			!reflect.DeepEqual(x.lcaWant, y.lcaWant) || !reflect.DeepEqual(x.vals, y.vals) ||
			x.tfWant != y.tfWant || !reflect.DeepEqual(x.edgesWire, y.edgesWire) ||
			!reflect.DeepEqual(x.cutWant, y.cutWant) || !reflect.DeepEqual(x.lcaBody, y.lcaBody) ||
			!reflect.DeepEqual(x.tfBody, y.tfBody) {
			return false
		}
	}
	return true
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		p1, s1 := genRun(t, w, 7)
		p2, s2 := genRun(t, w, 7)
		if !poolEqual(p1, p2) {
			t.Errorf("%s: seed 7 generated two different pools", w.name)
		}
		if !reflect.DeepEqual(s1, s2) {
			t.Errorf("%s: seed 7 generated two different schedules", w.name)
		}
		p3, s3 := genRun(t, w, 8)
		if poolEqual(p1, p3) {
			t.Errorf("%s: seeds 7 and 8 generated the same pool", w.name)
		}
		if reflect.DeepEqual(s1, s3) {
			t.Errorf("%s: seeds 7 and 8 generated the same schedule", w.name)
		}
	}
}

func TestScheduleFollowsRateAndMix(t *testing.T) {
	w := workloads[0]
	p, err := newPool(w, 3, testScale)
	if err != nil {
		t.Fatal(err)
	}
	es := newScheduler(p, 3).poisson(nil, phLo, 1000, 0, 20*time.Second)
	if n := len(es); n < 19000 || n > 21000 {
		t.Fatalf("20 s at 1000 req/s scheduled %d requests", n)
	}
	var count [numKinds]int
	for i, e := range es {
		if i > 0 && e.at < es[i-1].at {
			t.Fatal("schedule is not in time order")
		}
		count[e.kind]++
	}
	for k, share := range w.mix {
		if got := float64(count[k]) / float64(len(es)); got < share-0.02 || got > share+0.02 {
			t.Errorf("%s share %.3f, mix says %.2f", kind(k), got, share)
		}
	}
}

// The pool's min-cut oracle (D − 2I) must agree with the brute-force
// reference on answer and tie-break.
func TestSeqMinCutMatchesBruteForce(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 40; trial++ {
		n := 2 + r.Intn(60)
		tr := tree.RandomAttachment(n, r)
		edges := mincut.RandomGraph(tr, r.Intn(3*n), 5, r)
		want := mincut.OneRespectingSequential(tr, edges)
		got := seqMinCut(tr, lca.NewOracle(tr), edges)
		if got.weight != want.MinWeight || got.arg != want.ArgVertex {
			t.Fatalf("n=%d: oracle (%d, %d), brute force (%d, %d)", n, got.weight, got.arg, want.MinWeight, want.ArgVertex)
		}
	}
}

func TestMutationParentIsOriginalVertex(t *testing.T) {
	for k := uint64(0); k < 1000; k++ {
		if v := mutationParent(5, 2, k, 300); v < 0 || v >= 300 {
			t.Fatalf("mutation %d attaches to %d, outside the original 300 vertices", k, v)
		}
	}
}

func TestBoolArgs(t *testing.T) {
	got := boolArgs([]string{"--workload", "x", "--trace", "1", "-seed", "2", "-trace", "-out", "-"})
	want := []string{"--workload", "x", "--trace=1", "-seed", "2", "-trace", "-out", "-"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("boolArgs = %q, want %q", got, want)
	}
}
