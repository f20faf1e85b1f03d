package mincut

import (
	"testing"
	"testing/quick"

	"spatialtree/internal/machine"
	"spatialtree/internal/order"
	"spatialtree/internal/rng"
	"spatialtree/internal/sfc"
	"spatialtree/internal/tree"
)

func lfRanks(t *tree.Tree) []int { return order.LightFirst(t).Rank }

func TestKnownSmallGraph(t *testing.T) {
	// Path 0-1-2 with tree edges weight 1 and an extra edge (0,2) w=5.
	// cut(1) = w(0,1) + w(0,2) = 1+5 = 6; cut(2) = w(1,2) + w(0,2) = 6.
	tr := tree.Path(3)
	edges := []Edge{{0, 1, 1}, {1, 2, 1}, {0, 2, 5}}
	s := machine.New(3, sfc.Hilbert{})
	res, err := OneRespecting(s, tr, lfRanks(tr), edges, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cuts[1] != 6 || res.Cuts[2] != 6 {
		t.Fatalf("cuts = %v, want [_,6,6]", res.Cuts)
	}
	if res.MinWeight != 6 {
		t.Fatalf("min = %d", res.MinWeight)
	}
}

func TestBridgeDetection(t *testing.T) {
	// Two cliques joined by one light tree edge: the 1-respecting min
	// cut must find the bridge.
	r := rng.New(2)
	// Vertices 0..9: tree is a path; cliques {0..4} and {5..9} heavy.
	tr := tree.Path(10)
	var edges []Edge
	for v := 1; v < 10; v++ {
		edges = append(edges, Edge{U: v - 1, V: v, W: 1})
	}
	for a := 0; a < 5; a++ {
		for b := a + 1; b < 5; b++ {
			edges = append(edges, Edge{U: a, V: b, W: 10})
			edges = append(edges, Edge{U: a + 5, V: b + 5, W: 10})
		}
	}
	s := machine.New(10, sfc.Hilbert{})
	res, err := OneRespecting(s, tr, lfRanks(tr), edges, r)
	if err != nil {
		t.Fatal(err)
	}
	if res.ArgVertex != 5 {
		t.Fatalf("argmin = %d, want 5 (the bridge 4-5)", res.ArgVertex)
	}
	if res.MinWeight != 1 {
		t.Fatalf("min weight = %d, want 1", res.MinWeight)
	}
}

func TestMatchesSequential(t *testing.T) {
	r := rng.New(3)
	for trial := 0; trial < 15; trial++ {
		n := 5 + r.Intn(120)
		tr := tree.RandomAttachment(n, r)
		edges := RandomGraph(tr, n, 20, r)
		s := machine.New(n, sfc.Hilbert{})
		got, err := OneRespecting(s, tr, lfRanks(tr), edges, r)
		if err != nil {
			t.Fatal(err)
		}
		want := OneRespectingSequential(tr, edges)
		for v := 0; v < n; v++ {
			if got.Cuts[v] != want.Cuts[v] {
				t.Fatalf("trial %d: cut[%d] = %d, want %d", trial, v, got.Cuts[v], want.Cuts[v])
			}
		}
		if got.MinWeight != want.MinWeight {
			t.Fatalf("trial %d: min %d vs %d", trial, got.MinWeight, want.MinWeight)
		}
	}
}

func TestQuick(t *testing.T) {
	f := func(seed uint64, rawN uint8, extra uint8) bool {
		n := 3 + int(rawN)%80
		r := rng.New(seed)
		tr := tree.PreferentialAttachment(n, r)
		edges := RandomGraph(tr, int(extra)%50, 9, r)
		s := machine.New(n, sfc.Hilbert{})
		got, err := OneRespecting(s, tr, lfRanks(tr), edges, r)
		if err != nil {
			return false
		}
		want := OneRespectingSequential(tr, edges)
		return got.MinWeight == want.MinWeight
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSelfLoopsIgnored(t *testing.T) {
	tr := tree.Path(4)
	edges := []Edge{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {2, 2, 100}}
	s := machine.New(4, sfc.Hilbert{})
	res, err := OneRespecting(s, tr, lfRanks(tr), edges, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.MinWeight != 1 {
		t.Fatalf("self loop affected the cut: %d", res.MinWeight)
	}
}

func TestErrors(t *testing.T) {
	tr := tree.Path(3)
	s := machine.New(3, sfc.Hilbert{})
	if _, err := OneRespecting(s, tree.Path(1), []int{0}, nil, rng.New(1)); err == nil {
		t.Error("single-vertex tree should error")
	}
	if _, err := OneRespecting(s, tr, lfRanks(tr), []Edge{{0, 9, 1}}, rng.New(1)); err == nil {
		t.Error("out-of-range edge should error")
	}
	if _, err := OneRespecting(s, tr, lfRanks(tr), []Edge{{0, 1, -2}}, rng.New(1)); err == nil {
		t.Error("negative weight should error")
	}
}

func TestSpatialCostNearLinear(t *testing.T) {
	perVertex := func(bits int) float64 {
		n := 1 << bits
		r := rng.New(uint64(bits))
		tr := tree.RandomAttachment(n, r)
		edges := RandomGraph(tr, n/2, 10, r)
		s := machine.New(n, sfc.Hilbert{})
		if _, err := OneRespecting(s, tr, lfRanks(tr), edges, r); err != nil {
			t.Fatal(err)
		}
		return float64(s.Energy()) / float64(n)
	}
	small, large := perVertex(10), perVertex(13)
	// Energy/vertex may grow by the log factor only.
	if large > small*2.5 {
		t.Errorf("mincut energy/vertex grew superlogarithmically: %.1f -> %.1f", small, large)
	}
}

// TestSpatialCostDeterministic: the run's whole cost, Depth included,
// is a function of its inputs and seed. The deposit fold must visit its
// groups in a fixed order, because the send order moves the dependency
// clocks and with them the Depth; this graph's Depth moves with it.
func TestSpatialCostDeterministic(t *testing.T) {
	const n = 512
	r := rng.New(5)
	tr := tree.RandomAttachment(n, r)
	edges := RandomGraph(tr, 2048-(n-1), 10, r) // 2,048 edges in all
	var first machine.Cost
	for run := 0; run < 30; run++ {
		s := machine.New(n, sfc.Hilbert{})
		if _, err := OneRespecting(s, tr, lfRanks(tr), edges, rng.New(5)); err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = s.Cost()
		} else if c := s.Cost(); c != first {
			t.Fatalf("run %d cost %+v, run 0 %+v", run, c, first)
		}
	}
}
