package exec

import (
	"math/bits"
	"slices"
	"testing"

	"spatialtree/internal/lca"
	"spatialtree/internal/mincut"
	"spatialtree/internal/rng"
	"spatialtree/internal/tree"
	"spatialtree/internal/treefix"
)

// shard is a minimal dyn shard over a parent array: the mutations
// dynlayout applies (append on insert, swap-last on delete), each
// recorded in an overlay, and one native epoch per mutation.
type shard struct {
	parents []int
	ov      *Overlay
}

func (s *shard) insert(parent int) int {
	v := len(s.parents)
	s.parents = append(s.parents, parent)
	s.ov.Insert(parent, v)
	return v
}

func (s *shard) delete(v int) {
	last := len(s.parents) - 1
	for c, p := range s.parents {
		if p == last {
			s.parents[c] = v
		}
	}
	s.parents[v] = s.parents[last]
	s.parents = s.parents[:last]
	s.ov.Delete(v, last)
}

func (s *shard) isLeaf(v int) bool {
	for _, p := range s.parents {
		if p == v {
			return false
		}
	}
	return s.parents[v] != -1
}

// epoch serves the current tree and checks every pair's LCA against
// the oracle; it returns the epoch's backend.
func (s *shard) epoch(t *testing.T) *nativeBackend {
	t.Helper()
	parents := s.parents
	be := NewDynNative(len(parents), func() (*tree.Tree, error) { return tree.FromParents(parents) }, s.ov).(*nativeBackend)
	n := len(parents)
	var qs []lca.Query
	for u := 0; u < n; u++ {
		for v := u; v < n; v++ {
			qs = append(qs, lca.Query{U: u, V: v})
		}
	}
	got, err := be.Run(0).LCA(qs)
	if err != nil {
		t.Fatal(err)
	}
	oracle := lca.NewOracle(tree.MustFromParents(parents))
	for i, q := range qs {
		if want := oracle.LCA(q.U, q.V); got[i] != want {
			t.Fatalf("n=%d: LCA(%d, %d) = %d, oracle %d", n, q.U, q.V, got[i], want)
		}
	}
	return be
}

// deepest returns the overlay's deepest inserted vertex's depth below
// its anchor: the length bound of a same-anchor walk.
func (o *Overlay) deepest() int {
	d := 0
	for _, g := range o.inserted {
		d = max(d, int(g.depth))
	}
	return d
}

// TestOverlayChainWalkBound inserts a chain of ε·n vertices under one
// vertex. The overlay must rebase whenever the chain grows deeper than
// ⌈log₂ n⌉, so a same-anchor walk never takes more steps than that,
// though the ε·n budget alone would let the chain grow to ε·n.
func TestOverlayChainWalkBound(t *testing.T) {
	const eps = 0.5
	s := &shard{parents: tree.RandomAttachment(96, rng.New(5)).Parents(), ov: NewOverlay(eps)}
	s.epoch(t) // the first LCA builds the base
	base, rebases := s.ov.base, 0
	tip := 17
	for i := 0; i < int(eps*96); i++ {
		tip = s.insert(tip)
		s.epoch(t)
		n := len(s.parents)
		if d, bound := s.ov.deepest(), bits.Len(uint(n-1)); d > bound {
			t.Fatalf("chain step %d: walk of %d steps exceeds ⌈log₂ %d⌉ = %d", i, d, n, bound)
		}
		if s.ov.base != base {
			base, rebases = s.ov.base, rebases+1
		}
	}
	n := len(s.parents)
	if want := int(eps*96) / (bits.Len(uint(n-1)) + 1); rebases < want {
		t.Fatalf("%d rebases over a %d-vertex chain, want at least %d", rebases, int(eps*96), want)
	}
}

// TestOverlayTracksRenumbering interleaves inserts (chains included)
// with deletes of inserted leaves, of base leaves and of the last id,
// checking every pair's LCA after each mutation. Only the ε·n budget
// and the depth bound rebuild the base.
func TestOverlayTracksRenumbering(t *testing.T) {
	r := rng.New(9)
	s := &shard{parents: tree.RandomAttachment(64, r).Parents(), ov: NewOverlay(0.3)}
	s.epoch(t)
	rebuilds := 0
	for i := 0; i < 120; i++ {
		n := len(s.parents)
		switch i % 3 {
		case 0:
			s.insert(r.Intn(n))
		case 1:
			s.insert(n - 1) // under the last id: often an inserted vertex
		default:
			var leaves []int
			for v := 0; v < n; v++ {
				if s.isLeaf(v) {
					leaves = append(leaves, v)
				}
			}
			s.delete(leaves[r.Intn(len(leaves))])
		}
		if be := s.epoch(t); be.lcaEng != nil {
			rebuilds++
		}
	}
	if rebuilds == 0 || rebuilds > 40 {
		t.Fatalf("%d of 120 epochs rebuilt the LCA table, want some but few", rebuilds)
	}
}

// TestOverlayBudgetCappedAtN churns shallow leaves on a shard whose
// drift budget is far above 1: neither ε·n nor the depth bound ever
// trips, so only the cap at n mutations keeps the overlay's arrays and
// stable ids from growing with the shard's age.
func TestOverlayBudgetCappedAtN(t *testing.T) {
	const n = 48
	s := &shard{parents: tree.RandomAttachment(n, rng.New(4)).Parents(), ov: NewOverlay(1e6)}
	s.epoch(t)
	base, since := s.ov.base, 0
	for i := 0; i < 6*n; i++ {
		if i%2 == 0 {
			s.insert(0)
		} else {
			s.delete(len(s.parents) - 1)
		}
		s.epoch(t)
		since++
		if s.ov.base != base {
			base, since = s.ov.base, 0
		}
		if since > n+1 {
			t.Fatalf("mutation %d: %d mutations since the last rebase on a %d-vertex tree", i, since, len(s.parents))
		}
		if len(s.ov.current) > 3*len(s.parents) {
			t.Fatalf("mutation %d: overlay tracks %d stable ids for %d vertices", i, len(s.ov.current), len(s.parents))
		}
	}
}

// TestDynEpochMinCutReadsOverlay: a dyn epoch's min-cut answers its
// edges' LCAs through the overlay, so a mutated epoch builds no second
// table beside the base, and an epoch whose first table-needing request
// is a min-cut builds the base itself.
func TestDynEpochMinCutReadsOverlay(t *testing.T) {
	r := rng.New(6)
	s := &shard{parents: tree.RandomAttachment(40, r).Parents(), ov: NewOverlay(0.5)}
	for i := 0; i < 12; i++ {
		parents := slices.Clone(s.parents)
		be := NewDynNative(len(parents), func() (*tree.Tree, error) { return tree.FromParents(parents) }, s.ov).(*nativeBackend)
		tr := tree.MustFromParents(parents)
		edges := mincut.RandomGraph(tr, 2*len(parents), 9, r)
		hadBase := s.ov.base != nil
		got, err := be.Run(0).MinCut(edges)
		if err != nil {
			t.Fatal(err)
		}
		want := mincut.OneRespectingSequential(tr, edges)
		if got.MinWeight != want.MinWeight || got.ArgVertex != want.ArgVertex || !slices.Equal(got.Cuts, want.Cuts) {
			t.Fatalf("epoch %d: min-cut %+v, sequential %+v", i, got, want)
		}
		if hadBase && be.lcaEng != nil {
			t.Fatalf("epoch %d built a second LCA table beside the overlay's base", i)
		}
		if !hadBase && (be.lcaEng == nil || s.ov.base != be.lcaEng) {
			t.Fatalf("epoch %d built its table but not as the overlay's base", i)
		}
		if i%3 == 2 {
			s.delete(len(s.parents) - 1)
		} else {
			s.insert(r.Intn(len(s.parents)))
		}
	}
}

// TestOverlayWithoutBase: a shard that has built no LCA table records
// nothing, and an epoch that serves no LCA builds none.
func TestOverlayWithoutBase(t *testing.T) {
	s := &shard{parents: tree.RandomAttachment(32, rng.New(2)).Parents(), ov: NewOverlay(0.2)}
	for i := 0; i < 8; i++ {
		s.insert(i)
	}
	s.delete(len(s.parents) - 1)
	if s.ov.stable != nil || s.ov.current != nil || s.ov.inserted != nil {
		t.Fatal("an overlay without a base recorded mutations")
	}
	parents := s.parents
	be := NewDynNative(len(parents), func() (*tree.Tree, error) { return tree.FromParents(parents) }, s.ov).(*nativeBackend)
	if _, err := be.Run(0).BottomUp(make([]int64, len(parents)), treefix.Add); err != nil {
		t.Fatal(err)
	}
	if be.lcaEng != nil || s.ov.base != nil {
		t.Fatal("a treefix-only epoch built an LCA table")
	}
	// A build that disagrees with the epoch's vertex count fails the
	// epoch's kernels instead of serving another epoch's tree.
	stale := NewDynNative(len(parents)+1, func() (*tree.Tree, error) { return tree.FromParents(parents) }, s.ov)
	if _, err := stale.Run(0).LCA([]lca.Query{{U: 0, V: 1}}); err == nil {
		t.Fatal("an epoch served a tree of the wrong size")
	}
}
