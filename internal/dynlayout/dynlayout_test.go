package dynlayout

import (
	"testing"

	"spatialtree/internal/rng"
	"spatialtree/internal/sfc"
	"spatialtree/internal/tree"
)

func freshEnergy(t *testing.T, d *Dyn) int64 {
	t.Helper()
	k, err := d.FreshKernelCost()
	if err != nil {
		t.Fatal(err)
	}
	return k.Energy
}

func snapshot(t *testing.T, d *Dyn) *tree.Tree {
	t.Helper()
	tr, err := d.Tree()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewNearStaticLayout(t *testing.T) {
	// The spread-out layout pays at most a constant factor (≈√2 on a
	// distance-bound curve) over the dense light-first optimum.
	tr := tree.RandomAttachment(200, rng.New(1))
	d, err := New(tr, sfc.Hilbert{}, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	got, fresh := d.KernelCost().Energy, freshEnergy(t, d)
	if got < fresh {
		t.Fatalf("spread kernel %d beats dense optimum %d (impossible)", got, fresh)
	}
	if float64(got) > 2.5*float64(fresh) {
		t.Fatalf("spread kernel %d more than 2.5x dense optimum %d", got, fresh)
	}
	if d.Rebuilds != 0 {
		t.Fatal("construction must not count as a rebuild")
	}
}

func TestErrors(t *testing.T) {
	if _, err := New(tree.MustFromParents(nil), sfc.Hilbert{}, 0.1); err == nil {
		t.Error("empty tree accepted")
	}
	tr := tree.Path(4)
	if _, err := New(tr, sfc.Hilbert{}, 0); err == nil {
		t.Error("zero epsilon accepted")
	}
	d, _ := New(tr, sfc.Hilbert{}, 0.5)
	if _, err := d.InsertLeaf(99); err == nil {
		t.Error("out-of-range parent accepted")
	}
	if _, err := d.DeleteLeaf(-1); err == nil {
		t.Error("negative delete accepted")
	}
	if _, err := d.DeleteLeaf(99); err == nil {
		t.Error("out-of-range delete accepted")
	}
	if _, err := d.DeleteLeaf(0); err == nil {
		t.Error("deleting the root accepted")
	}
	if _, err := d.DeleteLeaf(1); err == nil {
		t.Error("deleting an internal vertex accepted") // Path: 1 has child 2
	}
}

func TestPositionsStayInjective(t *testing.T) {
	r := rng.New(2)
	d, _ := New(tree.RandomAttachment(50, r), sfc.Hilbert{}, 0.2)
	for i := 0; i < 2000; i++ {
		if _, err := d.InsertLeaf(r.Intn(d.N())); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[int]bool, d.N())
	for v := 0; v < d.N(); v++ {
		x, y := d.Pos(v)
		key := y*d.Side() + x
		if seen[key] {
			t.Fatalf("two vertices share processor (%d,%d)", x, y)
		}
		seen[key] = true
	}
	if d.N() != 2050 {
		t.Fatalf("n = %d, want 2050", d.N())
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTreeStructureMaintained(t *testing.T) {
	r := rng.New(3)
	d, _ := New(tree.Path(10), sfc.Hilbert{}, 0.3)
	for i := 0; i < 500; i++ {
		if _, err := d.InsertLeaf(r.Intn(d.N())); err != nil {
			t.Fatal(err)
		}
	}
	// Tree() must validate and have the right size.
	if snapshot(t, d).N() != 510 {
		t.Fatalf("tree n = %d", snapshot(t, d).N())
	}
}

func TestKernelStaysNearOptimal(t *testing.T) {
	// Between rebuilds the kernel must stay within a modest factor of
	// the fresh layout; right after a rebuild they coincide.
	r := rng.New(4)
	d, _ := New(tree.RandomAttachment(512, r), sfc.Hilbert{}, 0.2)
	worst := 1.0
	for i := 0; i < 3000; i++ {
		if _, err := d.InsertLeaf(r.Intn(d.N())); err != nil {
			t.Fatal(err)
		}
		if i%250 == 0 {
			ratio := float64(d.KernelCost().Energy) / float64(freshEnergy(t, d))
			if ratio > worst {
				worst = ratio
			}
		}
	}
	if worst > 4.0 {
		t.Errorf("dynamic kernel drifted to %.2fx the fresh layout", worst)
	}
	if d.Rebuilds == 0 {
		t.Error("expected rebuilds over 3000 inserts with epsilon 0.2")
	}
}

func TestRebuildCountMatchesEpsilon(t *testing.T) {
	// Mutations between rebuilds ≈ ε·n, so the count over a doubling
	// should be around ln(2)/ε plus grid-growth rebuilds.
	r := rng.New(5)
	eps := 0.25
	d, _ := New(tree.RandomAttachment(1000, r), sfc.Hilbert{}, eps)
	for i := 0; i < 1000; i++ {
		d.InsertLeaf(r.Intn(d.N()))
	}
	if d.Rebuilds < 2 || d.Rebuilds > 8 {
		t.Errorf("rebuilds = %d over a doubling with eps=%.2f, want a handful", d.Rebuilds, eps)
	}
}

func TestGridGrowth(t *testing.T) {
	// Start at capacity; every insert must still succeed.
	d, _ := New(tree.Path(16), sfc.Hilbert{}, 10 /* effectively never rebuild by drift */)
	if d.Side() != 8 { // spread factor 2: needs 32 slots
		t.Fatalf("side = %d, want 8", d.Side())
	}
	r := rng.New(6)
	for i := 0; i < 100; i++ {
		if _, err := d.InsertLeaf(r.Intn(d.N())); err != nil {
			t.Fatal(err)
		}
	}
	if d.Side() < 16 { // 116 vertices × spread 2 = 232 slots
		t.Fatalf("grid did not grow: side %d for n=%d", d.Side(), d.N())
	}
	if d.N() != 116 {
		t.Fatalf("n = %d", d.N())
	}
}

func TestCostAccounting(t *testing.T) {
	r := rng.New(7)
	d, _ := New(tree.RandomAttachment(256, r), sfc.Hilbert{}, 0.1)
	for i := 0; i < 600; i++ {
		d.InsertLeaf(r.Intn(d.N()))
	}
	if d.ParkEnergy <= 0 {
		t.Error("parking energy not charged")
	}
	if d.Rebuilds > 0 && d.MigrateEnergy <= 0 {
		t.Error("migration energy not charged despite rebuilds")
	}
	if d.Inserts != 600 {
		t.Errorf("Inserts = %d, want 600", d.Inserts)
	}
	// Amortized: migration energy per insert should be O(√n/ε)-ish, not
	// O(n). With n≈856 and ε=0.1, allow a generous constant.
	perInsert := float64(d.MigrateEnergy) / 600
	if perInsert > 40*29/0.1 {
		t.Errorf("amortized migration energy %.1f per insert looks unbounded", perInsert)
	}
}

func TestParkingStaysLocal(t *testing.T) {
	// With few inserts and a sparse grid, parked leaves should sit very
	// close to their parents.
	d, _ := New(tree.Path(100), sfc.Hilbert{}, 100)
	v, err := d.InsertLeaf(50)
	if err != nil {
		t.Fatal(err)
	}
	px, py := d.Pos(50)
	vx, vy := d.Pos(v)
	if dist := abs(px-vx) + abs(py-vy); dist > 2*d.Side() {
		t.Errorf("parked leaf %d away from parent", dist)
	}
	if d.ParkEnergy == 0 {
		t.Error("no parking energy charged")
	}
}

func TestDeleteLeafRenumbers(t *testing.T) {
	// Path 0→1→2→3 plus two extra leaves under 1: deleting a middle
	// leaf must relabel the last vertex into the hole and keep the
	// structure valid.
	d, err := New(tree.Path(4), sfc.Hilbert{}, 100)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := d.InsertLeaf(1) // id 4
	b, _ := d.InsertLeaf(1) // id 5
	if a != 4 || b != 5 {
		t.Fatalf("insert ids %d, %d", a, b)
	}
	moved, err := d.DeleteLeaf(a)
	if err != nil {
		t.Fatal(err)
	}
	if moved != b {
		t.Fatalf("moved = %d, want %d (last id takes the hole)", moved, b)
	}
	if d.N() != 5 {
		t.Fatalf("n = %d, want 5", d.N())
	}
	tr := snapshot(t, d)
	if tr.Parent(4) != 1 { // old vertex 5, now id 4, still hangs off 1
		t.Fatalf("renumbered leaf has parent %d, want 1", tr.Parent(4))
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Deleting the current last id moves nothing.
	moved, err = d.DeleteLeaf(4)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 4 {
		t.Fatalf("moved = %d, want 4 (nothing renumbered)", moved)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteLeafParentIsLast(t *testing.T) {
	// Relabeling edge case: the deleted leaf's parent is itself the
	// last id. parents {-1,0,1,1,3}: deleting leaf 2 relabels 4→2 (its
	// parent 3 keeps its id); the new leaf 2 then hangs off vertex 3,
	// which IS the last id, so deleting it renumbers its own parent.
	d, err := New(tree.MustFromParents([]int{-1, 0, 1, 1, 3}), sfc.Hilbert{}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.DeleteLeaf(2); err != nil { // relabels 4→2
		t.Fatal(err)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if p := snapshot(t, d).Parent(2); p != 3 {
		t.Fatalf("renumbered leaf has parent %d, want 3", p)
	}
	if _, err := d.DeleteLeaf(2); err != nil { // parent 3 == last id moves
		t.Fatal(err)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if n := snapshot(t, d).N(); n != 3 {
		t.Fatalf("n = %d, want 3", n)
	}
}

func TestDeleteTriggersRebuildAndShrink(t *testing.T) {
	// Grow a tree to inflate the grid, then delete most of it: rebuilds
	// must fire on the deletion budget and the grid must shrink once the
	// fresh side is at most half the current one.
	r := rng.New(8)
	d, _ := New(tree.RandomAttachment(64, r), sfc.Hilbert{}, 0.2)
	for i := 0; i < 1000; i++ {
		if _, err := d.InsertLeaf(r.Intn(d.N())); err != nil {
			t.Fatal(err)
		}
	}
	grown := d.Side()
	if grown < 32 { // 1064 vertices × spread 2 > 1024
		t.Fatalf("side = %d after growth, want ≥ 32", grown)
	}
	rebuildsBefore := d.Rebuilds
	deleted := 0
	for deleted < 950 {
		v := d.N() - 1 // renumbering keeps ids contiguous; scan for a leaf
		for v > 0 && !d.IsLeaf(v) {
			v--
		}
		if v == 0 {
			t.Fatal("no deletable leaf found")
		}
		if _, err := d.DeleteLeaf(v); err != nil {
			t.Fatal(err)
		}
		deleted++
	}
	if d.Rebuilds == rebuildsBefore {
		t.Error("deletions never triggered a rebuild")
	}
	if d.Side() >= grown {
		t.Errorf("grid did not shrink: side %d for n=%d (was %d)", d.Side(), d.N(), grown)
	}
	if d.Deletes != deleted {
		t.Errorf("Deletes = %d, want %d", d.Deletes, deleted)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestShrinkHysteresis(t *testing.T) {
	// A fresh side within a factor two of the current one must be kept.
	r := rng.New(9)
	d, _ := New(tree.RandomAttachment(120, r), sfc.Hilbert{}, 0.05)
	side := d.Side() // 240 slots → side 16
	if side != 16 {
		t.Fatalf("side = %d, want 16", side)
	}
	// Delete a handful of leaves — enough for several rebuilds at
	// ε=0.05 but nowhere near a halving.
	deleted := 0
	for v := d.N() - 1; v >= 0 && deleted < 20; v-- {
		if d.IsLeaf(v) {
			if _, err := d.DeleteLeaf(v); err != nil {
				t.Fatal(err)
			}
			deleted++
		}
	}
	if d.Rebuilds == 0 {
		t.Fatal("expected rebuilds at ε=0.05")
	}
	if d.Side() != side {
		t.Errorf("side shrank to %d on a small deletion wave (hysteresis broken)", d.Side())
	}
}

func TestPlacementMatchesPositions(t *testing.T) {
	r := rng.New(10)
	d, _ := New(tree.RandomAttachment(100, r), sfc.Hilbert{}, 0.3)
	for i := 0; i < 50; i++ {
		d.InsertLeaf(r.Intn(d.N()))
	}
	p, err := d.Placement()
	if err != nil {
		t.Fatal(err)
	}
	if p.Side != d.Side() || p.Tree.N() != d.N() {
		t.Fatalf("placement side %d n %d vs dyn side %d n %d", p.Side, p.Tree.N(), d.Side(), d.N())
	}
	for v := 0; v < d.N(); v++ {
		dx, dy := d.Pos(v)
		px, py := p.Pos(v)
		if dx != px || dy != py {
			t.Fatalf("vertex %d at (%d,%d) in dyn, (%d,%d) in placement", v, dx, dy, px, py)
		}
	}
	ranks := d.Ranks()
	if len(ranks) != d.N() {
		t.Fatalf("Ranks() has %d entries", len(ranks))
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestKernelCostSingleVertex(t *testing.T) {
	d, err := New(tree.MustFromParents([]int{-1}), sfc.Hilbert{}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	k := d.KernelCost()
	if k.Messages != 0 || k.Energy != 0 || k.PerMessage != 0 || k.PerVertex != 0 {
		t.Fatalf("single-vertex kernel = %+v, want zeros (no NaN)", k)
	}
	fresh, err := d.FreshKernelCost()
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Energy != 0 || fresh.PerMessage != 0 {
		t.Fatalf("single-vertex fresh kernel = %+v", fresh)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
