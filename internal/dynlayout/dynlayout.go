// Package dynlayout implements the future-work direction the paper's
// conclusion names explicitly: "Future exploration of layouts supporting
// dynamic updates may enhance the real-time adaptability of our
// framework. Not only could this address current limitations that
// require layouts to be precomputed..." (Section VII).
//
// The maintained structure is a practical amortized scheme, not a new
// theory: vertices keep their light-first × curve placement, but spread
// by a factor 2 along the curve (packed-memory-array style), so every
// other curve slot is free after a rebuild. A newly inserted leaf is
// parked on the free slot closest in curve order to its parent — with
// gaps everywhere, that is O(1) ranks away until a region crowds up.
// Once the number of mutations since the last rebuild exceeds an ε
// fraction of the tree, the layout is recomputed and every vertex
// migrates to its fresh spread-out light-first position. The spreading
// costs a constant factor in kernel energy (distances grow like √2 on a
// distance-bound curve); rebuild cost is the Θ(n^{3/2})-energy
// permutation of Theorem 4, amortized over εn mutations — O(√n/ε)
// energy per mutation, which is unavoidable up to the ε factor given
// the model's permutation lower bound.
//
// Deletions remove leaves: the freed slot becomes parking space and the
// last vertex id is compacted into the hole (see DeleteLeaf), so the
// vertex set stays 0..n-1 and snapshots remain valid trees. Rebuilds
// shrink the grid again (with a factor-two hysteresis against
// thrashing) once deletions have emptied it out.
//
// The package tracks both costs explicitly (parking energy and migration
// energy) so the experiment harness can report the quality/maintenance
// trade-off as a function of ε.
//
// Methods reachable from the public API return errors rather than
// panicking; CheckInvariants is the checked guard that test harnesses
// (and the fuzz target) run to assert the internal accounting — an
// invariant violation surfaces as an error, never as a panic.
package dynlayout

import (
	"fmt"

	"spatialtree/internal/layout"
	"spatialtree/internal/order"
	"spatialtree/internal/sfc"
	"spatialtree/internal/tree"
)

// Dyn is a dynamically maintained tree layout. Not safe for concurrent
// use.
type Dyn struct {
	curve   sfc.Curve
	side    int
	epsilon float64

	parent   []int
	children [][]int
	pos      []int  // vertex -> curve rank
	used     []bool // rank occupied

	mutationsSinceRebuild int

	// Rebuilds counts full layout recomputations.
	Rebuilds int
	// Inserts and Deletes count successful mutations.
	Inserts, Deletes int
	// ParkEnergy is the total Manhattan distance of shipping new leaves
	// to their parked positions (charged from the parent's processor).
	ParkEnergy int64
	// MigrateEnergy is the total Manhattan distance moved by vertices
	// during rebuilds.
	MigrateEnergy int64
}

// New creates a dynamic layout for t on the given curve. epsilon is the
// rebuild threshold: a rebuild triggers when mutations since the last
// rebuild exceed epsilon × current size (0 < epsilon; typical 0.05-0.5).
func New(t *tree.Tree, curve sfc.Curve, epsilon float64) (*Dyn, error) {
	if t.N() == 0 {
		return nil, fmt.Errorf("dynlayout: empty tree")
	}
	if epsilon <= 0 {
		return nil, fmt.Errorf("dynlayout: epsilon must be positive")
	}
	d := &Dyn{curve: curve, epsilon: epsilon}
	d.parent = append(d.parent, t.Parents()...)
	d.children = make([][]int, t.N())
	for v := 0; v < t.N(); v++ {
		d.children[v] = append([]int(nil), t.Children(v)...)
	}
	d.pos = make([]int, t.N())
	if err := d.rebuildInPlace(false); err != nil {
		return nil, err
	}
	return d, nil
}

// Restore rebuilds a dynamic layout from persisted state: the parent
// array, the sparse vertex→rank assignment on a side×side grid, the
// drift (mutations applied since the last rebuild) and the rebuild
// threshold. The children and occupancy arrays are re-derived and the
// full invariant suite is checked, so corrupt or mismatched state comes
// back as an error, never as a later panic. Lifetime counters (Inserts,
// Deletes, Rebuilds, ParkEnergy, MigrateEnergy) are exported fields and
// are the caller's to restore.
func Restore(parents, ranks []int, side int, curve sfc.Curve, epsilon float64, drift int) (*Dyn, error) {
	n := len(parents)
	switch {
	case n == 0:
		return nil, fmt.Errorf("dynlayout: empty tree")
	case epsilon <= 0:
		return nil, fmt.Errorf("dynlayout: epsilon must be positive")
	case len(ranks) != n:
		return nil, fmt.Errorf("dynlayout: %d ranks for %d vertices", len(ranks), n)
	case side <= 0 || spread*n > side*side:
		return nil, fmt.Errorf("dynlayout: %d vertices do not fit a %d×%d grid at spread %d", n, side, side, spread)
	case drift < 0:
		return nil, fmt.Errorf("dynlayout: negative drift %d", drift)
	}
	d := &Dyn{curve: curve, side: side, epsilon: epsilon, mutationsSinceRebuild: drift}
	d.parent = append(d.parent, parents...)
	d.pos = append(d.pos, ranks...)
	d.children = make([][]int, n)
	for v, p := range parents {
		if p < -1 || p >= n || p == v {
			return nil, fmt.Errorf("dynlayout: vertex %d has invalid parent %d", v, p)
		}
		if p != -1 {
			d.children[p] = append(d.children[p], v)
		}
	}
	d.used = make([]bool, side*side)
	for v, r := range d.pos {
		if r < 0 || r >= len(d.used) {
			return nil, fmt.Errorf("dynlayout: vertex %d at rank %d outside the %d×%d grid", v, r, side, side)
		}
		if d.used[r] {
			return nil, fmt.Errorf("dynlayout: two vertices at rank %d", r)
		}
		d.used[r] = true
	}
	if err := d.CheckInvariants(); err != nil {
		return nil, err
	}
	return d, nil
}

// N returns the current vertex count.
func (d *Dyn) N() int { return len(d.parent) }

// Epsilon returns the rebuild threshold the layout was created with.
func (d *Dyn) Epsilon() float64 { return d.epsilon }

// Drift returns the number of mutations applied since the last rebuild
// — the quantity the epsilon threshold is compared against, and part of
// the state a snapshot must carry for a faithful restore.
func (d *Dyn) Drift() int { return d.mutationsSinceRebuild }

// Parents returns a copy of the current parent array.
func (d *Dyn) Parents() []int { return append([]int(nil), d.parent...) }

// Side returns the current grid side.
func (d *Dyn) Side() int { return d.side }

// Pos returns the grid coordinates of vertex v.
func (d *Dyn) Pos(v int) (x, y int) { return d.curve.XY(d.pos[v], d.side) }

// IsLeaf reports whether v is a current vertex with no children.
func (d *Dyn) IsLeaf(v int) bool {
	return v >= 0 && v < d.N() && len(d.children[v]) == 0
}

// Ranks returns a copy of the vertex → curve-rank assignment. Ranks are
// sparse: they live in [0, Side()²), not [0, N()).
func (d *Dyn) Ranks() []int { return append([]int(nil), d.pos...) }

// Tree returns a validated snapshot of the current tree. An error means
// an internal invariant was broken; it is not reachable through the
// mutation API on valid inputs.
func (d *Dyn) Tree() (*tree.Tree, error) {
	t, err := tree.FromParents(d.parent)
	if err != nil {
		return nil, fmt.Errorf("dynlayout: internal tree corrupt: %w", err)
	}
	return t, nil
}

// Placement returns the current sparse placement — the dynamic layout's
// parked/spread positions as a layout.Placement, usable by every kernel
// that consumes per-vertex curve ranks.
func (d *Dyn) Placement() (*layout.Placement, error) {
	t, err := d.Tree()
	if err != nil {
		return nil, err
	}
	return layout.FromRanks(t, "dyn-light-first", d.pos, d.curve, d.side)
}

// InsertLeaf adds a new leaf under parent and returns its vertex id. The
// leaf is parked on the nearest free curve rank to the parent; a rebuild
// triggers when the drift budget is exhausted.
func (d *Dyn) InsertLeaf(parent int) (int, error) {
	if parent < 0 || parent >= d.N() {
		return 0, fmt.Errorf("dynlayout: parent %d out of range", parent)
	}
	v := d.N()
	d.parent = append(d.parent, parent)
	d.children = append(d.children, nil)
	d.children[parent] = append(d.children[parent], v)
	d.pos = append(d.pos, -1)
	d.Inserts++

	if spread*d.N() > d.side*d.side {
		// Grid near capacity: grow and rebuild (places v too).
		return v, d.rebuildInPlace(true)
	}
	rank, ok := d.nearestFree(d.pos[parent])
	if !ok {
		// Free-slot accounting drifted (spread·n ≤ side² guarantees a
		// free slot exists): recover by rebuilding, which re-derives
		// used[] from scratch and places v, instead of panicking.
		return v, d.rebuildInPlace(true)
	}
	d.pos[v] = rank
	d.used[rank] = true
	px, py := d.curve.XY(d.pos[parent], d.side)
	x, y := d.curve.XY(rank, d.side)
	d.ParkEnergy += int64(sfc.Manhattan(px, py, x, y))

	d.mutationsSinceRebuild++
	if float64(d.mutationsSinceRebuild) > d.epsilon*float64(d.N()) {
		return v, d.rebuildInPlace(true)
	}
	return v, nil
}

// DeleteLeaf removes leaf v and returns the id that was renumbered into
// the hole: vertex ids stay the contiguous range 0..N()-1, so the vertex
// previously known as N()-1 takes over id v (moved == old id N()-1;
// moved == v when v already was the last id, i.e. nothing else moved).
// Renumbering changes ids only, never grid positions. Deleting a
// non-leaf, the root, or an out-of-range id is an error.
func (d *Dyn) DeleteLeaf(v int) (moved int, err error) {
	switch {
	case v < 0 || v >= d.N():
		return 0, fmt.Errorf("dynlayout: vertex %d out of range", v)
	case len(d.children[v]) != 0:
		return 0, fmt.Errorf("dynlayout: vertex %d is not a leaf (%d children)", v, len(d.children[v]))
	case d.parent[v] == -1:
		return 0, fmt.Errorf("dynlayout: cannot delete the root")
	}

	d.used[d.pos[v]] = false
	p := d.parent[v]
	d.children[p] = removeChild(d.children[p], v)

	last := d.N() - 1
	if v != last {
		// Compact: relabel vertex `last` as v. Its parent's child list
		// and its own children's parent pointers must follow.
		d.parent[v] = d.parent[last]
		d.children[v] = d.children[last]
		d.pos[v] = d.pos[last]
		if lp := d.parent[last]; lp != -1 {
			d.children[lp] = replaceChild(d.children[lp], last, v)
		}
		for _, c := range d.children[v] {
			d.parent[c] = v
		}
	}
	d.parent = d.parent[:last]
	d.children = d.children[:last]
	d.pos = d.pos[:last]
	d.Deletes++

	d.mutationsSinceRebuild++
	if float64(d.mutationsSinceRebuild) > d.epsilon*float64(d.N()) {
		return last, d.rebuildInPlace(true)
	}
	return last, nil
}

func removeChild(ch []int, v int) []int {
	for i, c := range ch {
		if c == v {
			ch[i] = ch[len(ch)-1]
			return ch[:len(ch)-1]
		}
	}
	return ch
}

func replaceChild(ch []int, from, to int) []int {
	for i, c := range ch {
		if c == from {
			ch[i] = to
			break
		}
	}
	return ch
}

// nearestFree scans curve ranks outward from r and returns the first
// free one, or ok == false if every rank is occupied (which the
// spread-factor capacity check rules out unless accounting broke). On a
// distance-bound curve, rank proximity implies grid proximity
// (dist ≤ α√gap), so the scan is a good parking heuristic.
func (d *Dyn) nearestFree(r int) (rank int, ok bool) {
	limit := d.side * d.side
	for delta := 0; delta < limit; delta++ {
		if a := r - delta; a >= 0 && !d.used[a] {
			return a, true
		}
		if b := r + delta; b < limit && !d.used[b] {
			return b, true
		}
	}
	return -1, false
}

// spread is the gap factor: vertex with light-first rank r is placed at
// curve slot spread·r, leaving spread-1 free slots between neighbors.
const spread = 2

// rebuildInPlace recomputes the spread-out light-first placement; when
// migrate is true the movement energy of every vertex is charged. The
// grid grows to fit spread·n slots and shrinks again once the fresh side
// is at most half the current one (hysteresis against grow/shrink
// thrashing around a boundary).
func (d *Dyn) rebuildInPlace(migrate bool) error {
	t, err := d.Tree()
	if err != nil {
		return err
	}
	side := d.curve.Side(spread * t.N())
	if side < d.side && 2*side > d.side {
		side = d.side
	}
	o := order.LightFirst(t)
	newPos := make([]int, t.N())
	for v, r := range o.Rank {
		newPos[v] = spread * r
	}
	if migrate {
		for v := 0; v < t.N(); v++ {
			if d.pos[v] < 0 {
				continue // vertex not yet placed (triggering insert)
			}
			ox, oy := d.curve.XY(d.pos[v], d.side)
			nx, ny := d.curve.XY(newPos[v], side)
			d.MigrateEnergy += int64(sfc.Manhattan(ox, oy, nx, ny))
		}
		d.Rebuilds++
	}
	d.side = side
	d.pos = append(d.pos[:0], newPos...)
	d.used = make([]bool, side*side)
	for _, r := range d.pos {
		d.used[r] = true
	}
	d.mutationsSinceRebuild = 0
	return nil
}

// KernelCost measures the current parent→children messaging kernel — the
// quantity Theorem 1 bounds for a fresh layout; the dynamic guarantee is
// staying within a modest factor of it between rebuilds.
func (d *Dyn) KernelCost() layout.KernelCost {
	var k layout.KernelCost
	for v := 0; v < d.N(); v++ {
		px, py := d.Pos(v)
		for _, c := range d.children[v] {
			cx, cy := d.Pos(c)
			dist := sfc.Manhattan(px, py, cx, cy)
			k.Messages++
			k.Energy += int64(dist)
			if dist > k.MaxDist {
				k.MaxDist = dist
			}
		}
	}
	if k.Messages > 0 {
		k.PerMessage = float64(k.Energy) / float64(k.Messages)
	}
	if d.N() > 0 {
		k.PerVertex = float64(k.Energy) / float64(d.N())
	}
	return k
}

// FreshKernelCost measures the kernel of a from-scratch light-first
// layout of the current tree — the static optimum the dynamic layout is
// compared against.
func (d *Dyn) FreshKernelCost() (layout.KernelCost, error) {
	t, err := d.Tree()
	if err != nil {
		return layout.KernelCost{}, err
	}
	return layout.ParentChildEnergy(layout.LightFirst(t, d.curve)), nil
}

// CheckInvariants verifies the internal accounting: contiguous vertex
// ids forming a valid tree, an injective position assignment inside the
// grid, used[] marking exactly the occupied ranks, and parent/children
// arrays that mirror each other. It returns an error describing the
// first violation — this is the checked guard that replaces internal
// "accounting bug" panics.
func (d *Dyn) CheckInvariants() error {
	n := d.N()
	if len(d.children) != n || len(d.pos) != n {
		return fmt.Errorf("dynlayout: ragged state: n=%d children=%d pos=%d", n, len(d.children), len(d.pos))
	}
	slots := d.side * d.side
	if len(d.used) != slots {
		return fmt.Errorf("dynlayout: used has %d slots for side %d", len(d.used), d.side)
	}
	if spread*n > slots {
		return fmt.Errorf("dynlayout: %d vertices overflow %d slots at spread %d", n, slots, spread)
	}
	at := make([]int, slots)
	for i := range at {
		at[i] = -1
	}
	for v, r := range d.pos {
		if r < 0 || r >= slots {
			return fmt.Errorf("dynlayout: vertex %d at rank %d outside [0,%d)", v, r, slots)
		}
		if at[r] != -1 {
			return fmt.Errorf("dynlayout: vertices %d and %d share rank %d", at[r], v, r)
		}
		at[r] = v
	}
	for r, u := range d.used {
		if u != (at[r] != -1) {
			return fmt.Errorf("dynlayout: used[%d]=%v but occupancy is %v", r, u, at[r] != -1)
		}
	}
	for v := 0; v < n; v++ {
		for _, c := range d.children[v] {
			if c < 0 || c >= n || d.parent[c] != v {
				return fmt.Errorf("dynlayout: child list of %d names %d whose parent is not %d", v, c, v)
			}
		}
	}
	childCount := make([]int, n)
	for v, p := range d.parent {
		if p == -1 {
			continue
		}
		if p < 0 || p >= n {
			return fmt.Errorf("dynlayout: vertex %d has out-of-range parent %d", v, p)
		}
		childCount[p]++
	}
	for v := 0; v < n; v++ {
		if childCount[v] != len(d.children[v]) {
			return fmt.Errorf("dynlayout: vertex %d has %d children by parent array, %d by child list", v, childCount[v], len(d.children[v]))
		}
	}
	if _, err := d.Tree(); err != nil {
		return err
	}
	return nil
}
