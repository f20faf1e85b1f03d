// Package exprtree implements parallel expression tree evaluation, the
// classic application of tree contraction that Section V of the paper
// ties its treefix framework to ("this problem ... is related to the
// parallel evaluation of arithmetic expressions [Miller & Reif]").
//
// An expression tree is a full binary tree whose leaves hold constants
// and whose internal nodes hold + or ×. The spatial evaluator contracts
// the tree with the Miller-Reif rake-only schedule: leaves are numbered
// left to right, and each round rakes first the odd-numbered leaves that
// are left children, then the odd-numbered leaves that are right
// children — no two raked leaves share a parent, so all rakes of a wave
// are independent. Partial results are carried as affine functions
// a·x + b, which are closed under composition with + and × by a
// constant; each rake therefore needs O(1) words and O(1) messages.
// The leaf count halves every round: O(log n) rounds, and on a
// light-first layout the messages stay local (near-linear energy).
// On a CPU the rake schedule buys nothing over one reverse pass over a
// recorded preorder (EvalPreorder), which the native backend runs.
//
// Arithmetic is modular (a fixed prime) so the evaluation is exact for
// arbitrarily deep products.
package exprtree

import (
	"fmt"

	"spatialtree/internal/machine"
	"spatialtree/internal/rng"
	"spatialtree/internal/tree"
	"spatialtree/internal/treefix"
)

// Mod is the arithmetic modulus (a prime < 2^31, so products of two
// residues fit in int64).
const Mod = 1_000_000_007

// NodeKind labels expression nodes.
type NodeKind uint8

// Node kinds.
const (
	Leaf NodeKind = iota // holds a constant
	Add                  // x + y
	Mul                  // x · y
)

// Expr is an expression over a full binary tree: every internal node has
// exactly two children.
type Expr struct {
	Tree *tree.Tree
	// Kind[v] labels vertex v; Val[v] is meaningful for leaves.
	Kind []NodeKind
	Val  []int64
}

// Validate checks the full-binary and labeling invariants.
func (e *Expr) Validate() error {
	t := e.Tree
	if len(e.Kind) != t.N() || len(e.Val) != t.N() {
		return fmt.Errorf("exprtree: label arrays do not match tree size")
	}
	for v := 0; v < t.N(); v++ {
		nc := t.NumChildren(v)
		switch e.Kind[v] {
		case Leaf:
			if nc != 0 {
				return fmt.Errorf("exprtree: leaf %d has %d children", v, nc)
			}
		case Add, Mul:
			if nc != 2 {
				return fmt.Errorf("exprtree: operator %d has %d children", v, nc)
			}
		default:
			return fmt.Errorf("exprtree: vertex %d has unknown kind", v)
		}
	}
	return nil
}

// Random returns a random expression with the given number of leaves
// (2·leaves-1 vertices): a Yule-shaped full binary tree with uniform
// leaf constants and operators.
func Random(leaves int, r *rng.RNG) *Expr {
	t := tree.Yule(leaves, r)
	e := &Expr{Tree: t, Kind: make([]NodeKind, t.N()), Val: make([]int64, t.N())}
	for v := 0; v < t.N(); v++ {
		if t.IsLeaf(v) {
			e.Kind[v] = Leaf
			e.Val[v] = int64(r.Intn(Mod))
		} else if r.Bool() {
			e.Kind[v] = Add
		} else {
			e.Kind[v] = Mul
		}
	}
	return e
}

// EvalSequential returns the value of every subtree, mod Mod. Host
// oracle.
func (e *Expr) EvalSequential() []int64 {
	t := e.Tree
	out := make([]int64, t.N())
	for _, v := range t.PostOrder() {
		switch e.Kind[v] {
		case Leaf:
			out[v] = e.Val[v] % Mod
		case Add:
			ch := t.Children(v)
			out[v] = (out[ch[0]] + out[ch[1]]) % Mod
		case Mul:
			ch := t.Children(v)
			out[v] = out[ch[0]] * out[ch[1]] % Mod
		}
	}
	return out
}

// EvalPreorder returns the value of e's root, mod Mod, in one reverse
// pass over tf's recorded preorder: once everything below a vertex is
// folded into it, the vertex folds into its parent under the parent's
// + or ×. It is the native serving backend's expression kernel. tf must
// be a treefix engine for a tree with e.Tree's parent array (the batch
// engine's SubmitExpr requires the expression's tree to be the shard's)
// and e must satisfy Validate; the result equals EvalSequential's root
// value.
func (e *Expr) EvalPreorder(tf *treefix.Engine) int64 {
	pre, parent := tf.Preorder()
	if len(pre) == 0 {
		return 0
	}
	val := make([]int64, len(pre))
	for v, k := range e.Kind {
		switch k {
		case Leaf:
			val[v] = e.Val[v] % Mod
		case Mul:
			val[v] = 1
		}
	}
	for i := len(pre) - 1; i > 0; i-- {
		p, x := parent[i], val[pre[i]]
		if e.Kind[p] == Add {
			val[p] = (val[p] + x) % Mod
		} else {
			val[p] = val[p] * x % Mod
		}
	}
	return val[pre[0]]
}

// Canonical returns the residue of v in [0, Mod). The evaluators reduce
// with Go's truncated %, so on negative leaf constants they can return
// representatives of one residue that differ by Mod; the batch engine
// serves this one, whichever backend evaluated the expression.
func Canonical(v int64) int64 {
	if v %= Mod; v < 0 {
		v += Mod
	}
	return v
}

// affine is the O(1)-word partial result f(x) = (A·x + B) mod Mod.
type affine struct{ a, b int64 }

func identityFn() affine { return affine{a: 1, b: 0} }

// apply evaluates f(x).
func (f affine) apply(x int64) int64 { return (f.a*x%Mod + f.b) % Mod }

// thenAddConst returns g(x) = f(x) + k (the parent op was +, sibling k).
func (f affine) thenAddConst(k int64) affine {
	return affine{a: f.a, b: (f.b + k) % Mod}
}

// thenMulConst returns g(x) = f(x) · k.
func (f affine) thenMulConst(k int64) affine {
	return affine{a: f.a * k % Mod, b: f.b * k % Mod}
}

// compose returns g∘f: first f (inner), then g (outer).
func (g affine) composeAfter(f affine) affine {
	return affine{a: g.a * f.a % Mod, b: (g.a*f.b%Mod + g.b) % Mod}
}

// Stats reports the contraction schedule.
type Stats struct {
	// Rounds is the number of rake rounds (O(log n)).
	Rounds int
	// Rakes counts raked leaves.
	Rakes int
}

// EvalSpatial evaluates the expression's root on the spatial computer:
// rank maps vertices to processor ranks (use a light-first placement for
// local messaging). Every rake exchanges O(1) messages between the
// leaf, its parent and its sibling; all rakes of a wave are issued as
// one oblivious batch.
func EvalSpatial(s *machine.Sim, e *Expr, rank []int) (int64, Stats) {
	t := e.Tree
	n := t.N()
	var st Stats
	if n == 0 {
		return 0, st
	}
	if n == 1 {
		return e.Val[t.Root()] % Mod, st
	}

	// Live binary-tree state, O(1) words per vertex.
	parent := append([]int(nil), t.Parents()...)
	left := make([]int, n)
	right := make([]int, n)
	fn := make([]affine, n)
	kind := append([]NodeKind(nil), e.Kind...)
	val := make([]int64, n)
	for v := 0; v < n; v++ {
		fn[v] = identityFn()
		val[v] = e.Val[v] % Mod
		left[v], right[v] = -1, -1
		if kind[v] != Leaf {
			ch := t.Children(v)
			left[v], right[v] = ch[0], ch[1]
		}
	}

	// Leaves in left-to-right (in-order) sequence.
	leaves := make([]int, 0, (n+1)/2)
	for _, v := range t.PreOrder() {
		if kind[v] == Leaf {
			leaves = append(leaves, v)
		}
	}

	pairs := make([][2]int, 0, n)
	// rakeWave rakes the given leaves (no two sharing a parent).
	rakeWave := func(wave []int, alive map[int]bool) {
		pairs = pairs[:0]
		for _, u := range wave {
			p := parent[u]
			// u ships f_u(c_u) to p; p composes and ships the combined
			// function to the sibling s.
			var sib int
			if left[p] == u {
				sib = right[p]
			} else {
				sib = left[p]
			}
			pairs = append(pairs, [2]int{rank[u], rank[p]}, [2]int{rank[p], rank[sib]})
		}
		s.SendBatch(pairs)
		for _, u := range wave {
			p := parent[u]
			var sib int
			if left[p] == u {
				sib = right[p]
			} else {
				sib = left[p]
			}
			k := fn[u].apply(val[u])
			var withSibling affine
			switch kind[p] {
			case Add:
				withSibling = fn[sib].thenAddConst(k)
			case Mul:
				withSibling = fn[sib].thenMulConst(k)
			default:
				panic("exprtree: rake under a leaf")
			}
			// value(p) = f_p(k ∘ raw(sib-subtree)) — the sibling now
			// stands for p.
			fn[sib] = fn[p].composeAfter(withSibling)
			gp := parent[p]
			parent[sib] = gp
			if gp != -1 {
				if left[gp] == p {
					left[gp] = sib
				} else {
					right[gp] = sib
				}
			}
			delete(alive, u)
			delete(alive, p)
			st.Rakes++
		}
	}

	alive := make(map[int]bool, n)
	for v := 0; v < n; v++ {
		alive[v] = true
	}
	for len(leaves) > 1 {
		st.Rounds++
		// Split the odd-numbered leaves by child side; rake the two
		// sides as separate waves (Miller-Reif schedule). No two
		// odd-numbered leaves share a parent — sibling leaves are
		// consecutive in the left-to-right leaf order, so one of them
		// is even — which makes each wave conflict-free.
		var lefts, rights []int
		pSnap := make(map[int]int, len(leaves)/2)
		for i, u := range leaves {
			if i%2 == 0 && parent[u] != -1 { // odd in 1-based counting
				pSnap[u] = parent[u]
				if left[parent[u]] == u {
					lefts = append(lefts, u)
				} else {
					rights = append(rights, u)
				}
			}
		}
		rakeWave(lefts, alive)
		// Guard (never triggered by the parity argument, but cheap): a
		// right leaf whose parent edge changed this round waits.
		pending := rights[:0]
		for _, u := range rights {
			if alive[parent[u]] && parent[u] == pSnap[u] {
				pending = append(pending, u)
			}
		}
		rakeWave(pending, alive)
		// Surviving leaves keep their relative order.
		next := leaves[:0]
		for _, u := range leaves {
			if alive[u] {
				next = append(next, u)
			}
		}
		leaves = next
	}
	root := leaves[0]
	return fn[root].apply(val[root]), st
}
