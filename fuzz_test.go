package spatialtree

// Native fuzz targets for the two validated entry points of the
// library: tree construction from untrusted parent arrays and the
// space-filling-curve bijections. Seed corpora live in testdata/fuzz;
// CI runs a short -fuzz smoke pass on both targets.

import (
	"bytes"
	"reflect"
	"testing"

	"spatialtree/internal/lca"
	"spatialtree/internal/order"
	"spatialtree/internal/persist"
	"spatialtree/internal/rng"
	"spatialtree/internal/sfc"
	"spatialtree/internal/treefix"
	"spatialtree/internal/wire"
)

// fuzzParents decodes fuzz bytes into a parent array: one signed byte
// per vertex, so the fuzzer can reach valid trees (parents < n), the
// root marker (-1), and out-of-range/cyclic garbage with equal ease.
func fuzzParents(data []byte) []int {
	if len(data) > 512 {
		data = data[:512]
	}
	parents := make([]int, len(data))
	for i, b := range data {
		parents[i] = int(int8(b))
	}
	return parents
}

// FuzzFromParents asserts NewTree never panics: any byte string decodes
// to either an error or a tree satisfying the structural invariants.
func FuzzFromParents(f *testing.F) {
	f.Add([]byte{})                             // empty tree
	f.Add([]byte{0xff})                         // single root
	f.Add([]byte{0xff, 0x00, 0x00, 0x01, 0x01}) // valid binary tree
	f.Add([]byte{0x01, 0xff, 0x01})             // root in the middle
	f.Add([]byte{0x00, 0x01})                   // 2-cycle, no root
	f.Add([]byte{0xff, 0x05})                   // out-of-range parent
	f.Add([]byte{0xff, 0xfe, 0x00})             // negative non-root marker
	f.Add([]byte{0xff, 0xff})                   // two roots
	f.Fuzz(func(t *testing.T, data []byte) {
		parents := fuzzParents(data)
		tr, err := NewTree(parents)
		if err != nil {
			return // rejected: that is a valid outcome for garbage
		}
		n := tr.N()
		if n != len(parents) {
			t.Fatalf("N() = %d, want %d", n, len(parents))
		}
		if n == 0 {
			return
		}
		// Accepted trees must satisfy the invariants every algorithm
		// relies on: a single root, every vertex reaching it, children
		// lists consistent with the parent array, and traversals
		// covering all vertices exactly once.
		root := tr.Root()
		if root < 0 || root >= n || tr.Parent(root) != -1 {
			t.Fatalf("bad root %d", root)
		}
		for v := 0; v < n; v++ {
			steps := 0
			for u := v; u != root; u = tr.Parent(u) {
				if steps++; steps > n {
					t.Fatalf("vertex %d does not reach the root", v)
				}
			}
			for _, c := range tr.Children(v) {
				if tr.Parent(c) != v {
					t.Fatalf("child %d of %d has parent %d", c, v, tr.Parent(c))
				}
			}
		}
		if got := len(tr.PostOrder()); got != n {
			t.Fatalf("post-order visits %d of %d vertices", got, n)
		}
		if sz := tr.SubtreeSizes(); sz[root] != n {
			t.Fatalf("root subtree size %d, want %d", sz[root], n)
		}
		if o := order.LightFirst(tr); !o.IsPermutation() {
			t.Fatal("light-first order is not a permutation")
		}
		// Round trip: the accepted tree's own parent array must be
		// accepted again and fingerprint identically.
		clone, err := NewTree(tr.Parents())
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if TreeFingerprint(clone) != TreeFingerprint(tr) {
			t.Fatal("round trip changed the fingerprint")
		}
	})
}

// FuzzDynMutation drives random insert/delete sequences through the
// dynamic layout and asserts, after every mutation, the invariants the
// engine's mutable serving path relies on: positions stay injective
// inside the grid, the free-slot accounting (used[]) matches the
// position assignment, the parent/children mirrors agree, and snapshots
// validate as trees (all via CheckInvariants); invalid mutations return
// errors instead of panicking; and immediately after a rebuild the
// kernel energy is within a constant factor of a fresh light-first
// layout's.
//
// Byte encoding: data[0] picks the starting tree size; each following
// byte is one mutation — high bit set deletes vertex b&0x7f mod n
// (possibly invalid on purpose), otherwise inserts a leaf under b mod n.
func FuzzDynMutation(f *testing.F) {
	f.Add([]byte{5, 0, 1, 2, 3, 4})                                  // inserts only
	f.Add([]byte{8, 0x81, 0x87, 2, 0x80, 1, 0x9f, 3})                // mixed, some invalid deletes
	f.Add([]byte{2, 0, 0x81, 0, 0x81, 0, 0x81})                      // insert/delete churn on a tiny tree
	f.Add([]byte{30, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}) // drift toward a rebuild
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > 256 {
			data = data[:256]
		}
		n := int(data[0])%30 + 2
		d, err := NewDynamicLayout(RandomTree(n, 1), "hilbert", 0.25)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range data[1:] {
			rebuildsBefore := d.Rebuilds
			if b&0x80 != 0 {
				// Deletions may legitimately fail (root, internal
				// vertex); the contract is error-not-panic.
				d.DeleteLeaf(int(b&0x7f) % d.N())
			} else {
				if _, err := d.InsertLeaf(int(b) % d.N()); err != nil {
					t.Fatalf("insert under valid parent failed: %v", err)
				}
			}
			if err := d.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if d.Rebuilds > rebuildsBefore {
				fresh, err := d.FreshKernelCost()
				if err != nil {
					t.Fatal(err)
				}
				if got := d.KernelCost(); fresh.Energy > 0 && got.Energy > 4*fresh.Energy {
					t.Fatalf("post-rebuild kernel %d exceeds 4x fresh optimum %d (n=%d)",
						got.Energy, fresh.Energy, d.N())
				}
			}
		}
	})
}

// FuzzSnapshotDecode asserts the persistence codec's contract on
// untrusted bytes: persist.Decode either rejects the input with a typed
// error (ErrCorrupt / ErrVersion) or returns a snapshot whose
// re-encoding decodes back to the same value — and it never panics,
// never allocates in proportion to a forged length field (every count
// is bounded by the bytes actually present), and public LoadSnapshot
// agrees on acceptance for placement frames.
func FuzzSnapshotDecode(f *testing.F) {
	placement := persist.EncodePlacement(persist.PlacementSnapshot{
		Parents: []int{-1, 0, 0, 1, 1},
		Curve:   "hilbert",
		Order:   "light-first",
		Side:    4,
		Ranks:   []int{0, 1, 2, 3, 4},
	})
	dyn := persist.EncodeDyn(persist.DynSnapshot{
		Parents: []int{-1, 0, 0},
		Curve:   "zorder",
		Side:    4,
		Ranks:   []int{0, 2, 9},
		Epsilon: 0.25,
		Epoch:   3,
		Inserts: 2, Deletes: 1,
	})
	f.Add(placement)
	f.Add(dyn)
	f.Add([]byte{})
	f.Add([]byte("STSN"))
	f.Add(placement[:headerTruncLen(placement)])
	corrupt := append([]byte(nil), dyn...)
	corrupt[len(corrupt)-2] ^= 0xff
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := persist.Decode(data)
		if err != nil {
			return // rejection is the valid outcome for garbage
		}
		// Accepted frames must round-trip through a re-encode.
		switch s := v.(type) {
		case persist.PlacementSnapshot:
			again, err := persist.DecodePlacement(persist.EncodePlacement(s))
			if err != nil {
				t.Fatalf("re-encode rejected: %v", err)
			}
			if !reflect.DeepEqual(again, s) {
				t.Fatalf("round trip changed the snapshot: %+v vs %+v", again, s)
			}
			// The public loader must not panic either; it may still
			// reject (its tree/rank validation is stricter).
			_, _ = LoadSnapshot(bytes.NewReader(data))
		case persist.DynSnapshot:
			again, err := persist.DecodeDyn(persist.EncodeDyn(s))
			if err != nil {
				t.Fatalf("re-encode rejected: %v", err)
			}
			if !reflect.DeepEqual(again, s) {
				t.Fatalf("round trip changed the snapshot: %+v vs %+v", again, s)
			}
		default:
			t.Fatalf("Decode returned unexpected type %T", v)
		}
	})
}

// FuzzWireDecode asserts the binary serving protocol's contract on
// untrusted bytes: the frame reader and the payload decoders either
// reject input with a typed error (ErrCorrupt / ErrVersion /
// ErrTooLarge) or accept a frame whose decoded value re-encodes
// canonically — AppendX over the decoded value reproduces a frame that
// decodes identically. They never panic and never allocate in
// proportion to a forged count (every count is bounded by the bytes
// actually present). This is the adversarial counterpart of the
// server's TCP listener, which feeds network bytes to exactly this
// code.
func FuzzWireDecode(f *testing.F) {
	f.Add(wire.AppendPing(nil))
	f.Add(wire.AppendQuery(nil, &wire.Query{
		ID: 3, Kind: wire.KindTreefix, TreeID: "t12ab", Op: "max", Vals: []int64{5, -2, 0},
	}))
	f.Add(wire.AppendQuery(nil, &wire.Query{
		ID: 4, Kind: wire.KindLCA, Parents: []int{-1, 0, 0},
		Queries: []wire.LCAQuery{{U: 1, V: 2}},
	}))
	f.Add(wire.AppendQuery(nil, &wire.Query{
		ID: 5, Kind: wire.KindMinCut, Parents: []int{-1, 0, 1},
		Edges: []wire.Edge{{U: 0, V: 2, W: 7}},
	}))
	f.Add(wire.AppendQuery(nil, &wire.Query{
		ID: 6, Kind: wire.KindExpr, TreeID: "t0", ExprKinds: []uint8{1, 0, 0}, Vals: []int64{0, 2, 3},
	}))
	f.Add(wire.AppendResult(nil, &wire.Result{
		ID: 3, Kind: wire.KindTreefix, Sums: []int64{5, 3, 0},
		Cost: wire.Cost{Energy: 10, Messages: 4, Depth: 2},
	}))
	f.Add(wire.AppendError(nil, &wire.Error{ID: 9, Status: wire.StatusTooMany, Msg: "request queue full"}))
	f.Add([]byte("STWR"))     // truncated header
	f.Add([]byte("STSN\x01")) // the persist magic, not ours
	corruptFrame := wire.AppendPong(nil)
	corruptFrame[len(corruptFrame)-1] ^= 0xff
	f.Add(corruptFrame)
	two := wire.AppendPing(wire.AppendPong(nil)) // two frames back to back
	f.Add(two)
	f.Fuzz(func(t *testing.T, data []byte) {
		rd := wire.NewReader(bytes.NewReader(data), 1<<20)
		for {
			kind, payload, err := rd.Next()
			if err != nil {
				return // typed rejection or EOF: the valid outcome for garbage
			}
			switch kind {
			case wire.FrameQuery:
				var q wire.Query
				if q.Decode(payload) != nil {
					continue
				}
				frame := wire.AppendQuery(nil, &q)
				var q2 wire.Query
				roundTripPayload(t, frame, &q2)
				if again := wire.AppendQuery(nil, &q2); !bytes.Equal(frame, again) {
					t.Fatalf("query re-encode not canonical:\n %x\n %x", frame, again)
				}
			case wire.FrameResult:
				var r wire.Result
				if r.Decode(payload) != nil {
					continue
				}
				frame := wire.AppendResult(nil, &r)
				var r2 wire.Result
				roundTripPayload(t, frame, &r2)
				if again := wire.AppendResult(nil, &r2); !bytes.Equal(frame, again) {
					t.Fatalf("result re-encode not canonical:\n %x\n %x", frame, again)
				}
			case wire.FrameError:
				var e wire.Error
				if e.Decode(payload) != nil {
					continue
				}
				if !bytes.Equal(wire.AppendError(nil, &e), wire.AppendError(nil, &e)) {
					t.Fatal("error encoding not deterministic")
				}
			}
		}
	})
}

// roundTripPayload re-parses a just-encoded frame and decodes its
// payload into out (a *wire.Query or *wire.Result); encode must always
// produce frames our own reader accepts.
func roundTripPayload(t *testing.T, frame []byte, out interface{ Decode([]byte) error }) {
	t.Helper()
	rd := wire.NewReader(bytes.NewReader(frame), 1<<20)
	_, payload, err := rd.Next()
	if err != nil {
		t.Fatalf("our own encoding rejected: %v", err)
	}
	if err := out.Decode(payload); err != nil {
		t.Fatalf("our own payload rejected: %v", err)
	}
}

func headerTruncLen(frame []byte) int {
	if len(frame) < 10 {
		return len(frame)
	}
	return 10
}

// FuzzNativeTreefix differential-fuzzes the native treefix executor:
// any parent array the tree validator accepts, under any registered
// operator and any value assignment, must produce exactly the
// sequential oracle's bottom-up and top-down folds, at one worker and
// at four. Fuzzed trees stay below treefix.ParallelMin, so both runs
// take the one-pass; the split pass is pinned by the treefix package's
// TestEngineSplit and TestEngineGeneralOps. The native LCA engine built
// from the same preorder must match LCAOracle on pairs spread over the
// tree, u = v included.
func FuzzNativeTreefix(f *testing.F) {
	f.Add([]byte{0xff}, byte(0), uint64(1))                               // single vertex, add
	f.Add([]byte{0xff, 0x00, 0x00, 0x01, 0x01}, byte(1), uint64(2))       // binary tree, max
	f.Add([]byte{0xff, 0x00, 0x01, 0x02, 0x03, 0x04}, byte(2), uint64(3)) // path, min
	f.Add([]byte{0x02, 0x02, 0xff, 0x02, 0x02}, byte(3), uint64(4))       // star, root mid-array, xor
	f.Add([]byte{0x01, 0xff, 0x01, 0x02, 0x02, 0x03}, byte(0), uint64(5)) // parent ids above child ids
	f.Fuzz(func(t *testing.T, data []byte, opIdx byte, valSeed uint64) {
		parents := fuzzParents(data)
		tr, err := NewTree(parents)
		if err != nil || tr.N() == 0 {
			return // garbage or empty: nothing to differentiate
		}
		ops := []Op{OpAdd, OpMax, OpMin, OpXor}
		op := ops[int(opIdx)%len(ops)]
		r := rng.New(valSeed)
		vals := make([]int64, tr.N())
		for i := range vals {
			vals[i] = int64(r.Intn(4001)) - 2000
		}
		wantBU := treefix.SequentialBottomUp(tr, vals, op)
		wantTD := treefix.SequentialTopDown(tr, vals, op)
		oracle := LCAOracle(tr)
		for _, workers := range []int{1, 4} {
			e := ParallelTreefixEngine(tr, workers)
			gotBU, err := e.BottomUp(vals, op)
			if err != nil {
				t.Fatalf("bottom-up w=%d: %v", workers, err)
			}
			gotTD, err := e.TopDown(vals, op)
			if err != nil {
				t.Fatalf("top-down w=%d: %v", workers, err)
			}
			for v := 0; v < tr.N(); v++ {
				if gotBU[v] != wantBU[v] {
					t.Fatalf("op=%s w=%d bottom-up[%d] = %d, oracle %d", op.Name, workers, v, gotBU[v], wantBU[v])
				}
				if gotTD[v] != wantTD[v] {
					t.Fatalf("op=%s w=%d top-down[%d] = %d, oracle %d", op.Name, workers, v, gotTD[v], wantTD[v])
				}
			}
			var qs []lca.Query
			for u := 0; u < tr.N(); u++ {
				for v := u; v < tr.N(); v += 1 + tr.N()/64 {
					qs = append(qs, lca.Query{U: u, V: v})
				}
			}
			got := lca.NewEngine(e, workers).BatchLCA(qs)
			for i, q := range qs {
				if want := oracle.LCA(q.U, q.V); got[i] != want {
					t.Fatalf("w=%d LCA(%d, %d) = %d, oracle %d", workers, q.U, q.V, got[i], want)
				}
			}
		}
	})
}

// FuzzCurveRoundTrip asserts that every registered curve is a bijection
// in both directions on legal grids: XY(Index(p)) == p for in-grid
// points p, and Index(XY(i)) == i for in-range ranks i.
func FuzzCurveRoundTrip(f *testing.F) {
	f.Add(uint16(1), uint32(0))
	f.Add(uint16(2), uint32(3))
	f.Add(uint16(16), uint32(255))
	f.Add(uint16(257), uint32(66049)) // forces side 3^k on Peano, 2^k elsewhere
	f.Add(uint16(1000), uint32(999999))
	f.Fuzz(func(t *testing.T, n uint16, idx uint32) {
		points := int(n)
		if points == 0 {
			points = 1
		}
		for _, c := range sfc.Registry() {
			side := c.Side(points)
			if side*side < points {
				t.Fatalf("%s: Side(%d) = %d too small", c.Name(), points, side)
			}
			i := int(idx) % (side * side)
			x, y := c.XY(i, side)
			if x < 0 || x >= side || y < 0 || y >= side {
				t.Fatalf("%s: XY(%d, %d) = (%d,%d) off grid", c.Name(), i, side, x, y)
			}
			if back := c.Index(x, y, side); back != i {
				t.Fatalf("%s: Index(XY(%d)) = %d", c.Name(), i, back)
			}
			// Point(Rank(p)) == p for an arbitrary in-grid point p.
			px, py := int(idx)%side, (int(idx)/side)%side
			r := c.Index(px, py, side)
			if r < 0 || r >= side*side {
				t.Fatalf("%s: Index(%d,%d,%d) = %d out of range", c.Name(), px, py, side, r)
			}
			if bx, by := c.XY(r, side); bx != px || by != py {
				t.Fatalf("%s: XY(Index(%d,%d)) = (%d,%d)", c.Name(), px, py, bx, by)
			}
		}
	})
}
