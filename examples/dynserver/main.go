// Dynserver: serve a tree that changes while it is being queried — the
// paper's §VII future-work direction wired into the batched engine.
// A DynEngine owns a dynamically maintained layout; leaf inserts and
// deletes land between batches in O(1) parked moves (amortized rebuilds
// every εn mutations), instead of the from-scratch light-first rebuild
// a static engine would need per mutation. Each mutation bumps the
// placement epoch, and the next submission serves a placement refreshed
// for it, so a stale placement can never serve a mutated tree.
package main

import (
	"fmt"

	spatialtree "spatialtree"
)

func main() {
	const n = 1 << 12
	t := spatialtree.RandomTree(n, 7)

	eng, err := spatialtree.NewDynEngine(t, spatialtree.DynEngineOptions{
		Options: spatialtree.EngineOptions{Curve: "hilbert", Window: 16},
		Epsilon: 0.2,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("dyn engine: n=%d epoch=%d\n", eng.N(), eng.Epoch())

	// Query the initial tree.
	ones := make([]int64, eng.N())
	for i := range ones {
		ones[i] = 1
	}
	if res := eng.SubmitTreefix(ones, spatialtree.OpAdd).Wait(); res.Err != nil {
		panic(res.Err)
	} else {
		fmt.Printf("epoch %d: root subtree sum = %d\n", eng.Epoch(), res.Sums[t.Root()])
	}

	// Mutate while serving: grow a fresh branch, prune part of it, and
	// query between bursts. Futures submitted before a mutation resolve
	// against the tree they were submitted to.
	branch := make([]int, 0, 64)
	parent := 0
	for i := 0; i < 64; i++ {
		v, err := eng.InsertLeaf(parent)
		if err != nil {
			panic(err)
		}
		branch = append(branch, v)
		parent = v // chain: each new leaf hangs off the previous one
	}
	queries := []spatialtree.Query{
		{U: branch[0], V: branch[len(branch)-1]}, // along the new chain
		{U: branch[len(branch)/2], V: 0},
	}
	if res := eng.SubmitLCA(queries).Wait(); res.Err != nil {
		panic(res.Err)
	} else {
		fmt.Printf("epoch %d: lca(chain head, chain tail) = %d, lca(mid, root) = %d\n",
			eng.Epoch(), res.Answers[0], res.Answers[1])
	}

	// Prune the tip of the chain leaf by leaf (only leaves can go).
	for i := 0; i < 32; i++ {
		tip := branch[len(branch)-1]
		if _, err := eng.DeleteLeaf(tip); err != nil {
			panic(err)
		}
		branch = branch[:len(branch)-1]
	}
	ones = make([]int64, eng.N())
	for i := range ones {
		ones[i] = 1
	}
	if res := eng.SubmitTreefix(ones, spatialtree.OpAdd).Wait(); res.Err != nil {
		panic(res.Err)
	} else {
		cur, err := eng.Tree()
		if err != nil {
			panic(err)
		}
		fmt.Printf("epoch %d: n=%d root subtree sum = %d\n", eng.Epoch(), eng.N(), res.Sums[cur.Root()])
	}

	st := eng.Stats()
	fmt.Printf("mutations: %d inserts, %d deletes in %d epochs\n", st.Inserts, st.Deletes, st.Epoch)
	fmt.Printf("maintenance: %d serving refreshes, %d full layout rebuilds, park-energy=%d migrate-energy=%d\n",
		st.Refreshes, st.Rebuilds, st.ParkEnergy, st.MigrateEnergy)
	fmt.Printf("serving: %d requests in %d batches\n", st.Engine.Requests, st.Engine.Batches)
}
