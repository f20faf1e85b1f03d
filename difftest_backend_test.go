package spatialtree

// Backend-differential suite: the execution-backend layer must be
// invisible to results. Every kernel the engine serves — bottom-up and
// top-down treefix (all four registered operators), batched LCA,
// 1-respecting min-cut, expression evaluation — is computed through
// both backends on identical inputs and compared against the host
// oracles: native ≡ sim ≡ sequential.
//
// The native arm runs at every size; the direct native-vs-sim engine
// comparison caps at 257 vertices (simulator runs dominate test time,
// and the larger sim sizes are already exercised by difftest_test.go —
// both arms are pinned to the same oracle either way).

import (
	"fmt"
	"testing"

	"spatialtree/internal/engine"
	"spatialtree/internal/exec"
	"spatialtree/internal/exprtree"
	"spatialtree/internal/mincut"
	"spatialtree/internal/rng"
	"spatialtree/internal/treefix"
)

// backendEngines builds one engine per backend for tr; sim is omitted
// for n beyond simMax.
func backendEngines(t *testing.T, tr *Tree, seed uint64, simMax int) map[string]*engine.Engine {
	t.Helper()
	engines := map[string]*engine.Engine{}
	for _, name := range exec.Names() {
		if name == exec.Sim && tr.N() > simMax {
			continue
		}
		eng, err := engine.New(tr, engine.Options{Backend: name, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		engines[name] = eng
	}
	return engines
}

const diffSimMax = 257

// TestBackendDifferentialTreefix runs every diffSizes size, and the
// native arm alone on both sides of treefix.ParallelMin, where a native
// engine with more than one worker starts splitting its passes.
func TestBackendDifferentialTreefix(t *testing.T) {
	sizes := append(diffSizes[:len(diffSizes):len(diffSizes)],
		treefix.ParallelMin-1, treefix.ParallelMin, treefix.ParallelMin+1)
	for _, n := range sizes {
		seeds := diffSeeds
		if n >= treefix.ParallelMin-1 {
			seeds = diffSeeds[:1]
		}
		for _, seed := range seeds {
			for ti, tr := range diffTrees(n, seed) {
				engines := backendEngines(t, tr, seed, diffSimMax)
				for _, op := range diffOps {
					label := fmt.Sprintf("n=%d seed=%d tree=%d op=%s", n, seed, ti, op.Name)
					vals := diffVals(tr.N(), seed+uint64(ti)+13)
					wantBU := SequentialTreefix(tr, vals, op)
					wantTD := treefix.SequentialTopDown(tr, vals, op)
					for name, eng := range engines {
						bu := eng.SubmitTreefix(vals, op)
						td := eng.SubmitTopDown(vals, op)
						resBU, resTD := bu.Wait(), td.Wait()
						if resBU.Err != nil || resTD.Err != nil {
							t.Fatalf("%s backend=%s: %v / %v", label, name, resBU.Err, resTD.Err)
						}
						assertInt64s(t, label+" "+name+"-bottomup", resBU.Sums, wantBU)
						assertInt64s(t, label+" "+name+"-topdown", resTD.Sums, wantTD)
					}
				}
			}
		}
	}
}

func TestBackendDifferentialLCAMinCutExpr(t *testing.T) {
	for _, n := range diffSizes {
		for _, seed := range diffSeeds {
			for ti, tr := range diffTrees(n, seed) {
				label := fmt.Sprintf("n=%d seed=%d tree=%d", n, seed, ti)
				engines := backendEngines(t, tr, seed, diffSimMax)

				qr := rng.New(seed + uint64(ti)*17)
				queries := make([]Query, tr.N()/2)
				for i := range queries {
					queries[i] = Query{U: qr.Intn(tr.N()), V: qr.Intn(tr.N())}
				}
				oracle := LCAOracle(tr)
				edges := mincut.RandomGraph(tr, tr.N()/2, 12, rng.New(seed+5))
				wantCut := mincut.OneRespectingSequential(tr, edges)

				for name, eng := range engines {
					futL := eng.SubmitLCA(queries)
					futC := eng.SubmitMinCut(edges)
					resL, resC := futL.Wait(), futC.Wait()
					if resL.Err != nil || resC.Err != nil {
						t.Fatalf("%s backend=%s: %v / %v", label, name, resL.Err, resC.Err)
					}
					for i, q := range queries {
						if want := oracle.LCA(q.U, q.V); resL.Answers[i] != want {
							t.Fatalf("%s backend=%s query %d: %d, want %d", label, name, i, resL.Answers[i], want)
						}
					}
					assertInt64s(t, label+" "+name+"-cuts", resC.MinCut.Cuts, wantCut.Cuts)
					if resC.MinCut.MinWeight != wantCut.MinWeight || resC.MinCut.ArgVertex != wantCut.ArgVertex {
						t.Fatalf("%s backend=%s: cut (%d, v%d), want (%d, v%d)", label, name,
							resC.MinCut.MinWeight, resC.MinCut.ArgVertex, wantCut.MinWeight, wantCut.ArgVertex)
					}
				}
			}
		}
	}
	for _, leaves := range []int{8, 129, 512} {
		x := RandomExpression(leaves, 21)
		// Negated leaf constants: the evaluators' truncated remainders
		// then pick representatives that differ by Mod, and every backend
		// must still serve the same residue.
		neg := *x
		neg.Val = make([]int64, len(x.Val))
		for v, c := range x.Val {
			neg.Val[v] = -c
		}
		engines := backendEngines(t, x.Tree, 3, diffSimMax)
		for _, x := range []*Expression{x, &neg} {
			want := exprtree.Canonical(x.EvalSequential()[x.Tree.Root()])
			for name, eng := range engines {
				res := eng.SubmitExpr(x).Wait()
				if res.Err != nil {
					t.Fatal(res.Err)
				}
				if res.Value != want {
					t.Fatalf("leaves=%d backend=%s: expr %d, want %d", leaves, name, res.Value, want)
				}
			}
		}
	}
}

// TestBackendDifferentialMixedBatch coalesces a mixed batch on each
// backend — the serving shape, where one flush carries several kinds —
// and pins every future to the oracles.
func TestBackendDifferentialMixedBatch(t *testing.T) {
	tr := RandomTree(257, 41)
	n := tr.N()
	vals := diffVals(n, 42)
	qr := rng.New(43)
	queries := make([]Query, 32)
	for i := range queries {
		queries[i] = Query{U: qr.Intn(n), V: qr.Intn(n)}
	}
	edges := mincut.RandomGraph(tr, n/2, 7, rng.New(44))
	wantBU := SequentialTreefix(tr, vals, OpMax)
	oracle := LCAOracle(tr)
	wantCut := mincut.OneRespectingSequential(tr, edges)
	for _, name := range exec.Names() {
		eng, err := engine.New(tr, engine.Options{Backend: name, Seed: 9, Window: 16})
		if err != nil {
			t.Fatal(err)
		}
		futB := eng.SubmitTreefix(vals, OpMax)
		futQ1 := eng.SubmitLCA(queries[:16])
		futQ2 := eng.SubmitLCA(queries[16:])
		futC := eng.SubmitMinCut(edges)
		eng.Flush()
		if res := futB.Wait(); res.Err != nil || !equalInt64s(res.Sums, wantBU) {
			t.Fatalf("backend=%s treefix: err=%v", name, res.Err)
		}
		answers := append(append([]int(nil), futQ1.Wait().Answers...), futQ2.Wait().Answers...)
		for i, q := range queries {
			if want := oracle.LCA(q.U, q.V); answers[i] != want {
				t.Fatalf("backend=%s coalesced query %d: %d, want %d", name, i, answers[i], want)
			}
		}
		if res := futC.Wait(); res.Err != nil || res.MinCut.MinWeight != wantCut.MinWeight {
			t.Fatalf("backend=%s mincut: err=%v", name, res.Err)
		}
	}
}

func equalInt64s(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
