package spatialtree

// Golden model costs: the sim backend's Energy, Messages and Depth are
// the paper reproduction's numbers, so a refactor that is meant to
// leave the simulator alone must leave them bit-identical. The test
// drives seeded sim engines and a seeded sim DynEngine through every
// kernel and operator from one goroutine (so batch boundaries are
// deterministic), folds each answer, per-request Cost and the final
// Stats into a digest per case, and compares the digests with
// testdata/model_costs.golden. A change that moves a digest must say
// why; if a Go upgrade moves one, find the tie whose order changed and
// make that order explicit.

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spatialtree/internal/engine"
	"spatialtree/internal/exec"
	"spatialtree/internal/lca"
	"spatialtree/internal/mincut"
	"spatialtree/internal/rng"
)

const modelCostsGolden = "model_costs.golden"

func TestGoldenModelCosts(t *testing.T) {
	want := readModelCostsGolden(t)
	var got []string
	check := func(name, digest string) {
		got = append(got, name+" "+digest)
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no golden digest (got %s)", name, digest)
		} else if w != digest {
			t.Errorf("%s: digest %s, golden %s", name, digest, w)
		}
	}
	for _, c := range []struct {
		name  string
		tr    *Tree
		curve string
	}{
		{"static/random/n=64/hilbert", RandomTree(64, 1), "hilbert"},
		{"static/random/n=257/hilbert", RandomTree(257, 2), "hilbert"},
		{"static/binary/n=257/zorder", RandomBinaryTree(257, 3), "zorder"},
		{"static/random/n=1024/hilbert", RandomTree(1024, 4), "hilbert"},
	} {
		check(c.name, staticModelDigest(t, c.tr, c.curve))
	}
	check("static/expr/leaves=129", exprModelDigest(t, 129))
	check("dyn/random/n=400", dynModelDigest(t, 400))
	if len(got) != len(want) {
		t.Errorf("golden file has %d cases, the test ran %d", len(want), len(got))
	}
	if t.Failed() {
		t.Logf("digests of this run (testdata/%s format):\n%s", modelCostsGolden, strings.Join(got, "\n"))
	}
}

func readModelCostsGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", modelCostsGolden))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, digest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		want[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// costDigest accumulates a case's transcript.
type costDigest struct {
	t *testing.T
	h hash.Hash
}

func newCostDigest(t *testing.T) *costDigest { return &costDigest{t: t, h: sha256.New()} }

// result folds one resolved request: every answer field and its Cost.
func (d *costDigest) result(label string, f *engine.Future) {
	d.t.Helper()
	res := f.Wait()
	if res.Err != nil {
		d.t.Fatalf("%s: %v", label, res.Err)
	}
	fmt.Fprintf(d.h, "%s sums=%v answers=%v cut=%+v value=%d cost=%+v\n",
		label, res.Sums, res.Answers, res.MinCut, res.Value, res.Cost)
}

func (d *costDigest) line(format string, args ...any) { fmt.Fprintf(d.h, format+"\n", args...) }

func (d *costDigest) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

func goldenQueries(n, k int, r *rng.RNG) []lca.Query {
	qs := make([]lca.Query, k)
	for i := range qs {
		qs[i] = lca.Query{U: r.Intn(n), V: r.Intn(n)}
	}
	return qs
}

// staticModelDigest runs two batches on a sim engine: every treefix
// operator in both directions, two coalesced LCA requests and a min-cut
// (a size flush at the window, then an explicit Flush), and an
// idle-dispatched LCA plus treefix batch run by Future.Wait.
func staticModelDigest(t *testing.T, tr *Tree, curve string) string {
	eng, err := engine.New(tr, engine.Options{Backend: exec.Sim, Curve: curve, Seed: 7, Window: 6})
	if err != nil {
		t.Fatal(err)
	}
	d := newCostDigest(t)
	n := tr.N()
	r := rng.New(uint64(n))
	vals := diffVals(n, uint64(n)+1)
	var futs []*engine.Future
	var labels []string
	add := func(label string, f *engine.Future) {
		labels = append(labels, label)
		futs = append(futs, f)
	}
	for _, op := range diffOps {
		add("bottomup/"+op.Name, eng.SubmitTreefix(vals, op))
		add("topdown/"+op.Name, eng.SubmitTopDown(vals, op))
	}
	add("lca/a", eng.SubmitLCA(goldenQueries(n, 24, r)))
	add("lca/b", eng.SubmitLCA(goldenQueries(n, 9, r)))
	add("mincut", eng.SubmitMinCut(mincut.RandomGraph(tr, n/2, 12, rng.New(uint64(n)+2))))
	eng.Flush()
	add("lca/idle", eng.SubmitLCA(goldenQueries(n, 5, r)))
	add("bottomup/idle", eng.SubmitTreefix(vals, OpAdd))
	for i, f := range futs {
		d.result(labels[i], f)
	}
	d.line("stats=%+v", eng.Stats())
	return d.sum()
}

// exprModelDigest evaluates a random expression and its negation (the
// leaf constants whose remainders differ by Mod) in one batch beside a
// treefix request on the expression's tree.
func exprModelDigest(t *testing.T, leaves int) string {
	x := RandomExpression(leaves, 21)
	neg := *x
	neg.Val = make([]int64, len(x.Val))
	for v, c := range x.Val {
		neg.Val[v] = -c
	}
	eng, err := engine.New(x.Tree, engine.Options{Backend: exec.Sim, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	d := newCostDigest(t)
	fx := eng.SubmitExpr(x)
	fn := eng.SubmitExpr(&neg)
	ft := eng.SubmitTreefix(diffVals(x.Tree.N(), 5), OpMax)
	eng.Flush()
	d.result("expr", fx)
	d.result("expr/neg", fn)
	d.result("bottomup/max", ft)
	d.line("stats=%+v", eng.Stats())
	return d.sum()
}

// dynModelDigest interleaves seeded inserts and deletes with query
// batches on a sim DynEngine whose window of 3 makes the third request
// of each round a size flush and the rest idle dispatches; every fourth
// round adds a min-cut.
func dynModelDigest(t *testing.T, n int) string {
	de, err := engine.NewDyn(RandomTree(n, 8), engine.DynOptions{
		Options: engine.Options{Backend: exec.Sim, Seed: 11, Window: 3},
		Epsilon: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := newCostDigest(t)
	r := rng.New(12)
	for round := 0; round < 40; round++ {
		for m := 0; m < 2; m++ {
			if v := r.Intn(de.N()); r.Intn(2) == 0 && de.IsLeaf(v) && v != 0 {
				moved, err := de.DeleteLeaf(v)
				if err != nil {
					t.Fatalf("round %d: delete %d: %v", round, v, err)
				}
				d.line("delete %d moved=%d epoch=%d", v, moved, de.Epoch())
			} else {
				p := r.Intn(de.N())
				v, err := de.InsertLeaf(p)
				if err != nil {
					t.Fatalf("round %d: insert under %d: %v", round, p, err)
				}
				d.line("insert %d under %d epoch=%d", v, p, de.Epoch())
			}
		}
		cur := de.N()
		fb := de.SubmitTreefix(diffVals(cur, uint64(round)), OpAdd)
		fl := de.SubmitLCA(goldenQueries(cur, 8, r))
		fl2 := de.SubmitLCA(goldenQueries(cur, 3, r))
		ft := de.SubmitTopDown(diffVals(cur, uint64(round)+100), OpMax)
		label := fmt.Sprintf("round %d ", round)
		d.result(label+"bottomup/add", fb)
		d.result(label+"lca/a", fl)
		d.result(label+"lca/b", fl2)
		d.result(label+"topdown/max", ft)
		if round%4 == 3 {
			tr, err := de.Tree()
			if err != nil {
				t.Fatal(err)
			}
			d.result(label+"mincut", de.SubmitMinCut(mincut.RandomGraph(tr, cur/2, 9, rng.New(uint64(round)))))
		}
	}
	d.line("stats=%+v", de.Stats())
	return d.sum()
}
