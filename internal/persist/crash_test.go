package persist_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"spatialtree/internal/dynlayout"
	"spatialtree/internal/engine"
	"spatialtree/internal/lca"
	"spatialtree/internal/persist"
	"spatialtree/internal/rng"
	"spatialtree/internal/sfc"
	"spatialtree/internal/tree"
	"spatialtree/internal/treefix"
)

// randomMutation applies one random workload step: mostly inserts under
// a random vertex, sometimes the deletion of a random non-root leaf.
func randomMutation(t *testing.T, de *engine.DynEngine, r *rng.RNG) {
	t.Helper()
	n := de.N()
	if r.Intn(3) == 0 && n > 2 {
		// Collect the current deletable leaves and remove one.
		var leaves []int
		for v := 1; v < n; v++ {
			if de.IsLeaf(v) {
				leaves = append(leaves, v)
			}
		}
		if len(leaves) > 0 {
			if _, err := de.DeleteLeaf(leaves[r.Intn(len(leaves))]); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	if _, err := de.InsertLeaf(r.Intn(n)); err != nil {
		t.Fatal(err)
	}
}

// TestCrashRecoveryProperty is the durability pin: a random
// mutate/query workload runs against a journaled dyn shard, the store
// is killed by truncating the WAL at a random byte (record boundaries
// and mid-record tears alike), and recovery must (a) never fail, (b)
// recover exactly a prefix of the journaled record stream, and (c)
// produce a shard whose tree and query answers match a sequential
// oracle replay of that surviving prefix.
func TestCrashRecoveryProperty(t *testing.T) {
	const (
		seeds     = 12
		mutations = 60
	)
	for seed := uint64(0); seed < seeds; seed++ {
		r := rng.New(seed + 1000)
		dir := t.TempDir()
		// Tiny segments force rotations mid-workload; every other seed
		// also compacts midway, so cuts land before, inside and after
		// snapshot boundaries.
		store := persist.OpenForTest(t, persist.Options{Dir: dir, SegmentBytes: 200, CompactAfter: 1 << 30})

		base := tree.RandomAttachment(24+int(seed), rng.New(seed))
		de, err := engine.NewDyn(base, engine.DynOptions{Epsilon: 0.25})
		if err != nil {
			t.Fatal(err)
		}
		log, err := store.CreateShardLog("d1", de.State())
		if err != nil {
			t.Fatal(err)
		}
		de.SetJournal(log)
		var journaled []persist.Record
		// readJournal collects the records appended since the last call;
		// the engine's epochs start at 0, so they follow len(journaled).
		readJournal := func() {
			recs, err := log.RecordsAfter(uint64(len(journaled)))
			if err != nil {
				t.Fatal(err)
			}
			journaled = append(journaled, recs...)
		}

		for m := 0; m < mutations; m++ {
			randomMutation(t, de, r)
			if m == mutations/2 && seed%2 == 0 {
				readJournal()
				if err := log.Compact(de.State()); err != nil {
					t.Fatal(err)
				}
			}
			// Interleave queries so mutations contend with batches the
			// way they do in production.
			if m%16 == 0 {
				vals := make([]int64, de.N())
				for i := range vals {
					vals[i] = int64(i)
				}
				if res := de.SubmitTreefix(vals, treefix.Add).Wait(); res.Err != nil {
					t.Fatal(res.Err)
				}
			}
		}
		readJournal()
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}

		// Crash: truncate the newest WAL segment at a random byte.
		segs, err := persist.ListSegments(filepath.Join(dir, "dyn", "d1"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("segments: %v %v", segs, err)
		}
		seg := persist.SegPath(filepath.Join(dir, "dyn", "d1"), segs[len(segs)-1])
		info, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		cut := int64(r.Intn(int(info.Size()) + 1))
		if err := os.Truncate(seg, cut); err != nil {
			t.Fatal(err)
		}

		// Recover.
		store2 := persist.OpenForTest(t, persist.Options{Dir: dir})
		_, snap, recs, err := store2.OpenShardLog("d1")
		if err != nil {
			t.Fatalf("seed %d cut %d: recovery failed: %v", seed, cut, err)
		}

		// (b) The recovered records are exactly a prefix of the
		// journaled post-snapshot stream — and the whole stream when the
		// cut spared the file.
		var post []persist.Record
		for _, rec := range journaled {
			if rec.Epoch > snap.Epoch {
				post = append(post, rec)
			}
		}
		if len(recs) > len(post) || !reflect.DeepEqual(recs, post[:len(recs)]) {
			t.Fatalf("seed %d cut %d: recovered records are not a journal prefix", seed, cut)
		}
		if cut == info.Size() && !reflect.DeepEqual(recs, post) {
			t.Fatalf("seed %d: clean shutdown lost records: %d of %d", seed, len(recs), len(post))
		}

		// (c) Engine recovery vs sequential oracle replay of the same
		// surviving prefix.
		de2, err := engine.RestoreDyn(snap, engine.Options{})
		if err != nil {
			t.Fatalf("seed %d cut %d: %v", seed, cut, err)
		}
		curve, err := sfc.ByName(snap.Curve)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := dynlayout.Restore(snap.Parents, snap.Ranks, snap.Side, curve, snap.Epsilon, snap.Drift)
		if err != nil {
			t.Fatalf("seed %d cut %d: oracle restore: %v", seed, cut, err)
		}
		for _, rec := range recs {
			if err := de2.ApplyRecord(rec); err != nil {
				t.Fatalf("replaying %+v: %v", rec, err)
			}
			switch rec.Type {
			case persist.RecInsert:
				if _, err := oracle.InsertLeaf(rec.Arg); err != nil {
					t.Fatal(err)
				}
			case persist.RecDelete:
				if _, err := oracle.DeleteLeaf(rec.Arg); err != nil {
					t.Fatal(err)
				}
			}
		}
		ot, err := oracle.Tree()
		if err != nil {
			t.Fatal(err)
		}
		rt, err := de2.Tree()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rt.Parents(), ot.Parents()) {
			t.Fatalf("seed %d cut %d: recovered tree diverged from oracle", seed, cut)
		}

		// Query answers: treefix sums against the sequential reference,
		// LCA against the binary-lifting oracle.
		vals := make([]int64, ot.N())
		for i := range vals {
			vals[i] = int64(3*i + 1)
		}
		res := de2.SubmitTreefix(vals, treefix.Add).Wait()
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if want := treefix.SequentialBottomUp(ot, vals, treefix.Add); !reflect.DeepEqual(res.Sums, want) {
			t.Fatalf("seed %d cut %d: treefix sums diverged from oracle", seed, cut)
		}
		qs := make([]lca.Query, 8)
		for i := range qs {
			qs[i] = lca.Query{U: r.Intn(ot.N()), V: r.Intn(ot.N())}
		}
		lres := de2.SubmitLCA(qs).Wait()
		if lres.Err != nil {
			t.Fatal(lres.Err)
		}
		lo := lca.NewOracle(ot)
		for i, q := range qs {
			if want := lo.LCA(q.U, q.V); lres.Answers[i] != want {
				t.Fatalf("seed %d cut %d: LCA(%d,%d) = %d, oracle %d", seed, cut, q.U, q.V, lres.Answers[i], want)
			}
		}
	}
}
