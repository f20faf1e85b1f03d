// Command spatialserve drives closed-loop treefix / LCA / min-cut
// traffic against a running spatialtreed's binary listener
// (docs/protocol.md) and prints throughput: the load generator for a
// -backend sim daemon, which no bench/ workload serves.
//
// Each of -clients clients holds one pipelined connection and runs
// -rounds rounds over a seeded forest of -trees trees of -n vertices,
// routing by parent array: per round one treefix plus -queries LCA
// pairs in -sub-batches frames, or, one round in -mincut-share, a
// min-cut. Backpressure answers (StatusTooMany, StatusUnavailable) are
// counted; any other error stops the run and exits 1. Without -tcp,
// spatialserve prints usage and exits 2.
//
//	spatialtreed -backend sim -tcp-addr 127.0.0.1:19491 &
//	spatialserve -tcp 127.0.0.1:19491 -clients 8 -n 4096 -trees 2
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"spatialtree/internal/mincut"
	"spatialtree/internal/rng"
	"spatialtree/internal/tree"
	"spatialtree/internal/wire"
)

// load is one run's traffic shape, one field per flag.
type load struct {
	addr                                               string
	n, trees, clients, rounds, queries, subs, cutShare int
	seed                                               uint64
}

// report holds a run's wall time, the items it was served (the treefix
// vertices, LCA pairs and min-cut edges of answered frames) and how many
// frames were answered StatusTooMany or StatusUnavailable.
type report struct {
	served, backpressured int64
	elapsed               time.Duration
}

func main() {
	var l load
	flag.StringVar(&l.addr, "tcp", "", "spatialtreed binary-protocol listener to drive (required; see docs/protocol.md)")
	flag.IntVar(&l.n, "n", 1<<12, "vertices per tree")
	flag.IntVar(&l.trees, "trees", 4, "distinct trees in the forest")
	flag.IntVar(&l.clients, "clients", 8, "concurrent clients, one connection each")
	flag.IntVar(&l.rounds, "rounds", 64, "request rounds per client")
	flag.IntVar(&l.queries, "queries", 256, "LCA queries per round")
	flag.IntVar(&l.subs, "sub-batches", 4, "LCA sub-batches the queries arrive in")
	flag.IntVar(&l.cutShare, "mincut-share", 8, "1 in k rounds is a min-cut request (0 = none)")
	flag.Uint64Var(&l.seed, "seed", 42, "workload seed")
	flag.Parse()
	if l.addr == "" || l.n < 1 || l.trees < 1 || l.clients < 1 || l.subs < 1 {
		fmt.Fprintln(os.Stderr, "spatialserve: -tcp is required, and -n, -trees, -clients and -sub-batches must be positive")
		flag.Usage()
		os.Exit(2)
	}

	rep, err := runRemote(l)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spatialserve:", err)
		os.Exit(1)
	}
	fmt.Printf("mode=remote addr=%s trees=%d n=%d clients=%d rounds=%d sub-batches=%d\n",
		l.addr, l.trees, l.n, l.clients, l.rounds, l.subs)
	fmt.Printf("wall=%v  rounds/s=%.1f  queries/s=%.1f  backpressured=%d\n",
		rep.elapsed.Round(time.Millisecond),
		float64(int64(l.clients)*int64(l.rounds))/rep.elapsed.Seconds(),
		float64(rep.served)/rep.elapsed.Seconds(),
		rep.backpressured)
}

// member is one tree of the forest: its parent array and the weighted
// graph its min-cut frames carry.
type member struct {
	parents []int
	edges   []wire.Edge
}

func newForest(l load) []member {
	f := make([]member, l.trees)
	for i := range f {
		t := tree.RandomAttachment(l.n, rng.New(l.seed+uint64(i)))
		f[i].parents = t.Parents()
		for _, e := range mincut.RandomGraph(t, l.n/4, 10, rng.New(l.seed+100+uint64(i))) {
			f[i].edges = append(f[i].edges, wire.Edge{U: e.U, V: e.V, W: e.W})
		}
	}
	return f
}

// runRemote runs l against the listener at l.addr, every client on its
// own connection and its own seeded stream, and reports the run. An
// error other than backpressure stops every client at its next round;
// the lowest-numbered client's is returned.
func runRemote(l load) (report, error) {
	f := newForest(l)
	conns := make([]*wire.Client, l.clients)
	for c := range conns {
		var err error
		if conns[c], err = wire.Dial(l.addr, wire.DialOptions{DialTimeout: 5 * time.Second}); err != nil {
			return report{}, err
		}
		defer conns[c].Close()
	}

	reps := make([]report, l.clients)
	errs := make([]error, l.clients)
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for c, cl := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reps[c], errs[c] = l.client(c, cl, f, &stop)
		}()
	}
	wg.Wait()
	total := report{elapsed: time.Since(start)}
	for _, rep := range reps {
		total.served += rep.served
		total.backpressured += rep.backpressured
	}
	return total, cmp.Or(errs...)
}

// client runs client c's rounds on cl until they are done or stop is
// set. A frame that fails other than by backpressure sets stop and ends
// the client with its error.
func (l load) client(c int, cl *wire.Client, f []member, stop *atomic.Bool) (report, error) {
	r := rng.New(l.seed ^ uint64(c)*0x9e3779b97f4a7c15)
	var rep report
	for round := 0; round < l.rounds && !stop.Load(); round++ {
		for _, q := range l.round(r, f, c, round) {
			_, err := cl.Do(&q)
			var we *wire.Error
			switch {
			case err == nil: // a frame carries the items of one kind
				rep.served += int64(len(q.Vals) + len(q.Queries) + len(q.Edges))
			case errors.As(err, &we) && (we.Status == wire.StatusTooMany || we.Status == wire.StatusUnavailable):
				rep.backpressured++
			default:
				stop.Store(true)
				return rep, err
			}
		}
	}
	return rep, nil
}

// round draws client c's frames for one round from r, all on one tree:
// a min-cut one round in l.cutShare, otherwise a treefix and l.queries
// LCA pairs in l.subs frames.
func (l load) round(r *rng.RNG, f []member, c, round int) []wire.Query {
	t := f[r.Intn(l.trees)]
	if l.cutShare > 0 && (c+round)%l.cutShare == 0 {
		return []wire.Query{{Kind: wire.KindMinCut, Parents: t.parents, Edges: t.edges}}
	}
	vals := make([]int64, l.n)
	for i := range vals {
		vals[i] = int64(r.Intn(1000))
	}
	qs := []wire.Query{{Kind: wire.KindTreefix, Parents: t.parents, Op: "add", Vals: vals}}
	for _, pairs := range splitQueries(r, l.queries, l.subs, l.n) {
		qs = append(qs, wire.Query{Kind: wire.KindLCA, Parents: t.parents, Queries: pairs})
	}
	return qs
}

// splitQueries draws nq random LCA queries over [0, idRange) in subs
// sub-batches.
func splitQueries(r *rng.RNG, nq, subs, idRange int) [][]wire.LCAQuery {
	batches := make([][]wire.LCAQuery, subs)
	per := (nq + subs - 1) / subs
	for b := range batches {
		qs := make([]wire.LCAQuery, max(min(per, nq-b*per), 0))
		for i := range qs {
			qs[i] = wire.LCAQuery{U: r.Intn(idRange), V: r.Intn(idRange)}
		}
		batches[b] = qs
	}
	return batches
}
