package main

// Workloads, the request pool and the arrival schedule. Everything here
// is a pure function of the seed: the pool (trees, payloads and their
// oracle answers) and every phase's Poisson schedule are generated before
// any system starts, so the system under test only ever receives these
// pre-generated requests.

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"time"

	"spatialtree/internal/engine"
	"spatialtree/internal/lca"
	"spatialtree/internal/mincut"
	"spatialtree/internal/rng"
	"spatialtree/internal/server"
	"spatialtree/internal/tree"
	"spatialtree/internal/treefix"
	"spatialtree/internal/wire"
)

// kind is one operation type of a traffic mix.
type kind uint8

const (
	kLCA kind = iota
	kTreefix
	kTopDown
	kMinCut
	kMutate
	numKinds
)

var kindNames = [numKinds]string{"lca", "treefix", "topdown", "mincut", "mutate"}

func (k kind) String() string { return kindNames[k] }

// treefixOps is the operator cycle treefix and topdown requests walk
// through, one step per scheduled request of that kind.
var treefixOps = []treefix.Op{treefix.Add, treefix.Max, treefix.Min, treefix.Xor}

type protocol uint8

const (
	protoWire protocol = iota
	protoHTTP
)

// workload is one traffic mix against one system shape.
type workload struct {
	name    string
	why     string
	proto   protocol
	cluster bool
	trees   int
	logN    int
	// lo and hi are the open-loop arrival rates (req/s), as shares of the
	// closed-loop throughput measured at the commit that introduced this
	// benchmark (wire-mixed 661, kernel-large 411, json-adhoc 658,
	// dyn-cluster 628 req/s on a 2-vCPU VM): lo about 20%, hi at most
	// 45%. At 60% the latencies moved by a third between runs as the
	// VM's speed drifted. kernel-large's and dyn-cluster's multi-
	// millisecond kernels and refreshes hold both processors long enough
	// to delay the dispatcher, so their hi stops where its lateness p99
	// stays under 3 ms. Every lo phase still holds the 1000 samples a p99
	// needs.
	lo, hi float64
	mix    [numKinds]float64
	// lcaBatch is the number of queries one LCA request carries.
	lcaBatch int
	// outstanding is each connection's closed-loop concurrency.
	outstanding int
}

// conns is the generator's connection count on every workload.
const conns = 2

var workloads = []*workload{
	{
		name: "wire-mixed", proto: protoWire, trees: 4, logN: 14, lo: 130, hi: 280,
		mix:      [numKinds]float64{kLCA: 0.60, kTreefix: 0.25, kTopDown: 0.10, kMinCut: 0.05},
		lcaBatch: 32, outstanding: 16,
		why: "default daemon path with small kernels: wire, admission/routing and the batch scheduler dominate",
	},
	{
		name: "kernel-large", proto: protoWire, trees: 2, logN: 15, lo: 110, hi: 150,
		mix:      [numKinds]float64{kLCA: 0.45, kTreefix: 0.25, kTopDown: 0.15, kMinCut: 0.15},
		lcaBatch: 1024, outstanding: 16,
		why: "exec kernels dominate and the LCA sparse table spills L2; kernel and memory-order changes show here",
	},
	{
		name: "json-adhoc", proto: protoHTTP, trees: 16, logN: 10, lo: 130, hi: 280,
		mix:      [numKinds]float64{kLCA: 0.5, kTreefix: 0.5},
		lcaBatch: 16, outstanding: 1,
		why: "JSON codec, tree.FromParents validation and fingerprint routing dominate while kernels are trivial",
	},
	{
		name: "dyn-cluster", proto: protoWire, cluster: true, trees: 4, logN: 14, lo: 130, hi: 200,
		mix:      [numKinds]float64{kLCA: 0.8, kMutate: 0.2},
		lcaBatch: 32, outstanding: 16,
		why: "reads beside replicated writes: dynlayout refreshes, WAL appends and follower acks dominate",
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Pool sizes per tree. Large payloads (treefix values, edge sets) are
// shared across requests; expected treefix outputs are kept as hashes so
// a 2^16-vertex pool stays a few MiB.
const (
	lcaPerTree   = 32
	valsPerTree  = 4
	edgesPerTree = 4
)

// treeData is one tree of the pool with every payload and oracle answer
// that targets it.
type treeData struct {
	t       *tree.Tree
	parents []int
	// treeID is the id registration assigns (static wire workloads).
	treeID string

	lcaWire [][]wire.LCAQuery
	lcaKern [][]lca.Query
	lcaWant [][]int

	vals   [][]int64
	tfWant [valsPerTree][4][2]uint64 // [vals][op][0 bottom-up, 1 top-down] → hash of sums

	edgesKern [][]mincut.Edge
	edgesWire [][]wire.Edge
	cutWant   []cutAnswer

	// bodies are pre-encoded HTTP request bodies (HTTP workloads only):
	// lcaBody[i] for LCA batch i, tfBody[v][op] for treefix on vals v.
	lcaBody [][]byte
	tfBody  [valsPerTree][4][]byte
}

type cutAnswer struct {
	weight int64
	arg    int
}

// pool is every distinct request a workload may send, with answers.
type pool struct {
	w     *workload
	seed  uint64
	trees []*treeData
	n     int // vertices per tree
}

func newPool(w *workload, seed uint64, scale int) (*pool, error) {
	n := 1 << (w.logN - scale)
	root := rng.New(seed ^ 0x5ca1ab1e)
	p := &pool{w: w, seed: seed, n: n}
	for i := 0; i < w.trees; i++ {
		r := root.Split()
		td, err := genTree(w, n, r)
		if err != nil {
			return nil, err
		}
		p.trees = append(p.trees, td)
	}
	return p, nil
}

func genTree(w *workload, n int, r *rng.RNG) (*treeData, error) {
	t := tree.RandomAttachment(n, r)
	td := &treeData{t: t, parents: t.Parents()}
	td.treeID = "t" + strconv.FormatUint(engine.Fingerprint(t), 16)
	o := lca.NewOracle(t)
	for i := 0; i < lcaPerTree; i++ {
		qw := make([]wire.LCAQuery, w.lcaBatch)
		qk := make([]lca.Query, w.lcaBatch)
		want := make([]int, w.lcaBatch)
		for j := range qw {
			u, v := r.Intn(n), r.Intn(n)
			qw[j], qk[j], want[j] = wire.LCAQuery{U: u, V: v}, lca.Query{U: u, V: v}, o.LCA(u, v)
		}
		td.lcaWire, td.lcaKern, td.lcaWant = append(td.lcaWire, qw), append(td.lcaKern, qk), append(td.lcaWant, want)
	}
	for v := 0; v < valsPerTree; v++ {
		vals := make([]int64, n)
		for j := range vals {
			vals[j] = int64(r.Intn(2_000_001)) - 1_000_000
		}
		td.vals = append(td.vals, vals)
		for oi, op := range treefixOps {
			td.tfWant[v][oi][0] = hashSums(treefix.SequentialBottomUp(t, vals, op))
			td.tfWant[v][oi][1] = hashSums(treefix.SequentialTopDown(t, vals, op))
		}
	}
	m := n / 16
	for i := 0; i < edgesPerTree; i++ {
		ek := make([]mincut.Edge, 0, m)
		for len(ek) < m {
			u, v := r.Intn(n), r.Intn(n)
			if u != v {
				ek = append(ek, mincut.Edge{U: u, V: v, W: int64(1 + r.Intn(100))})
			}
		}
		ew := make([]wire.Edge, len(ek))
		for j, e := range ek {
			ew[j] = wire.Edge{U: e.U, V: e.V, W: e.W}
		}
		td.edgesKern, td.edgesWire = append(td.edgesKern, ek), append(td.edgesWire, ew)
		td.cutWant = append(td.cutWant, seqMinCut(t, o, ek))
	}
	if w.proto == protoHTTP {
		if err := td.encodeBodies(); err != nil {
			return nil, err
		}
	}
	return td, nil
}

// encodeBodies pre-encodes the ad-hoc JSON request bodies: every query
// carries the tree's parent array and nothing is registered.
func (td *treeData) encodeBodies() error {
	for _, qs := range td.lcaWire {
		req := server.QueryRequest{Parents: td.parents, Kind: "lca", Queries: make([]server.LCAQuery, len(qs))}
		for j, q := range qs {
			req.Queries[j] = server.LCAQuery{U: q.U, V: q.V}
		}
		b, err := json.Marshal(req)
		if err != nil {
			return err
		}
		td.lcaBody = append(td.lcaBody, b)
	}
	for v := range td.vals {
		for oi, op := range treefixOps {
			b, err := json.Marshal(server.QueryRequest{Parents: td.parents, Kind: "treefix", Op: op.Name, Vals: td.vals[v]})
			if err != nil {
				return err
			}
			td.tfBody[v][oi] = b
		}
	}
	return nil
}

// seqMinCut is the sequential 1-respecting min-cut oracle:
// cut(v) = D(v) − 2·I(v) with the LCA oracle and sequential treefix,
// ties to the smallest vertex. It is checked against the brute-force
// mincut.OneRespectingSequential in the tests.
func seqMinCut(t *tree.Tree, o *lca.Oracle, edges []mincut.Edge) cutAnswer {
	n := t.N()
	deg := make([]int64, n)
	in := make([]int64, n)
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		deg[e.U] += e.W
		deg[e.V] += e.W
		in[o.LCA(e.U, e.V)] += e.W
	}
	d := treefix.SequentialBottomUp(t, deg, treefix.Add)
	i := treefix.SequentialBottomUp(t, in, treefix.Add)
	best := cutAnswer{arg: -1}
	for v := 0; v < n; v++ {
		if v == t.Root() {
			continue
		}
		if c := d[v] - 2*i[v]; best.arg == -1 || c < best.weight {
			best = cutAnswer{weight: c, arg: v}
		}
	}
	return best
}

// hashSums fingerprints a treefix output: FNV-1a over 64-bit words, one
// multiply per value, so checking a 2^16-value reply costs the
// generator little CPU next to the server's work.
func hashSums(xs []int64) uint64 {
	h := uint64(0xcbf29ce484222325) ^ uint64(len(xs))
	for _, x := range xs {
		h = (h ^ uint64(x)) * 0x100000001b3
	}
	return h
}

// Phases of a run. Every scheduled request belongs to exactly one.
type phase uint8

const (
	phWarm phase = iota
	phLo
	phHi
	phClosed
	phTracedLo
	phTracedHi
	numPhases
)

var phaseNames = [numPhases]string{"warmup", "lo", "hi", "closed", "traced_lo", "traced_hi"}

func (p phase) String() string { return phaseNames[p] }

// op is one scheduled request: what to send and on which connection.
type op struct {
	kind kind
	tree int32
	idx  int32 // LCA batch, treefix values or edge-set index
	fop  int8  // treefix operator index into treefixOps
	conn int8
}

// entry is one scheduled request: its intended send time relative to
// the start of the open loop, its run-unique request id and its phase.
type entry struct {
	at    time.Duration
	id    int64
	phase phase
	op
}

// shape is the duration of each phase of one run: the measured seconds
// in sixteenths, 7 at lo, 6 at hi and 2 in the closed loop, plus one
// more of warm-up. lo gets the largest share so that its low rate still
// yields the 1000 samples a p99 needs.
type shape struct {
	warm, lo, hi, closed time.Duration
}

func newShape(seconds float64) shape {
	unit := time.Duration(seconds / 16 * float64(time.Second))
	return shape{warm: unit, lo: 7 * unit, hi: 6 * unit, closed: 2 * unit}
}

// scheduler draws ops from a workload's mix. It is deterministic in its
// seed; the treefix operator cycles per kind, as the mix specifies.
type scheduler struct {
	w      *workload
	p      *pool
	r      *rng.RNG
	cycle  [numKinds]int
	nextID int64
}

func newScheduler(p *pool, seed uint64) *scheduler {
	return &scheduler{w: p.w, p: p, r: rng.New(seed ^ 0xa77e5c4ed)}
}

func (s *scheduler) draw() op {
	u := s.r.Float64()
	k := kind(0)
	for acc := 0.0; k < numKinds-1; k++ {
		acc += s.w.mix[k]
		if u < acc {
			break
		}
	}
	o := op{kind: k, tree: int32(s.r.Intn(len(s.p.trees)))}
	switch k {
	case kLCA:
		o.idx = int32(s.r.Intn(lcaPerTree))
	case kTreefix, kTopDown:
		o.idx = int32(s.r.Intn(valsPerTree))
		o.fop = int8(s.cycle[k] % len(treefixOps))
	case kMinCut:
		o.idx = int32(s.r.Intn(edgesPerTree))
	}
	s.cycle[k]++
	// Dyn requests go to their shard's owner instead (system.do).
	o.conn = int8(s.r.Intn(conns))
	return o
}

// poisson appends a Poisson-arrival schedule at rate req/s covering
// [start, start+dur).
func (s *scheduler) poisson(dst []entry, ph phase, rate float64, start, dur time.Duration) []entry {
	var t float64
	end := dur.Seconds()
	for {
		t += -math.Log(1-s.r.Float64()) / rate
		if t >= end {
			return dst
		}
		dst = append(dst, entry{at: start + time.Duration(t*float64(time.Second)), id: s.nextID, phase: ph, op: s.draw()})
		s.nextID++
	}
}

// sequence draws n ops for the closed loop, which replays them cyclically.
func (s *scheduler) sequence(n int) []entry {
	out := make([]entry, n)
	for i := range out {
		out[i] = entry{id: s.nextID, phase: phClosed, op: s.draw()}
		s.nextID++
	}
	return out
}
