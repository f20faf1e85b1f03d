package main

// The per-shard mutation queue of the dyn-cluster workload. Mutations of
// one shard are serialized by a single goroutine that owns the shard's
// expected state, so the generator knows every reply's exact epoch, N
// and vertex id in advance. No lock is held across a wire call: callers
// hand a job over a channel and wait for its reply.

import (
	"fmt"

	"spatialtree/internal/wire"
)

// queueDepth bounds the mutations one shard may have waiting before the
// open-loop dispatcher itself blocks: well above what a shard receives in
// a multi-second stall at the highest rate, so a backlog shows up as
// latency rather than as generator lateness.
const queueDepth = 4096

type mutJob struct {
	e      *entry
	tr     *tracer
	parent int32
	done   chan error
}

// shardQueue applies the workload's mutation pattern to one shard: two
// inserts under a seed-chosen original vertex for every delete of the
// youngest inserted leaf. Inserted leaves only hang off original
// vertices and deletes always remove the highest id, so original
// vertices keep their ids and LCA answers over them never change.
type shardQueue struct {
	s     *system
	shard int
	jobs  chan *mutJob
	done  chan struct{}

	// Owned by the queue goroutine; read by others only after stop.
	k      uint64 // mutations applied
	epoch  uint64
	n      int
	leaves []int // inserted leaves, youngest last
}

func newShardQueue(s *system, shard int) *shardQueue {
	q := &shardQueue{
		s: s, shard: shard, n: s.p.n,
		jobs: make(chan *mutJob, queueDepth),
		done: make(chan struct{}),
	}
	go q.loop()
	return q
}

func (q *shardQueue) loop() {
	defer close(q.done)
	for j := range q.jobs {
		j.done <- q.apply(j)
	}
}

// submit queues one mutation and waits for its checked reply.
func (q *shardQueue) submit(e *entry, tr *tracer, parent int32) error {
	j := &mutJob{e: e, tr: tr, parent: parent, done: make(chan error, 1)}
	q.jobs <- j
	return <-j.done
}

func (q *shardQueue) stop() {
	close(q.jobs)
	<-q.done
}

// insertStep reports whether the k-th mutation of the pattern is an
// insert (two of every three) rather than a delete of the youngest leaf.
func insertStep(k uint64) bool { return k%3 != 2 }

// mutationParent is the original vertex the k-th insert of a shard
// attaches to: a pure function of the seed.
func mutationParent(seed uint64, shard int, k uint64, n int) int {
	h := seed ^ uint64(shard+1)*0x9e3779b97f4a7c15 ^ (k+1)*0xbf58476d1ce4e5b9
	h ^= h >> 31
	h *= 0x94d049bb133111eb
	h ^= h >> 29
	return int(h % uint64(n))
}

func (q *shardQueue) apply(j *mutJob) error {
	m := wire.Mutate{ShardID: q.s.shardIDs[q.shard]}
	insert := insertStep(q.k)
	if insert {
		m.Op, m.Arg = wire.OpInsert, mutationParent(q.s.p.seed, q.shard, q.k, q.s.p.n)
	} else {
		m.Op, m.Arg = wire.OpDelete, q.leaves[len(q.leaves)-1]
	}
	start := j.tr.now()
	res, err := q.s.clients[q.s.shardConn(q.shard)].Mutate(&m)
	j.tr.add("client.call", start, j.tr.now(), j.parent, j.e.id, -1)
	if err != nil {
		return err
	}
	// Advance the expected state whatever the reply says, so one wrong
	// answer is reported once rather than cascading into every later
	// epoch check.
	wantEpoch := q.epoch + 1
	var wantN, wantID, gotID int
	if insert {
		wantN, wantID, gotID = q.n+1, q.n, res.Vertex
		q.leaves = append(q.leaves, q.n)
	} else {
		wantN, wantID, gotID = q.n-1, m.Arg, res.Moved
		q.leaves = q.leaves[:len(q.leaves)-1]
	}
	q.k, q.epoch, q.n = q.k+1, wantEpoch, wantN
	if res.Epoch != wantEpoch || res.N != wantN || gotID != wantID {
		return mismatchError{fmt.Sprintf("request %d: shard %d mutation %d: got epoch %d n %d id %d, want epoch %d n %d id %d",
			j.e.id, q.shard, q.k-1, res.Epoch, res.N, gotID, wantEpoch, wantN, wantID)}
	}
	return nil
}
