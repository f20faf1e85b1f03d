package main

// In-memory spans for the traced run. Spans are recorded from the
// benchmark's own code around each call into a layer, into a buffer
// allocated before timing starts (recording allocates nothing), and are
// written out when the run ends. A nil *tracer records nothing, so the
// untraced path calls the same methods.

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's base
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the parent span, -1 for none
	Req    int64  `json:"req"`    // pooled request id, -1 for none
	// Shard identifies the engine (tree index) of engine spans: an
	// engine.replay.request is covered by the engine.replay.batch spans
	// of its own engine.
	Shard int32 `json:"shard"`
}

type tracer struct {
	base    time.Time
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, capacity)}
}

// now returns the tracer clock; zero on a nil tracer.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.base))
}

func (t *tracer) at(x time.Time) int64 { return int64(x.Sub(t.base)) }

// reserve claims a span slot to be filled by set once the span ends, so
// children recorded earlier can point at it.
func (t *tracer) reserve() int32 {
	if t == nil {
		return -1
	}
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1
	}
	return int32(i)
}

func (t *tracer) set(i int32, name string, start, end int64, parent int32, req int64, shard int32) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i] = span{Name: name, Start: start, End: end, Parent: parent, Req: req, Shard: shard}
}

func (t *tracer) add(name string, start, end int64, parent int32, req int64, shard int32) int32 {
	i := t.reserve()
	t.set(i, name, start, end, parent, req, shard)
	return i
}

// recorded returns the filled spans; call only after every recording
// goroutine has finished.
func (t *tracer) recorded() []span {
	n := min(t.next.Load(), int64(len(t.spans)))
	return t.spans[:n]
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.recorded() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStats summarizes one span name: count and the medians of its
// duration and of its self time (duration minus the part of the
// interval its children cover).
type spanStats struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	P50us   float64 `json:"p50_us"`
	SelfP50 float64 `json:"self_p50_us"`
}

// selfTimes returns every span's self time in µs. Children are the spans
// naming it as parent; an engine.replay.request's children are also the
// engine.replay.batch spans of its engine, which serve many requests at
// once and so cannot name a single parent.
func selfTimes(spans []span) []float64 {
	children := make([][]int, len(spans))
	batches := map[int32][]int{}
	for i, s := range spans {
		if s.Parent >= 0 && int(s.Parent) < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
		if s.Name == "engine.replay.batch" {
			batches[s.Shard] = append(batches[s.Shard], i)
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		var iv [][2]int64
		for _, c := range children[i] {
			iv = append(iv, [2]int64{spans[c].Start, spans[c].End})
		}
		if s.Name == "engine.replay.request" {
			for _, b := range batches[s.Shard] {
				iv = append(iv, [2]int64{spans[b].Start, spans[b].End})
			}
		}
		self[i] = float64(s.End-s.Start-covered(s.Start, s.End, iv)) / 1e3
	}
	return self
}

// covered returns how much of [lo, hi) the union of intervals covers.
func covered(lo, hi int64, iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// summarizeWith groups spans by name, given their self times.
func summarizeWith(spans []span, self []float64) []spanStats {
	dur := map[string][]float64{}
	selfBy := map[string][]float64{}
	for i, s := range spans {
		dur[s.Name] = append(dur[s.Name], float64(s.End-s.Start)/1e3)
		selfBy[s.Name] = append(selfBy[s.Name], self[i])
	}
	var out []spanStats
	for name, d := range dur {
		out = append(out, spanStats{Name: name, Count: len(d), P50us: median(d), SelfP50: median(selfBy[name])})
	}
	slices.SortFunc(out, func(a, b spanStats) int { return strings.Compare(a.Name, b.Name) })
	return out
}
