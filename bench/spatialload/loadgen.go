package main

// The load generator. The open loop sends each request at its scheduled
// time whatever the system is doing and charges its latency from that
// intended time, so a stall is charged to every request queued behind
// it (no coordinated omission); how late the dispatcher itself ran is
// recorded separately. The closed loop keeps a fixed number of requests
// outstanding and counts completions.

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// doer sends one request; *system is the real one, tests substitute
// fakes.
type doer interface {
	do(e *entry, tr *tracer, parent int32) error
}

// errLog keeps the first few failures of a run for the report.
type errLog struct {
	mu         sync.Mutex
	mismatches []string
	errors     []string
	wrong      int
}

const keepErrors = 5

func (l *errLog) add(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var m mismatchError
	if errors.As(err, &m) {
		l.wrong++
		if len(l.mismatches) < keepErrors {
			l.mismatches = append(l.mismatches, err.Error())
		}
		return
	}
	if len(l.errors) < keepErrors {
		l.errors = append(l.errors, err.Error())
	}
}

// samples are one open-loop run's per-request measurements, indexed like
// its schedule.
type samples struct {
	entries []entry
	latMs   []float64 // from intended send time to reply; +Inf when failed
	lateMs  []float64 // actual send minus intended send
	failed  []bool
}

// openLoop dispatches entries (intended times relative to a common start)
// and waits for every reply. Phases marked traced record a gen.request
// span (intended send → reply) around each client call. onPhase runs on
// the calling goroutine when the first request of a phase is due.
// Failures are counted in the samples and logged to log.
func openLoop(d doer, entries []entry, tr *tracer, traced func(phase) bool, onPhase func(phase), log *errLog) *samples {
	s := &samples{
		entries: entries,
		latMs:   make([]float64, len(entries)),
		lateMs:  make([]float64, len(entries)),
		failed:  make([]bool, len(entries)),
	}
	var wg sync.WaitGroup
	base := time.Now()
	cur := phase(numPhases)
	for i := range entries {
		e := &entries[i]
		due := base.Add(e.at)
		sleepUntil(due)
		if e.phase != cur {
			cur = e.phase
			if onPhase != nil {
				onPhase(cur)
			}
		}
		sent := time.Now()
		var t *tracer
		if traced != nil && traced(e.phase) {
			t = tr
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := t.reserve()
			err := d.do(e, t, id)
			done := time.Now()
			if t != nil {
				t.set(id, "gen.request", t.at(due), t.at(done), -1, e.id, -1)
			}
			s.lateMs[i] = ms(sent.Sub(due))
			s.latMs[i] = ms(done.Sub(due))
			if err != nil {
				s.failed[i], s.latMs[i] = true, math.Inf(1)
				log.add(err)
			}
		}()
	}
	wg.Wait()
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sleepUntil blocks the calling thread in nanosleep until t. The
// runtime's own timers wake through the netpoller in whole milliseconds,
// which would make the dispatcher about half a millisecond late on
// average; the kernel's high-resolution sleep keeps it on schedule.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep loops
	}
}

// phaseSummary is one phase's counts and percentiles.
type phaseSummary struct {
	Phase     string  `json:"phase"`
	Rate      float64 `json:"rate_rps,omitempty"`
	Seconds   float64 `json:"seconds"`
	Sent      int     `json:"sent"`
	Succeeded int     `json:"succeeded"`
	Failed    int     `json:"failed"`
	P50ms     float64 `json:"p50_ms,omitempty"`
	P90ms     float64 `json:"p90_ms,omitempty"`
	P99ms     float64 `json:"p99_ms,omitempty"`
	// TailQuantile is the highest percentile with at least ten samples
	// beyond it.
	TailQuantile float64 `json:"tail_quantile,omitempty"`
	TailMs       float64 `json:"tail_ms,omitempty"`
	LateP50ms    float64 `json:"late_p50_ms,omitempty"`
	LateP99ms    float64 `json:"late_p99_ms,omitempty"`
	// ThroughputRPS is set for the closed loop.
	ThroughputRPS float64 `json:"throughput_rps,omitempty"`
}

// summary reduces one phase of an open-loop run.
func (s *samples) summary(ph phase, rate float64, dur time.Duration) phaseSummary {
	var lat, late []float64
	ps := phaseSummary{Phase: ph.String(), Rate: rate, Seconds: dur.Seconds()}
	for i, e := range s.entries {
		if e.phase != ph {
			continue
		}
		ps.Sent++
		if s.failed[i] {
			ps.Failed++
		} else {
			ps.Succeeded++
		}
		lat = append(lat, s.latMs[i])
		late = append(late, s.lateMs[i])
	}
	ps.P50ms, ps.P90ms, ps.P99ms = percentile(lat, 0.5), percentile(lat, 0.9), percentile(lat, 0.99)
	if q := highestSupported(len(lat)); q > 0 {
		ps.TailQuantile, ps.TailMs = q, percentile(lat, q)
	}
	ps.LateP50ms, ps.LateP99ms = percentile(late, 0.5), percentile(late, 0.99)
	return ps
}

// kindPercentile returns the q-quantile of one request kind's latency in
// a phase; failed requests count as infinitely late.
func (s *samples) kindPercentile(ph phase, k kind, q float64) float64 {
	var lat []float64
	for i, e := range s.entries {
		if e.phase == ph && e.kind == k {
			lat = append(lat, s.latMs[i])
		}
	}
	return percentile(lat, q)
}

// closedLoop keeps conns × outstanding requests in flight for dur,
// replaying seq cyclically, and returns the completions within dur plus
// the attempted and failed counts of every request it sent. Static
// workloads pin each worker to its connection; dyn requests go to their
// shard's owner whatever the worker.
func closedLoop(d doer, seq []entry, outstanding int, dur time.Duration, pin bool, log *errLog) (completed, attempted, failed int) {
	var next, done, att, fail atomic.Int64
	end := time.Now().Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		for j := 0; j < outstanding; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(end) {
					e := seq[(next.Add(1)-1)%int64(len(seq))]
					if pin {
						e.conn = int8(c)
					}
					att.Add(1)
					err := d.do(&e, nil, -1)
					if err != nil {
						fail.Add(1)
						log.add(err)
					} else if time.Now().Before(end) {
						done.Add(1)
					}
				}
			}()
		}
	}
	wg.Wait()
	return int(done.Load()), int(att.Load()), int(fail.Load())
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB returns the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func describe(ps phaseSummary) string {
	return fmt.Sprintf("%-9s %5.0f req/s %5.1fs sent %6d ok %6d failed %d  p50 %7.3f p90 %7.3f p99 %7.3f ms  late p50 %.3f p99 %.3f ms",
		ps.Phase, ps.Rate, ps.Seconds, ps.Sent, ps.Succeeded, ps.Failed, ps.P50ms, ps.P90ms, ps.P99ms, ps.LateP50ms, ps.LateP99ms)
}
