package main

import (
	"sync"
	"testing"
	"time"
)

// stallDoer is a fake server that answers in 1 ms, except that one
// request stalls it for 200 ms: every request arriving meanwhile waits
// for the stall to end, as behind a stuck server.
type stallDoer struct {
	stallID int64
	gate    sync.RWMutex
	mu      sync.Mutex
	from    time.Time
	until   time.Time
}

func (f *stallDoer) do(e *entry, tr *tracer, parent int32) error {
	if e.id == f.stallID {
		f.gate.Lock()
		f.mu.Lock()
		f.from = time.Now()
		f.mu.Unlock()
		time.Sleep(200 * time.Millisecond)
		f.mu.Lock()
		f.until = time.Now()
		f.mu.Unlock()
		f.gate.Unlock()
		return nil
	}
	f.gate.RLock()
	f.gate.RUnlock()
	time.Sleep(time.Millisecond)
	return nil
}

// Requests due during a stall must report latency from their intended
// send time, not from when the stalled server let them through.
func TestOpenLoopChargesStallsFromIntendedTime(t *testing.T) {
	var es []entry
	for i := 0; i < 60; i++ {
		es = append(es, entry{at: time.Duration(i) * 10 * time.Millisecond, id: int64(i), phase: phLo})
	}
	f := &stallDoer{stallID: 10}
	start := time.Now()
	s := openLoop(f, es, nil, nil, nil, &errLog{})
	var during int
	for i, e := range es {
		due := start.Add(e.at)
		if e.id == f.stallID || !due.After(f.from) || !due.Before(f.until) {
			continue
		}
		during++
		// The dispatcher started a few µs after start, so due is early by
		// that much at most; allow 2 ms.
		if want := ms(f.until.Sub(due)) - 2; s.latMs[i] < want {
			t.Errorf("request %d due %.1f ms before the stall ended reported %.1f ms", e.id, ms(f.until.Sub(due)), s.latMs[i])
		}
		if s.lateMs[i] > 5 {
			t.Errorf("request %d: the dispatcher itself ran %.1f ms late; the stall must not hold it up", e.id, s.lateMs[i])
		}
	}
	if during < 15 {
		t.Fatalf("only %d requests were due during the 200 ms stall", during)
	}
	if last := s.latMs[len(es)-1]; last > 50 {
		t.Errorf("a request long after the stall reported %.1f ms", last)
	}
}
