package main

// One untraced workload run: several fresh set-ups (the last one serves),
// a warm-up, the open loop at rate lo then hi, and the closed loop.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// closedSeqLen is the closed loop's pre-generated request sequence,
// replayed cyclically.
const closedSeqLen = 1 << 16

type runConfig struct {
	w       *workload
	seed    uint64
	seconds float64
	setups  int
	// scale shrinks every tree by 2^scale (tests only).
	scale int
	// dir holds the run's temporary stores.
	dir string
	// proxy runs dyn-cluster in proxy mode (see system.proxy).
	proxy     bool
	tracePath string
	log       io.Writer
}

// bringUp runs n fresh set-ups and keeps the last one serving. It
// returns the CPU and the wall-clock seconds of each set-up.
func bringUp(cfg runConfig, p *pool, n int) (*system, []float64, []float64, error) {
	var cpu, wall []float64
	for i := 0; i < n; i++ {
		s, t, err := setup(cfg.w, p, filepath.Join(cfg.dir, fmt.Sprintf("setup%d", i)), cfg.proxy)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		cpu, wall = append(cpu, t.cpu.Seconds()), append(wall, t.wall.Seconds())
		fmt.Fprintf(cfg.log, "set-up %d: %.4f s CPU, %.4f s wall\n", i+1, t.cpu.Seconds(), t.wall.Seconds())
		if i == n-1 {
			return s, cpu, wall, nil
		}
		s.close()
		os.RemoveAll(s.dir)
	}
	return nil, nil, nil, fmt.Errorf("no set-up requested")
}

// finish verifies the dyn shards' final state, shuts the system down and
// records every state error in the report.
func finish(s *system, r *report) {
	var errs []error
	if s.w.cluster {
		errs = append(errs, s.verifyShards()...)
	}
	s.close()
	if s.w.cluster {
		errs = append(errs, s.verifyReplicaStores()...)
	}
	os.RemoveAll(s.dir)
	for _, err := range errs {
		r.StateErrs = append(r.StateErrs, err.Error())
	}
}

func runUntraced(cfg runConfig) (*report, error) {
	w := cfg.w
	p, err := newPool(w, cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	sh := newShape(cfg.seconds)
	sc := newScheduler(p, cfg.seed)
	var entries []entry
	entries = sc.poisson(entries, phWarm, w.lo, 0, sh.warm)
	entries = sc.poisson(entries, phLo, w.lo, sh.warm, sh.lo)
	entries = sc.poisson(entries, phHi, w.hi, sh.warm+sh.lo, sh.hi)
	seq := sc.sequence(closedSeqLen)

	r := &report{Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Metrics: map[string]float64{}}
	s, setupCPU, setupWall, err := bringUp(cfg, p, cfg.setups)
	if err != nil {
		return nil, err
	}
	r.SetupsS, r.SetupsWallS = setupCPU, setupWall
	log := &errLog{}

	var cpu0 time.Duration
	smp := openLoop(s, entries, nil, nil, func(ph phase) {
		if ph == phLo {
			cpu0 = cpuTime()
		}
	}, log)
	cpuOpen := cpuTime() - cpu0
	completed, attempted, failed := closedLoop(s, seq, w.outstanding, sh.closed, !w.cluster, log)
	finish(s, r)

	lo, hi := smp.summary(phLo, w.lo, sh.lo), smp.summary(phHi, w.hi, sh.hi)
	warm := smp.summary(phWarm, w.lo, sh.warm)
	closed := phaseSummary{Phase: phClosed.String(), Seconds: sh.closed.Seconds(), Sent: attempted,
		Succeeded: attempted - failed, Failed: failed, ThroughputRPS: float64(completed) / sh.closed.Seconds()}
	r.Phases = []phaseSummary{warm, lo, hi, closed}
	for _, ps := range r.Phases {
		r.Attempted += ps.Sent
		r.Failed += ps.Failed
	}
	r.absorb(log)
	m := r.Metrics
	m["setup_s"], m["setup_wall_s"] = median(setupCPU), median(setupWall)
	// Every workload's mix is at least 45% LCA, so its lo phase holds
	// several hundred LCA latencies and its p10 dozens of samples below.
	m["lca_p10_ms_lo"] = smp.kindPercentile(phLo, kLCA, 0.1)
	m["p50_ms_lo"], m["p90_ms_lo"], m["p99_ms_lo"] = lo.P50ms, lo.P90ms, lo.P99ms
	m["p50_ms_hi"], m["p90_ms_hi"], m["p99_ms_hi"] = hi.P50ms, hi.P90ms, hi.P99ms
	m["throughput_rps"] = closed.ThroughputRPS
	m["cpu_ms_per_kreq"] = ms(cpuOpen) / (float64(lo.Succeeded+hi.Succeeded) / 1000)
	m["rss_mb"] = peakRSSMiB()
	m["failed_share"] = float64(r.Failed) / float64(r.Attempted)
	return r, nil
}
