package main

import (
	"bytes"
	"encoding/json"
	"io"
	"path/filepath"
	"testing"
)

// smokeSeconds gives every phase about half a second (lo and hi are
// 15/40 of a run).
const smokeSeconds = 4.0 / 3

func smokeConfig(t *testing.T, w *workload) runConfig {
	return runConfig{w: w, seed: 3, seconds: smokeSeconds, setups: 1, scale: testScale, dir: t.TempDir(), log: io.Discard}
}

// Every workload runs end to end on shrunken trees with no failed or
// wrong request, and its result line carries every gated metric.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			r, err := runUntraced(smokeConfig(t, w))
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, r)
		})
	}
}

// The traced pass measures every gated per-layer metric and writes its
// spans.
func TestSmokeTraced(t *testing.T) {
	for _, name := range []string{"json-adhoc", "dyn-cluster"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, err := workloadByName(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := smokeConfig(t, w)
			cfg.tracePath = filepath.Join(cfg.dir, "spans.jsonl")
			r, err := runTraced(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, r)
			if r.TraceFile == "" || len(r.Spans) == 0 {
				t.Error("no spans recorded")
			}
		})
	}
}

func checkRun(t *testing.T, r *report) {
	t.Helper()
	if r.Failed != 0 || !r.correct() {
		t.Fatalf("failed %d of %d, wrong %d, state %v, mismatches %v, errors %v",
			r.Failed, r.Attempted, r.Wrong, r.StateErrs, r.Mismatches, r.Errors)
	}
	var buf bytes.Buffer
	if err := writeResult(&buf, r); err != nil {
		t.Fatal(err)
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
		t.Errorf("result line has keys other than correct, attempted, failed, metrics: %s", buf.Bytes())
	}
}
