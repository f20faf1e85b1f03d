package main

import (
	"encoding/json"
	"os"
	"testing"
)

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json must name exactly the workloads and gated metrics this
// program measures, with the same units and directions.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), program %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
	}
	var e2e, layer []metricDef
	for _, m := range endToEnd {
		if m.gated {
			e2e = append(e2e, m)
		}
	}
	for _, m := range perLayer {
		if m.gated {
			layer = append(layer, m)
		}
	}
	if len(b.EndToEnd) != len(e2e) || len(b.PerLayer) != len(layer) {
		t.Fatalf("BENCHMARK.json has %d end-to-end and %d per-layer metrics, the program gates %d and %d",
			len(b.EndToEnd), len(b.PerLayer), len(e2e), len(layer))
	}
	for i, m := range e2e {
		got := b.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("end_to_end[%d] = %s %s %s, program %s %s %s", i, got.Name, got.Unit, got.Better, m.name, m.unit, m.better)
		}
		if got.Bound < boundFloor || got.Bound > boundCap {
			t.Errorf("%s: bound %v outside [%v, %v]", got.Name, got.Bound, boundFloor, boundCap)
		}
	}
	for i, m := range layer {
		got := b.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per_layer[%d] = %s %s %s, program %s %s %s", i, got.Name, got.Unit, got.Better, m.name, m.unit, m.better)
		}
	}
}
