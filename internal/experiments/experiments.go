// Package experiments implements the reproduction experiments E1-E12
// (`go run ./cmd/spatialbench -list` prints the index): one per
// quantitative claim of the paper (the paper is analytic, so its
// "tables and figures" are the theorem bounds,
// the curve constants of Section III-B, and the worst-case examples of
// Section III). Each experiment generates its workloads, runs the
// relevant algorithms on the spatial-computer simulator, and renders the
// measurements as tables with the paper's claim alongside.
//
// The cmd/spatialbench binary prints these tables; the repository-root
// benchmarks run the same code under testing.B (docs/bench.md covers
// the serving benchmarks and their regression gate).
package experiments

import (
	"fmt"
	"sort"

	"spatialtree/internal/xstat"
)

// Config controls experiment scale.
type Config struct {
	// Sizes are the input sizes (vertex counts) to sweep; nil uses the
	// experiment's default sweep.
	Sizes []int
	// Seed drives all randomness (workloads and Las Vegas coins).
	Seed uint64
	// Quick shrinks the sweep for smoke tests and benchmarks.
	Quick bool
}

// DefaultConfig is used by cmd/spatialbench.
func DefaultConfig() Config { return Config{Seed: 42} }

// Experiment is one reproduction unit.
type Experiment struct {
	// ID is the experiment identifier, e.g. "E3".
	ID string
	// Title is a short description.
	Title string
	// Claim quotes the paper's quantitative claim being checked.
	Claim string
	// Run executes the experiment and returns its tables.
	Run func(cfg Config) []*xstat.Table
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns the registered experiments sorted by ID.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool {
		// E1 < E2 < ... < E10 < E11 (numeric suffix).
		var a, b int
		fmt.Sscanf(out[i].ID, "E%d", &a)
		fmt.Sscanf(out[j].ID, "E%d", &b)
		return a < b
	})
	return out
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// sizes returns cfg.Sizes or the default (quick-aware) power-of-two
// sweep.
func sizes(cfg Config, quickBits, fullBits []int) []int {
	if len(cfg.Sizes) > 0 {
		return cfg.Sizes
	}
	bits := fullBits
	if cfg.Quick {
		bits = quickBits
	}
	out := make([]int, len(bits))
	for i, b := range bits {
		out[i] = 1 << b
	}
	return out
}
