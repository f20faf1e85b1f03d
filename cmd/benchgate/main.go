// Command benchgate is the CI benchmark-regression gate: it runs the
// serving benchmarks (E13 engine throughput, E14 dyn churn, E15
// recovery, E16 native-vs-sim backends, E17 wire throughput) several
// times, emits a machine-readable artifact
// (BENCH_10.json — see docs/bench.md for the schema), and fails when
// wall-clock ns/op regresses beyond a tolerance against a checked-in
// baseline.
//
// The gate compares the MINIMUM ns/op across -count runs: the minimum
// is the least noisy estimator of a benchmark's true cost on a shared
// machine (noise only ever adds time), so a 25% regression of the
// minimum is a real slowdown, not scheduler jitter.
//
// Usage:
//
//	benchgate                                  # run, write BENCH_10.json, gate
//	benchgate -count 5 -tolerance 0.25
//	benchgate -write-baseline                  # refresh testdata/bench_baseline.json
//
// Exit status: 0 when every baselined benchmark is within tolerance,
// 1 on regression or a benchmark missing from the run.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
)

// Doc is the artifact schema (docs/bench.md).
type Doc struct {
	// Schema identifies the document format.
	Schema string `json:"schema"`
	// Go is the toolchain that produced the numbers.
	Go string `json:"go"`
	// Count is how many times each benchmark ran; Ns/Allocs are minima
	// across those runs.
	Count      int     `json:"count"`
	Benchmarks []Bench `json:"benchmarks"`
}

// Bench is one benchmark's aggregated result.
type Bench struct {
	// Op is the benchmark name with the GOMAXPROCS suffix stripped,
	// e.g. "BenchmarkE13EngineThroughput/engine-batched".
	Op string `json:"op"`
	// Ns is the minimum wall-clock ns/op observed.
	Ns float64 `json:"ns_per_op"`
	// Allocs is the minimum allocations per op observed.
	Allocs int64 `json:"allocs_per_op"`
	// Runs is how many parsed lines contributed.
	Runs int `json:"runs"`
}

var (
	benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(.*)$`)
	allocsRE  = regexp.MustCompile(`\s([0-9]+) allocs/op`)
)

func main() {
	var (
		benchRE   = flag.String("bench", "E13EngineThroughput|E14DynChurn|E15Recovery|E16NativeBackend|E17WireThroughput", "benchmark regexp passed to go test -bench")
		pkg       = flag.String("pkg", ".", "package to benchmark")
		count     = flag.Int("count", 5, "runs per benchmark (minimum is kept)")
		benchtime = flag.String("benchtime", "1x", "go test -benchtime")
		out       = flag.String("out", "BENCH_10.json", "artifact path ('' = skip)")
		baseline  = flag.String("baseline", "testdata/bench_baseline.json", "checked-in baseline path")
		tolerance = flag.Float64("tolerance", 0.25, "allowed ns/op regression fraction over baseline")
		calibrate = flag.String("calibrate", "", "benchmark op whose measured/baseline ratio rescales the whole baseline to this machine's speed before gating ('' = gate absolute ns/op)")
		writeBase = flag.Bool("write-baseline", false, "write the baseline instead of gating against it")
	)
	flag.Parse()

	raw, err := runBenchmarks(*pkg, *benchRE, *benchtime, *count)
	if err != nil {
		fatal(err)
	}
	doc, err := parse(raw, *count)
	if err != nil {
		fatal(err)
	}
	if len(doc.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines matched -bench %q", *benchRE))
	}

	if *writeBase {
		if err := writeDoc(*baseline, doc); err != nil {
			fatal(err)
		}
		fmt.Printf("benchgate: wrote baseline %s (%d benchmarks)\n", *baseline, len(doc.Benchmarks))
		return
	}
	if *out != "" {
		if err := writeDoc(*out, doc); err != nil {
			fatal(err)
		}
		fmt.Printf("benchgate: wrote %s (%d benchmarks)\n", *out, len(doc.Benchmarks))
	}

	base, err := readDoc(*baseline)
	if err != nil {
		fatal(fmt.Errorf("baseline: %w (run benchgate -write-baseline to create it)", err))
	}
	if failed := gate(os.Stdout, base, doc, *tolerance, *calibrate); failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}

// runBenchmarks shells out to go test, teeing its output to stderr so
// CI logs keep the raw numbers.
func runBenchmarks(pkg, benchRE, benchtime string, count int) ([]byte, error) {
	args := []string{
		"test", "-run", "^$",
		"-bench", benchRE,
		"-benchtime", benchtime,
		"-count", strconv.Itoa(count),
		"-benchmem",
		pkg,
	}
	fmt.Fprintln(os.Stderr, "benchgate: go", args)
	cmd := exec.Command("go", args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		os.Stderr.Write(buf.Bytes())
		return nil, fmt.Errorf("go test: %w", err)
	}
	os.Stderr.Write(buf.Bytes())
	return buf.Bytes(), nil
}

// parse folds go test -bench output into per-benchmark minima.
func parse(raw []byte, count int) (Doc, error) {
	type agg struct {
		ns     float64
		allocs int64
		runs   int
	}
	byOp := map[string]*agg{}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return Doc{}, fmt.Errorf("parsing %q: %w", sc.Text(), err)
		}
		var allocs int64
		if am := allocsRE.FindStringSubmatch(m[3]); am != nil {
			allocs, _ = strconv.ParseInt(am[1], 10, 64)
		}
		a, ok := byOp[m[1]]
		if !ok {
			a = &agg{ns: ns, allocs: allocs}
			byOp[m[1]] = a
		}
		if ns < a.ns {
			a.ns = ns
		}
		if allocs < a.allocs {
			a.allocs = allocs
		}
		a.runs++
	}
	if err := sc.Err(); err != nil {
		return Doc{}, err
	}
	doc := Doc{Schema: "spatialtree-bench/v1", Go: runtime.Version(), Count: count}
	for op, a := range byOp {
		doc.Benchmarks = append(doc.Benchmarks, Bench{Op: op, Ns: a.ns, Allocs: a.allocs, Runs: a.runs})
	}
	sort.Slice(doc.Benchmarks, func(i, j int) bool { return doc.Benchmarks[i].Op < doc.Benchmarks[j].Op })
	return doc, nil
}

// gate compares measured against base and reports per-benchmark
// verdicts; it returns true when any baselined benchmark regressed
// beyond tol or is missing from the run.
//
// A non-empty calibrateOp makes the gate hardware-independent: the
// whole baseline is first rescaled by that benchmark's
// measured/baseline ratio, so a uniformly slower (or faster) machine
// cancels out and only cost relative to the calibration anchor is
// gated. Pick an anchor whose own cost is frozen — CI uses the naive
// per-call arm, which exercises the same kernels and hardware but none
// of the serving-path code a PR is likely to regress. The anchor
// itself trivially gates at ±0%.
func gate(w *os.File, base, measured Doc, tol float64, calibrateOp string) (failed bool) {
	got := map[string]Bench{}
	for _, b := range measured.Benchmarks {
		got[b.Op] = b
	}
	baseOps := map[string]bool{}
	for _, b := range base.Benchmarks {
		baseOps[b.Op] = true
	}
	scale := 1.0
	if calibrateOp != "" {
		m, okM := got[calibrateOp]
		var cb Bench
		okB := false
		for _, b := range base.Benchmarks {
			if b.Op == calibrateOp {
				cb, okB = b, true
				break
			}
		}
		if !okM || !okB {
			where := "this run"
			if okM { // measured fine, so the baseline is the side missing it
				where = "the baseline"
			}
			fmt.Fprintf(w, "FAIL calibration op %q missing from %s\n", calibrateOp, where)
			return true
		}
		scale = m.Ns / cb.Ns
		fmt.Fprintf(w, "calibration: %s ran at %.2fx the baseline machine; baseline rescaled\n", calibrateOp, scale)
	}
	for _, b := range base.Benchmarks {
		m, ok := got[b.Op]
		if !ok {
			fmt.Fprintf(w, "FAIL %-55s missing from this run\n", b.Op)
			failed = true
			continue
		}
		ratio := m.Ns / (b.Ns * scale)
		verdict := "ok  "
		if ratio > 1+tol {
			verdict = "FAIL"
			failed = true
		}
		fmt.Fprintf(w, "%s %-55s %12.0f ns/op vs baseline %12.0f (%+.1f%%, gate +%.0f%%)\n",
			verdict, b.Op, m.Ns, b.Ns*scale, 100*(ratio-1), 100*tol)
	}
	for _, b := range measured.Benchmarks {
		if !baseOps[b.Op] {
			fmt.Fprintf(w, "note %-55s not in baseline (no gate)\n", b.Op)
		}
	}
	if failed {
		fmt.Fprintln(w, "benchgate: ns/op regression beyond tolerance")
	}
	return failed
}

func readDoc(path string) (Doc, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Doc{}, err
	}
	var d Doc
	if err := json.Unmarshal(raw, &d); err != nil {
		return Doc{}, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

func writeDoc(path string, d Doc) error {
	raw, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
