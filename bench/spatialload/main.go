// Command spatialload is the end-to-end serving benchmark: an open-loop
// load generator driving real in-process spatialtree servers over
// loopback TCP, with every response checked against a sequential oracle.
//
// Each workload runs in its own process. The process builds the system
// nine times (the median CPU time of a set-up is setup_s; the last
// set-up serves), warms it at rate lo, runs Poisson arrivals at rate lo and
// then hi with latency charged from each request's intended send time,
// and finishes with a closed loop that measures throughput. A traced
// run (-trace) replaces the closed loop with traced open-loop phases and
// direct replays through each layer, and reports the per-layer metrics.
//
// Usage, from this module's directory (bench/):
//
//	go run ./spatialload -seed 1              # every workload, untraced
//	go run ./spatialload -seed 1 -trace       # plus a traced pass each
//	go run ./spatialload -seed 1 -repeat 5    # spread per workload and metric
//	go run ./spatialload -workload json-adhoc -seed 3 -seconds 24 -trace 1
//
// With -workload the run happens in this process and ends with a
// one-line JSON result: {"correct", "attempted", "failed", "metrics"}.
// See ../README.md for the workloads, metrics, bounds and known limits.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

const (
	// defaultSeconds is the measured time of one run; BENCHMARK.json's
	// run_seconds says the same.
	defaultSeconds = 24
	// setupsPerRun fresh set-ups give setup_s as their median. One takes
	// 0.05-0.4 s, and the set-ups of a single run differed by up to half.
	setupsPerRun = 9
	// runDeadline ends a stuck workload process before the 180 s a run
	// may take.
	runDeadline = 170 * time.Second
	reportTag   = "report: "
	// outDir receives reports, span files and temporary stores; it is
	// git-ignored.
	outDir = "out"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	traceOut string
	out      string
	repeat   int
	proxy    bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spatialload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run one workload in this process (default: every workload, each in a child process)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of the request pool and the arrival schedules")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "measured seconds per run, in sixteenths: 1 warm-up, 7 at lo, 6 at hi, 2 in the closed loop")
	fs.BoolVar(&o.traced, "trace", false, "run the traced pass and report per-layer metrics (-trace 0|1 is accepted too)")
	fs.StringVar(&o.traceOut, "trace-out", "", "span file of a traced run (default out/trace-<workload>-seed<seed>.jsonl)")
	fs.StringVar(&o.out, "out", "", `report file with every metric and the run's stamp (default out/spatialload-...json; "-" writes none)`)
	fs.IntVar(&o.repeat, "repeat", 1, "run the whole set N times and print median, quartiles and spread per workload and metric")
	fs.BoolVar(&o.proxy, "proxy", false, "dyn-cluster: serve in proxy mode and send every request through a non-owner (reproduces the proxy stall)")
	if err := fs.Parse(boolArgs(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 || o.seconds <= 0 || o.repeat < 1 {
		fmt.Fprintln(stderr, "spatialload: unexpected arguments; -seconds and -repeat must be positive")
		fs.Usage()
		return 2
	}
	if o.workload != "" {
		return runChild(o, stdout, stderr)
	}
	return runParent(o, stdout, stderr)
}

// boolArgs rewrites "-trace 0|1|true|false" as "-trace=<v>": the flag
// package never lets a boolean flag consume the next argument.
func boolArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, a+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

func runChild(o options, stdout, stderr io.Writer) int {
	w, err := workloadByName(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "spatialload:", err)
		return 2
	}
	deadline := time.AfterFunc(runDeadline, func() {
		fmt.Fprintf(stderr, "spatialload: %s did not finish within %v\n", w.name, runDeadline)
		os.Exit(3)
	})
	defer deadline.Stop()
	tmp := filepath.Join(outDir, fmt.Sprintf("tmp-%d", os.Getpid()))
	defer os.RemoveAll(tmp)
	cfg := runConfig{w: w, seed: o.seed, seconds: o.seconds, setups: setupsPerRun, dir: tmp, log: stdout, proxy: o.proxy}
	sh := newShape(o.seconds)
	fmt.Fprintf(stdout, "spatialload %s seed %d traced=%v: warm-up %.1fs, lo %.0f/s %.1fs, hi %.0f/s %.1fs, closed %.1fs (%d conns x %d)\n",
		w.name, o.seed, o.traced, sh.warm.Seconds(), w.lo, sh.lo.Seconds(), w.hi, sh.hi.Seconds(), sh.closed.Seconds(), conns, w.outstanding)
	var r *report
	if o.traced {
		cfg.tracePath = o.traceOut
		if cfg.tracePath == "" {
			cfg.tracePath = filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, o.seed))
		}
		r, err = runTraced(cfg)
	} else {
		r, err = runUntraced(cfg)
	}
	if err != nil {
		fmt.Fprintln(stderr, "spatialload:", err)
		return 1
	}
	printReport(stdout, r)
	b, err := json.Marshal(finite(r))
	if err != nil {
		fmt.Fprintln(stderr, "spatialload:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s%s\n", reportTag, b)
	if o.out != "-" {
		path := o.out
		if path == "" {
			name := fmt.Sprintf("spatialload-%s-seed%d.json", w.name, o.seed)
			if o.traced {
				name = fmt.Sprintf("spatialload-%s-seed%d-trace.json", w.name, o.seed)
			}
			path = filepath.Join(outDir, name)
		}
		if err := writeStamp(path, o, []*report{r}); err != nil {
			fmt.Fprintln(stderr, "spatialload:", err)
			return 1
		}
	}
	if err := writeResult(stdout, r); err != nil {
		fmt.Fprintln(stderr, "spatialload:", err)
		return 1
	}
	return 0
}

func printReport(w io.Writer, r *report) {
	for _, ps := range r.Phases {
		if ps.ThroughputRPS > 0 {
			fmt.Fprintf(w, "%-9s %26.1fs sent %6d ok %6d failed %d  throughput %.1f req/s\n",
				ps.Phase, ps.Seconds, ps.Sent, ps.Succeeded, ps.Failed, ps.ThroughputRPS)
			continue
		}
		fmt.Fprintln(w, describe(ps))
		if ps.Sent > 0 && !supported(ps.Sent, 0.99) {
			fmt.Fprintf(w, "          note: %d samples leave fewer than %d beyond p99; highest supported percentile p%g\n",
				ps.Sent, minBeyond, ps.TailQuantile*100)
		}
	}
	if r.Traced {
		fmt.Fprintln(w, "per-layer metrics:")
		printMetrics(w, perLayer, r.Metrics)
		fmt.Fprintf(w, "blocking path at p50: codec %.1f + engine wait %.1f + kernel %.1f = %.1f us of p50_ms_lo %.1f us; residual %.1f us, transport %.1f us\n",
			r.Metrics["path.codec_us"], r.Metrics["engine.wait_us"], r.Metrics["path.kernel_us"], r.Metrics["path.blocking_us"],
			r.Metrics["path.blocking_us"]+r.Metrics["path.residual_us"], r.Metrics["path.residual_us"], r.Metrics["net.transport_us"])
		if r.Metrics["path.residual_us"] < 0 {
			fmt.Fprintln(w, "WARNING: the measured blocking steps exceed p50_ms_lo")
		}
		fmt.Fprintf(w, "spans (self = duration minus the part its children cover): %s\n", r.TraceFile)
		for _, s := range r.Spans {
			fmt.Fprintf(w, "  %-26s %7d  p50 %10.1f us  self p50 %10.1f us\n", s.Name, s.Count, s.P50us, s.SelfP50)
		}
		if r.Dropped > 0 {
			fmt.Fprintf(w, "  %d spans dropped (buffer full)\n", r.Dropped)
		}
	} else {
		fmt.Fprintln(w, "end-to-end metrics:")
		printMetrics(w, endToEnd, r.Metrics)
	}
	fmt.Fprintf(w, "attempted %d failed %d wrong answers %d correct=%v\n", r.Attempted, r.Failed, r.Wrong, r.correct())
	for _, m := range r.Mismatches {
		fmt.Fprintln(w, "  mismatch:", m)
	}
	for _, e := range r.Errors {
		fmt.Fprintln(w, "  error:", e)
	}
	for _, e := range r.StateErrs {
		fmt.Fprintln(w, "  state:", e)
	}
}

// stamp is the -out file: every metric plus what produced it.
type stamp struct {
	Go         string    `json:"go"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	NumCPU     int       `json:"nproc"`
	Seed       uint64    `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Revision   string    `json:"vcs_revision"`
	Modified   string    `json:"vcs_modified,omitempty"`
	Reports    []*report `json:"reports"`
}

func writeStamp(path string, o options, reports []*report) error {
	st := stamp{Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Seed: o.seed, Seconds: o.seconds, Revision: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				st.Revision = s.Value
			case "vcs.modified":
				st.Modified = s.Value
			}
		}
	}
	for _, r := range reports {
		st.Reports = append(st.Reports, finite(r))
	}
	b, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func runParent(o options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "spatialload:", err)
		return 1
	}
	var all []*report
	healthy := true
	for rep := 0; rep < o.repeat; rep++ {
		for _, w := range workloads {
			modes := []bool{false}
			if o.traced {
				modes = append(modes, true)
			}
			for _, traced := range modes {
				r, err := spawn(exe, w.name, o, traced, rep, stdout, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "spatialload: %s: %v\n", w.name, err)
					healthy = false
					continue
				}
				healthy = healthy && r.correct() && r.Failed == 0
				all = append(all, r)
			}
		}
	}
	printSummary(stdout, all, o.repeat)
	if o.out != "-" {
		path := o.out
		if path == "" {
			path = filepath.Join(outDir, fmt.Sprintf("spatialload-seed%d.json", o.seed))
		}
		if err := writeStamp(path, o, all); err != nil {
			fmt.Fprintln(stderr, "spatialload:", err)
			return 1
		}
		fmt.Fprintln(stdout, "wrote", path)
	}
	if !healthy {
		fmt.Fprintln(stderr, "spatialload: some runs failed requests or returned wrong answers")
		return 1
	}
	return 0
}

// spawn runs one workload in a child process, echoing its output, and
// returns the report it printed.
func spawn(exe, name string, o options, traced bool, rep int, stdout, stderr io.Writer) (*report, error) {
	args := []string{"-workload", name, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace=" + strconv.FormatBool(traced),
		"-out", "-", "-proxy=" + strconv.FormatBool(o.proxy)}
	if traced {
		args = append(args, "-trace-out", filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d-run%d.jsonl", name, o.seed, rep+1)))
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var r *report
	sc := bufio.NewScanner(pipe)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, reportTag):
			r = new(report)
			if err := json.Unmarshal([]byte(line[len(reportTag):]), r); err != nil {
				r = nil
			}
		case strings.HasPrefix(line, "{"):
			// the one-line result, already summarized by the report
		default:
			fmt.Fprintf(stdout, "[%s] %s\n", name, line)
		}
	}
	_, _ = io.Copy(io.Discard, pipe) // drain whatever a scan error left, so the child can exit
	werr := cmd.Wait()
	if err := errors.Join(sc.Err(), werr); err != nil {
		return nil, err
	}
	if r == nil {
		return nil, errors.New("child printed no report")
	}
	return r, nil
}
