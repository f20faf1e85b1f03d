package main

// The parent's summary: one table of end-to-end metrics per workload
// and, for -repeat, the spread each BENCHMARK.json bound is derived from.

import (
	"fmt"
	"io"
	"math"
)

// boundFloor and boundCap are the smallest bound a gated metric gets and
// the largest a regression gate accepts.
const (
	boundFloor = 0.10
	boundCap   = 0.25
)

// suggestedBound derives a metric's regression bound from its observed
// interquartile range as a share of the median: three times that,
// rounded up to the next 5%, so runs of the same code spread by at most
// a third of the bound. A metric whose suggestion exceeds boundCap is
// gated at the cap, with less margin against noise.
func suggestedBound(iqr float64) float64 {
	return max(boundFloor, math.Ceil(3*iqr*20-1e-9)/20)
}

func printSummary(w io.Writer, reports []*report, repeat int) {
	for _, traced := range []bool{false, true} {
		set := endToEnd
		title := "end-to-end metrics (untraced)"
		if traced {
			set, title = perLayer, "per-layer metrics (traced)"
		}
		byWL := map[string][]*report{}
		var names []string
		for _, r := range reports {
			if r.Traced != traced {
				continue
			}
			if _, ok := byWL[r.Workload]; !ok {
				names = append(names, r.Workload)
			}
			byWL[r.Workload] = append(byWL[r.Workload], r)
		}
		if len(names) == 0 {
			continue
		}
		fmt.Fprintf(w, "\n%s, median of %d run(s) per workload:\n", title, repeat)
		fmt.Fprintf(w, "%-28s %-6s", "metric", "unit")
		for _, n := range names {
			fmt.Fprintf(w, " %14s", n)
		}
		fmt.Fprintln(w)
		for _, m := range set {
			fmt.Fprintf(w, "%-28s %-6s", m.name, m.unit)
			for _, n := range names {
				fmt.Fprintf(w, " %14.4f", median(values(byWL[n], m.name)))
			}
			fmt.Fprintln(w)
		}
		if repeat < 2 || traced {
			continue
		}
		fmt.Fprintf(w, "\nspread over %d runs (quartiles as Python's statistics.quantiles; bound = max(10%%, 3 x iqr/median rounded up to 5%%)):\n", repeat)
		fmt.Fprintf(w, "%-14s %-16s %12s %12s %12s %10s %10s %7s\n", "workload", "metric", "median", "q1", "q3", "range/med", "iqr/med", "bound")
		for _, n := range names {
			for _, m := range set {
				if !m.gated {
					continue
				}
				xs := values(byWL[n], m.name)
				q1, q2, q3 := quartiles(xs)
				lo, hi := math.Inf(1), math.Inf(-1)
				for _, x := range xs {
					lo, hi = math.Min(lo, x), math.Max(hi, x)
				}
				iqr := (q3 - q1) / q2
				b := suggestedBound(iqr)
				flag := ""
				switch {
				case b > boundCap:
					flag = "  ! iqr above a third of the 25% cap"
				case b > boundFloor:
					flag = "  ! above 10%"
				}
				fmt.Fprintf(w, "%-14s %-16s %12.4f %12.4f %12.4f %9.1f%% %9.1f%% %6.0f%%%s\n",
					n, m.name, q2, q1, q3, (hi-lo)/q2*100, iqr*100, b*100, flag)
			}
		}
	}
}

func values(rs []*report, name string) []float64 {
	var xs []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			xs = append(xs, v)
		}
	}
	return xs
}
