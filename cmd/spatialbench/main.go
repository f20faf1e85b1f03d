// Command spatialbench regenerates the reproduction experiments E1-E12
// (one per quantitative claim of "Low-Depth Spatial Tree Algorithms",
// IPDPS 2024; -list prints the index with the claim each experiment
// checks, and docs/bench.md covers the serving benchmarks E13-E17).
//
// Usage:
//
//	spatialbench -list                 # show the experiment index
//	spatialbench                       # run everything (full sizes)
//	spatialbench -exp E3,E9 -seed 7    # selected experiments
//	spatialbench -quick                # reduced sizes (CI smoke)
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"spatialtree/internal/experiments"
)

func main() {
	var (
		expFlag  = flag.String("exp", "", "comma-separated experiment ids (default: all)")
		seed     = flag.Uint64("seed", 42, "random seed for workloads and Las Vegas coins")
		quick    = flag.Bool("quick", false, "reduced input sizes")
		list     = flag.Bool("list", false, "list experiments and exit")
		sizesStr = flag.String("sizes", "", "comma-separated vertex counts overriding the default sweep")
		csv      = flag.Bool("csv", false, "emit tables as CSV instead of aligned text")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n     claim: %s\n", e.ID, e.Title, e.Claim)
		}
		return
	}

	cfg := experiments.Config{Seed: *seed, Quick: *quick}
	if *sizesStr != "" {
		for _, s := range strings.Split(*sizesStr, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "spatialbench: bad size %q\n", s)
				os.Exit(2)
			}
			cfg.Sizes = append(cfg.Sizes, n)
		}
	}

	selected := experiments.All()
	if *expFlag != "" {
		selected = selected[:0]
		for _, id := range strings.Split(*expFlag, ",") {
			e, ok := experiments.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "spatialbench: unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	for _, e := range selected {
		start := time.Now()
		if *csv {
			for _, tb := range e.Run(cfg) {
				fmt.Println(tb.CSV())
			}
			continue
		}
		fmt.Printf("### %s — %s\n", e.ID, e.Title)
		fmt.Printf("paper claim: %s\n\n", e.Claim)
		for _, tb := range e.Run(cfg) {
			fmt.Println(tb.String())
		}
		fmt.Printf("(%s finished in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}
