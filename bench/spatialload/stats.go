package main

import (
	"math"
	"slices"
)

// minBeyond is the number of samples that must lie above a reported
// percentile: a p99 needs at least 1000 samples, a p99.9 at least 10000.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs,
// which it sorts in place: the smallest sample with at least a q share
// of the samples at or below it. NaN for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	return xs[max(0, min(rank(len(xs), q), len(xs))-1)]
}

// rank is the 1-based nearest rank of the q-quantile of n samples; the
// epsilon keeps q·n from rounding up past an exact integer.
func rank(n int, q float64) int {
	return int(math.Ceil(q*float64(n) - 1e-9))
}

// supported reports whether n samples leave at least minBeyond samples
// above the nearest-rank q-quantile.
func supported(n int, q float64) bool {
	r := rank(n, q)
	return r >= 1 && n-r >= minBeyond
}

// tailQuantiles is the ladder highestSupported picks from.
var tailQuantiles = []float64{0.9999, 0.999, 0.99, 0.95, 0.9, 0.5}

// highestSupported returns the highest quantile of the ladder that n
// samples support, or 0 when none is.
func highestSupported(n int) float64 {
	for _, q := range tailQuantiles {
		if supported(n, q) {
			return q
		}
	}
	return 0
}

func median(xs []float64) float64 {
	return percentile(slices.Clone(xs), 0.5)
}

// quartiles returns the first quartile, median and third quartile with
// the same method as Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), so spreads read the same as in tooling built on
// it. Fewer than two samples give that sample three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := max(1, min(i*m/4, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
