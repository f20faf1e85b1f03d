package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted on purpose
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}, {0.01, 1}, {0.999, 100}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

// A reported percentile needs at least ten samples beyond it.
func TestHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true}, // rank 990, 10 beyond
		{999, 0.99, false}, // rank 990, 9 beyond
		{1500, 0.99, true},
		{9999, 0.999, false},
		{10000, 0.999, true},
		{20, 0.5, true},
		{19, 0.5, false},
	} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{100000, 0.9999}, {10000, 0.999}, {1500, 0.99}, {999, 0.95}, {200, 0.95}, {100, 0.9}, {20, 0.5}, {19, 0}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},
		{seq(4), 1.25, 2.5, 3.75},
		{seq(11), 3, 6, 9},
		{[]float64{5, 1}, 0, 3, 6}, // the exclusive method extrapolates
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// A bound is three interquartile spreads, rounded up to 5%, at least 10%.
func TestSuggestedBound(t *testing.T) {
	for _, c := range []struct{ iqr, want float64 }{{0.01, 0.10}, {0.03, 0.10}, {0.034, 0.15}, {0.05, 0.15}, {0.07, 0.25}, {0.09, 0.30}} {
		if got := suggestedBound(c.iqr); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("suggestedBound(%v) = %v, want %v", c.iqr, got, c.want)
		}
	}
}
