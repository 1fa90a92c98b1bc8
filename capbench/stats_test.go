package main

import (
	"math"
	"math/rand/v2"
	"testing"
)

// beyond counts the samples of xs strictly greater than x.
func beyond(xs []float64, x float64) int {
	n := 0
	for _, v := range xs {
		if v > x {
			n++
		}
	}
	return n
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 5, 1, 9, 7, 2}, 5},
	} {
		if got := Median(tc.xs); got != tc.want {
			t.Errorf("Median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("Median(nil) is not NaN")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(200)
	for _, tc := range []struct{ p, want float64 }{
		{50, 100}, {99, 198}, {99.5, 199}, {100, 200}, {0.1, 1},
	} {
		if got := Percentile(xs, tc.p); got != tc.want {
			t.Errorf("Percentile(1..200, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

// TestSummarizeTailRule pins "the highest percentile that has at least ten
// samples beyond it" and the sample count against known inputs.
func TestSummarizeTailRule(t *testing.T) {
	for _, tc := range []struct {
		n       int
		hasTail bool
		pct     float64
		tail    float64
	}{
		{1, false, 0, 0},
		{10, false, 0, 0},
		{11, true, 100.0 / 11, 1},
		{20, true, 50, 10},
		{100, true, 90, 90},
		{1000, true, 99, 990},
		{12060, true, 100 * 12050.0 / 12060, 12050},
	} {
		xs := seq(tc.n)
		rand.New(rand.NewPCG(1, uint64(tc.n))).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		s := Summarize(xs)
		if s.N != tc.n || s.HasTail != tc.hasTail || s.TailPct != tc.pct || s.Tail != tc.tail {
			t.Errorf("n=%d: got %+v, want tail %v at p%v", tc.n, s, tc.tail, tc.pct)
		}
		if s.Median != Median(xs) {
			t.Errorf("n=%d: median %v, want %v", tc.n, s.Median, Median(xs))
		}
		if !s.HasTail {
			continue
		}
		// Exactly tailMargin samples lie beyond the tail, so no higher
		// sample qualifies.
		if got := beyond(xs, s.Tail); got != tailMargin {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", tc.n, got, tailMargin)
		}
	}
}

func TestSummarizeDoesNotReorder(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input reordered: %v", xs)
	}
}
