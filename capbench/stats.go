package main

import (
	"math"
	"sort"
)

// Summary condenses one timing's samples the way every capbench timing is
// reported: the median, plus the highest percentile that still has at least
// tailMargin samples beyond it, plus the sample count. With fewer than
// tailMargin+1 samples there is no such percentile and HasTail is false.
type Summary struct {
	N       int     `json:"n"`
	Median  float64 `json:"median"`
	HasTail bool    `json:"has_tail"`
	TailPct float64 `json:"tail_pct,omitempty"`
	Tail    float64 `json:"tail,omitempty"`
}

// tailMargin is how many samples must lie beyond a reported tail percentile.
const tailMargin = 10

// Summarize computes the Summary of xs (which it does not modify).
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	v := sortedCopy(xs)
	s.Median = median(v)
	if n := len(v); n > tailMargin {
		// Nearest rank k = n-tailMargin leaves exactly tailMargin samples
		// above it; its percentile is k/n.
		k := n - tailMargin
		s.HasTail = true
		s.TailPct = 100 * float64(k) / float64(n)
		s.Tail = v[k-1]
	}
	return s
}

// Median returns the median of xs (the mean of the middle pair for even n),
// as Python's statistics.median does; NaN for no samples.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return median(sortedCopy(xs))
}

// Percentile returns the nearest-rank p-th percentile of xs (0 < p <= 100):
// the smallest sample with at least p% of the samples at or below it.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	v := sortedCopy(xs)
	k := int(math.Ceil(p / 100 * float64(len(v))))
	if k < 1 {
		k = 1
	}
	return v[k-1]
}

func sortedCopy(xs []float64) []float64 {
	v := append([]float64(nil), xs...)
	sort.Float64s(v)
	return v
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}
