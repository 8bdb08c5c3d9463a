package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the tail latency the benchmark reports as p99: the 99th
// percentile (nearest rank) when at least ten samples lie beyond it,
// otherwise the highest percentile that still leaves ten samples beyond
// it, so a short run never reports its few slowest samples as a p99.
// pct is the percentile actually taken.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := sorted(xs)
	idx := int(math.Ceil(0.99*float64(n))) - 1
	if n-1-idx < 10 {
		idx = n - 11
	}
	if idx < 0 {
		idx = 0
	}
	return s[idx], 100 * float64(idx+1) / float64(n)
}

// p10 returns the 10th percentile (nearest rank) of xs, 0 when empty.
// The benchmark reports it as its latency: on a host whose speed swings
// with its neighbours, the fast decile follows the code and the median
// follows the neighbours (README.md, "Bounds from measurement").
func p10(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(0.10*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// tailOnly is tail without the percentile taken.
func tailOnly(xs []float64) float64 {
	v, _ := tail(xs)
	return v
}

// ms, us and ns convert a duration to a float in that unit.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ns(d time.Duration) float64 { return float64(d) }
