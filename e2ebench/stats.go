package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie strictly above a reported
// percentile: a p99 needs at least 1000 samples, a p50 at least 20.
const minBeyond = 10

// percentile returns the exact nearest-rank p-quantile (0 < p < 1) of
// raw samples — the value at rank ⌈p·n⌉ of the sorted samples — and how
// many samples lie beyond that rank. ok is false when fewer than
// minBeyond samples lie beyond it: a percentile without that support is
// not reported.
func percentile(samples []float64, p float64) (v float64, beyond int, ok bool) {
	n := len(samples)
	if n == 0 || p <= 0 || p >= 1 {
		return 0, 0, false
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	beyond = n - rank
	return sorted[rank-1], beyond, beyond >= minBeyond
}

// metric is one reported number with its unit and the sample count it
// rests on (0 for counters and ratios that are not a sample statistic).
type metric struct {
	Value   float64
	Unit    string
	Samples int
}

// metrics collects a run's named numbers.
type metrics struct {
	m map[string]metric
}

func newMetrics() *metrics { return &metrics{m: map[string]metric{}} }

func (ms *metrics) set(name, unit string, v float64, samples int) {
	ms.m[name] = metric{Value: v, Unit: unit, Samples: samples}
}

// pct reports percentile p of samples as name and whether it had
// minBeyond samples beyond it. Without that support it reads 0.
func (ms *metrics) pct(name, unit string, samples []float64, p float64) bool {
	v, _, ok := percentile(samples, p)
	if !ok {
		v = 0
	}
	ms.set(name, unit, v, len(samples))
	return ok
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func durMs(ns int64) float64 { return float64(ns) / 1e6 }
