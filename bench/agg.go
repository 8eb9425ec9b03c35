package main

import (
	"math"
	"slices"
	"sort"
)

// percentile returns the p-quantile (0 < p <= 1) of sorted by the
// nearest-rank rule: the smallest sample with at least p of the samples
// at or below it. sorted must be ascending and non-empty.
func percentile(sorted []int64, p float64) int64 {
	rank := int(math.Ceil(p*float64(len(sorted)) - 1e-9))
	rank = min(max(rank, 1), len(sorted))
	return sorted[rank-1]
}

// median returns the median of xs (mean of the two middle values for an
// even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sliceStat is what one slice of a measured phase recorded.
type sliceStat struct {
	wallNs, cpuNs     int64
	keys, ops, failed int64
	// Per request class: latency percentiles in ns (0 when the class did
	// not run), and the sums a ladder rung is priced from.
	p50, p90, p99 [nClasses]float64
	cls           [nClasses]classSum
}

// classSum totals one class's requests in a slice.
type classSum struct{ reqs, ns, keys, cmds int64 }

func (a *classSum) add(b classSum) {
	a.reqs += b.reqs
	a.ns += b.ns
	a.keys += b.keys
	a.cmds += b.cmds
}

// sumOf totals the given classes; no classes means all of them.
func (s *sliceStat) sumOf(classes ...class) (t classSum) {
	if len(classes) == 0 {
		for c := range s.cls {
			t.add(s.cls[c])
		}
	}
	for _, c := range classes {
		t.add(s.cls[c])
	}
	return t
}

// over returns the median over slices of f.
func over(slices []sliceStat, f func(*sliceStat) float64) float64 {
	vals := make([]float64, len(slices))
	for i := range slices {
		vals[i] = f(&slices[i])
	}
	return median(vals)
}

func (s *sliceStat) keysPerSec() float64  { return float64(s.keys) / (float64(s.wallNs) / 1e9) }
func (s *sliceStat) cpuNsPerKey() float64 { return float64(s.cpuNs) / float64(s.keys) }

// latencyOf sorts samples in place and returns its p50, p90 and p99.
func latencyOf(samples []int64) (p50, p90, p99 float64) {
	if len(samples) == 0 {
		return 0, 0, 0
	}
	slices.Sort(samples)
	return float64(percentile(samples, 0.50)), float64(percentile(samples, 0.90)), float64(percentile(samples, 0.99))
}
