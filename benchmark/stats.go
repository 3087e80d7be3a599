package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0..1) of an ascending-sorted slice by
// nearest rank: the smallest value with at least p of the samples at or
// below it. An empty slice yields 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// median returns the middle of vs (mean of the two middle values for an
// even count) without modifying vs.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// sample is one timed report: when it was due, relative to the start of the
// measured interval, and how long after that its ReportAck arrived.
type sample struct {
	dueNs int64
	latNs int64
}

// sliceP90Median cuts the measured interval into sliceNs-long slices by due
// time, takes each slice's p90 latency and returns the median of those, in
// nanoseconds. One noisy second moves one slice, not the result. Slices
// with fewer than 20 samples (the cut-off tail of the interval) are left
// out: a p90 needs samples beyond it.
func sliceP90Median(samples []sample, sliceNs int64) float64 {
	bySlice := map[int64][]float64{}
	for _, s := range samples {
		k := s.dueNs / sliceNs
		bySlice[k] = append(bySlice[k], float64(s.latNs))
	}
	var p90s []float64
	for _, lats := range bySlice {
		if len(lats) < 20 {
			continue
		}
		sort.Float64s(lats)
		p90s = append(p90s, percentile(lats, 0.90))
	}
	return median(p90s)
}

// quartiles returns the first quartile, median and third quartile of vs with
// the exclusive method Python's statistics.quantiles(vs, n=4) uses, so a
// spread computed here matches the acceptance rule. It needs two values.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// percentileUnsorted sorts a copy of vs and returns its p-quantile.
func percentileUnsorted(vs []float64, p float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return percentile(s, p)
}
