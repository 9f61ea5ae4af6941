package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail figure resting on fewer is noise.
const minBeyond = 10

// percentile returns the p-quantile (0 < p < 1) of samples by the
// nearest-rank rule, and whether at least minBeyond samples lie beyond
// that rank. samples must be sorted ascending.
func percentile(samples []float64, p float64) (v float64, ok bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	r := rank(p, n)
	return samples[r-1], n-r >= minBeyond
}

// rank is the 1-based nearest rank of the p-quantile of n samples. The
// epsilon keeps a product like 0.95 × 200 from rounding up a rank.
func rank(p float64, n int) int {
	return min(max(int(math.Ceil(p*float64(n)-1e-9)), 1), n)
}

// highestPercentile returns the largest of the candidate percentiles
// (given in percent, descending) that still has minBeyond samples
// beyond it, or 0 when none does.
func highestPercentile(n int, candidates ...float64) float64 {
	for _, c := range candidates {
		if n > 0 && n-rank(c/100, n) >= minBeyond {
			return c
		}
	}
	return 0
}

// sortedMs converts durations to sorted milliseconds.
func sortedMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	sort.Float64s(out)
	return out
}

// median returns the middle of xs (mean of the two middles when even).
// xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// per divides a counter delta by a base count, 0 when the base is 0.
func per(delta, base uint64) float64 {
	if base == 0 {
		return 0
	}
	return float64(delta) / float64(base)
}

// delta is after-before for a monotonic counter. A counter that went
// backwards means the snapshot was taken from a different object (a
// reopened index, say); that is a benchmark bug, so it panics.
func delta(after, before uint64) uint64 {
	if after < before {
		panic("perfbench: counter went backwards")
	}
	return after - before
}

// phaseTotalMs turns a histogram's mean and count into its total, so a
// difference of two snapshots' totals is the time spent in between.
func phaseTotalMs(meanMs float64, count uint64) float64 {
	return meanMs * float64(count)
}

// interval is a half-open span of time in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is parent's duration minus the part of it that the children
// cover. Children may overlap each other and stick out of the parent;
// only their union clipped to the parent is subtracted.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if s < e {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	covered := int64(0)
	curS, curE := int64(0), int64(0)
	open := false
	for _, c := range clipped {
		if open && c.start <= curE {
			curE = max(curE, c.end)
			continue
		}
		if open {
			covered += curE - curS
		}
		curS, curE, open = c.start, c.end, true
	}
	if open {
		covered += curE - curS
	}
	return parent.end - parent.start - covered
}
