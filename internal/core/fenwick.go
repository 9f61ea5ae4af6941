package core

import "slices"

// distStats is an order-statistic structure over the objects currently
// inside the sliding candidate window: a Fenwick (binary indexed) tree
// over coordinate-compressed squared distances, tracking per-rank counts.
//
// evaluateWindows slides a window over the y-sorted candidates of one
// anchor; each object enters and leaves the window exactly once, and for
// every candidate window the engine needs the distance of the window's
// best group — the n-th smallest object distance for MeasureMax, the
// smallest for MeasureMin, the mean of the n smallest for MeasureAvg.
// Computing those from scratch costs O(s) per window (O(s²) per anchor);
// kthD2 answers each rank in O(log s), and measureDist turns the ranks
// into the exact group distance, so groups are only selected for windows
// whose distance beats the current pruning bound.
type distStats struct {
	d2s   []float64 // sorted unique squared distances; rank i ↔ d2s[i]
	cnt   []int     // Fenwick tree of counts (1-based)
	total int
}

// newDistStats prepares ranks for the given squared distances (one per
// candidate object; duplicates welcome). The structure starts empty.
func newDistStats(allD2 []float64) *distStats {
	ds := &distStats{}
	ds.reset(allD2)
	return ds
}

// reset re-initialises ds for a new set of squared distances, reusing
// the slice capacity of a previous use — per-query scratch holds one
// distStats so anchor evaluation stops allocating Fenwick arrays.
func (ds *distStats) reset(allD2 []float64) {
	ds.d2s = append(ds.d2s[:0], allD2...)
	slices.Sort(ds.d2s)
	ds.d2s = slices.Compact(ds.d2s)
	n := len(ds.d2s)
	if cap(ds.cnt) < n+1 {
		ds.cnt = make([]int, n+1)
	}
	ds.cnt = ds.cnt[:n+1]
	clear(ds.cnt)
	ds.total = 0
}

// rankOf returns the 0-based rank of a squared distance that is
// guaranteed to be present in the compressed domain.
func (ds *distStats) rankOf(d2 float64) int {
	lo, hi := 0, len(ds.d2s)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if ds.d2s[mid] < d2 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (ds *distStats) add(rank int) {
	for i := rank + 1; i <= len(ds.d2s); i += i & (-i) {
		ds.cnt[i]++
	}
	ds.total++
}

func (ds *distStats) remove(rank int) {
	for i := rank + 1; i <= len(ds.d2s); i += i & (-i) {
		ds.cnt[i]--
	}
	ds.total--
}

// kthD2 returns the k-th smallest (1-based) squared distance currently
// in the window. The caller guarantees 1 ≤ k ≤ total.
func (ds *distStats) kthD2(k int) float64 {
	pos := 0
	remain := k
	// Highest power of two within the tree size.
	step := 1
	for step*2 <= len(ds.d2s) {
		step *= 2
	}
	for ; step > 0; step /= 2 {
		next := pos + step
		if next <= len(ds.d2s) && ds.cnt[next] < remain {
			remain -= ds.cnt[next]
			pos = next
		}
	}
	return ds.d2s[pos]
}
