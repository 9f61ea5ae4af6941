package core

import (
	"math"
	"slices"

	"nwcq/internal/geom"
)

// measureDist is the package's one distance formula. It returns the
// distance under m of a group of n objects whose k-th closest (1-based)
// lies at squared distance kthD2(k) from q, chosen from a window at
// squared MINDIST winD2. Every distance is the square root of a squared
// distance, and MeasureAvg sums the roots in ascending order, so the
// engine's window gate, the groups it emits and the brute-force oracles
// all produce bit-identical values — which is what lets the gate be
// strict (see evaluateWindows).
//
// For MeasureWindow the value is MINDIST(q, win): the engine keeps the
// minimum over every qualified window it sees containing a better group,
// which realises Equation (4)'s minimum over all qualified windows.
func measureDist(m Measure, n int, kthD2 func(k int) float64, winD2 float64) float64 {
	switch m {
	case MeasureMin:
		return math.Sqrt(kthD2(1))
	case MeasureAvg:
		sum := 0.0
		for k := 1; k <= n; k++ {
			sum += math.Sqrt(kthD2(k))
		}
		return sum / float64(n)
	case MeasureWindow:
		return math.Sqrt(winD2)
	default: // MeasureMax
		return math.Sqrt(kthD2(n))
	}
}

// groupDist computes the distance between q and objs under measure m.
// objs must be the n objects chosen from window win, in ascending
// distance order as nClosest returns them.
func groupDist(q geom.Point, objs []geom.Point, win geom.Rect, m Measure) float64 {
	return measureDist(m, len(objs), func(k int) float64 { return objs[k-1].Dist2(q) }, win.MinDist2(q))
}

// distOrder is the deterministic object ordering used to pick the n
// closest objects of a window: by squared distance, then coordinates,
// then ID, so every scheme returns identical groups regardless of
// discovery order.
type distPoint struct {
	d2 float64
	p  geom.Point
}

func distLess(a, b distPoint) bool {
	if a.d2 != b.d2 {
		return a.d2 < b.d2
	}
	if a.p.X != b.p.X {
		return a.p.X < b.p.X
	}
	if a.p.Y != b.p.Y {
		return a.p.Y < b.p.Y
	}
	return a.p.ID < b.p.ID
}

// nClosest returns the n objects of pts closest to q in ascending
// distance order (all of them if n ≥ len(pts)), breaking distance ties
// deterministically. pts is not modified.
func nClosest(q geom.Point, pts []geom.Point, n int) []geom.Point {
	return selectClosest(q, pts, n, make([]distPoint, len(pts))).points()
}

// selection is the n closest objects of a window with their squared
// distances, in ascending distLess order.
type selection []distPoint

func (s selection) kthD2(k int) float64 { return s[k-1].d2 }

// points returns the selected objects in a freshly allocated slice: it
// ends up in result groups and must not alias pooled scratch.
func (s selection) points() []geom.Point {
	out := make([]geom.Point, len(s))
	for i, dp := range s {
		out[i] = dp.p
	}
	return out
}

// selectClosest selects the n objects of pts closest to q (all of them
// if n ≥ len(pts)) into scratch, which must hold len(pts) entries. The
// selection runs in O(len(pts) + n log n) expected time via quickselect
// — this sits on the hot path of window evaluation.
func selectClosest(q geom.Point, pts []geom.Point, n int, scratch []distPoint) selection {
	n = min(n, len(pts))
	for i, p := range pts {
		scratch[i] = distPoint{d2: p.Dist2(q), p: p}
	}
	quickselect(scratch, n)
	top := scratch[:n]
	slices.SortFunc(top, func(a, b distPoint) int {
		if distLess(a, b) {
			return -1
		}
		if distLess(b, a) {
			return 1
		}
		return 0
	})
	return top
}

// quickselect partitions s so that the k smallest elements under
// distLess occupy s[:k] (unordered). Median-of-three pivoting keeps the
// expected cost linear and behaves well on the nearly-sorted inputs the
// engine produces.
func quickselect(s []distPoint, k int) {
	lo, hi := 0, len(s)
	for hi-lo > 1 && k > lo && k < hi {
		p := medianOfThree(s, lo, hi)
		i, j := lo, hi-1
		for i <= j {
			for distLess(s[i], p) {
				i++
			}
			for distLess(p, s[j]) {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		// s[lo..j] ≤ pivot ≤ s[i..hi).
		switch {
		case k <= j+1:
			hi = j + 1
		case k >= i:
			lo = i
		default:
			return // k lands in the pivot band; done
		}
	}
}

func medianOfThree(s []distPoint, lo, hi int) distPoint {
	a, b, c := s[lo], s[(lo+hi)/2], s[hi-1]
	if distLess(b, a) {
		a, b = b, a
	}
	if distLess(c, b) {
		b = c
		if distLess(b, a) {
			b = a
		}
	}
	return b
}
