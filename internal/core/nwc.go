package core

import (
	"context"
	"math"
	"slices"

	"nwcq/internal/geom"
	"nwcq/internal/rstar"
	"nwcq/internal/trace"
)

// Result is the answer to an NWC query.
type Result struct {
	Group
	// Found is false when no qualified window exists (for example when
	// n exceeds the number of objects any l × w window can hold).
	Found bool
}

// NWC answers query qy with the given scheme and measure under no
// cancellation. It is shorthand for NWCCtx with a background context.
func (e *Engine) NWC(qy Query, scheme Scheme, measure Measure) (Result, Stats, error) {
	return e.NWCCtx(context.Background(), qy, scheme, measure)
}

// NWCCtx answers query qy with the given scheme and measure. It
// implements Algorithm 1: a best-first traversal of the R*-tree visits
// objects in ascending distance from q; each object generates its
// search region and a window query; every candidate window found is
// checked against the best group so far; optimisations prune nodes,
// objects and window queries as enabled by the scheme.
//
// The context is consulted at node-visit granularity: once ctx is done
// the traversal stops and the context's error is returned, along with
// the stats accumulated so far.
func (e *Engine) NWCCtx(ctx context.Context, qy Query, scheme Scheme, measure Measure) (Result, Stats, error) {
	return e.NWCTrace(ctx, qy, scheme, measure, nil)
}

// NWCTrace is NWCCtx with per-query structured tracing: when rec is
// non-nil the traversal attributes wall time, node visits and pruning
// decisions to algorithm phases on it. A nil rec costs the query path
// one nil-check branch per instrumentation point and nothing else.
func (e *Engine) NWCTrace(ctx context.Context, qy Query, scheme Scheme, measure Measure, rec *trace.Recorder) (Result, Stats, error) {
	return e.NWCBounded(ctx, qy, scheme, measure, rec, nil)
}

// NWCBounded is NWCTrace with a cooperative shared bound. When sb is
// non-nil, every pruning decision (SRR, DIP, DEP, the window MINDIST
// gate) tests against min(local best, shared cell) — so a bound found
// by any concurrent search over another partition of the dataset
// shrinks this traversal's frontier at node-visit granularity — and
// every local improvement is published back into the cell.
//
// Sharing is sound for the single-best NWC search because the cell is
// monotone non-increasing and always at least the final global best B:
// a group pruned against it has distance ≥ B, so only non-answers are
// skipped, and the search that discovers the globally best group can
// never see a cell value below that group's distance before emitting
// it (every other group is at least as far). The result's Found/Dist
// therefore still describe the best group over this engine's own data,
// except that groups at distance ≥ the global bound may be elided —
// exactly the ones a scatter-gather merge discards anyway. See
// DESIGN.md §12.
func (e *Engine) NWCBounded(ctx context.Context, qy Query, scheme Scheme, measure Measure, rec *trace.Recorder, sb *rstar.SharedBound) (Result, Stats, error) {
	if err := qy.Validate(); err != nil {
		return Result{}, Stats{}, err
	}
	if !measure.Valid() {
		return Result{}, Stats{}, errInvalidMeasure
	}
	if err := e.checkScheme(scheme); err != nil {
		return Result{}, Stats{}, err
	}
	best := Group{Dist: math.Inf(1)}
	found := false
	bound := func() float64 { return best.Dist }
	emit := func(g Group) {
		if g.Dist < best.Dist {
			best = g
			found = true
		}
	}
	if sb != nil {
		bound = func() float64 {
			b := best.Dist
			if g := sb.Load(); g < b {
				b = g
			}
			return b
		}
		emit = func(g Group) {
			if g.Dist < best.Dist {
				best = g
				found = true
				sb.Tighten(g.Dist)
			}
		}
	}
	stats, err := e.search(ctx, qy, scheme, bound, emit, measure, rec, sb)
	if err != nil {
		return Result{}, stats, err
	}
	if !found {
		return Result{Found: false}, stats, nil
	}
	return Result{Group: best, Found: true}, stats, nil
}

// pqItem is an element of the best-first priority queue: an index node
// (with the MBR recorded by its parent, so pruning needs no extra I/O)
// or a data object together with the leaf that stores it (the hook IWP
// needs).
type pqItem struct {
	dist2  float64
	isNode bool
	id     rstar.NodeID // node id, or the containing leaf for objects
	mbr    geom.Rect    // node items only
	point  geom.Point   // object items only
}

// pqueue is a typed binary min-heap on dist2, avoiding the boxing of
// container/heap in this hot path.
type pqueue []pqItem

func (pq *pqueue) push(it pqItem) {
	*pq = append(*pq, it)
	i := len(*pq) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if (*pq)[parent].dist2 <= (*pq)[i].dist2 {
			break
		}
		(*pq)[parent], (*pq)[i] = (*pq)[i], (*pq)[parent]
		i = parent
	}
}

func (pq *pqueue) pop() pqItem {
	h := *pq
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	*pq = h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h) && h[l].dist2 < h[smallest].dist2 {
			smallest = l
		}
		if r < len(h) && h[r].dist2 < h[smallest].dist2 {
			smallest = r
		}
		if smallest == i {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
	return top
}

// search drives the shared NWC/kNWC traversal. bound returns the current
// pruning distance (the distance of the best group for NWC, of the k-th
// group for kNWC, +Inf while unset); emit receives, in discovery order,
// every candidate group strictly closer than the bound at the time.
//
// All accounting goes onto the returned Stats, a carrier owned by this
// one query: node visits are counted by a per-query tree Reader (which
// also keeps the index-wide cumulative atomic total exact), so
// concurrent searches never share a mutable counter. The reader also
// checks ctx before every node read, giving cancellation at node-visit
// granularity.
func (e *Engine) search(ctx context.Context, qy Query, scheme Scheme, bound func() float64, emit func(Group), measure Measure, rec *trace.Recorder, sb *rstar.SharedBound) (Stats, error) {
	var st Stats
	q, l, w, n := qy.Q, qy.L, qy.W, qy.N
	r := e.tree.Reader(ctx, &st.NodeVisits).WithTrace(rec).WithBound(sb)

	// Working memory (heap, candidate buffer, selection scratch) is
	// borrowed from a pool: under batch load the steady state allocates
	// none of it per query.
	sc := getScratch()
	defer putScratch(sc)
	pq := &sc.pq
	rec.Enter(trace.PhaseDescent)
	root, err := r.Node(e.tree.Root())
	if err != nil {
		return st, err
	}
	rootMBR := root.MBR()
	pq.push(pqItem{dist2: rootMBR.MinDist2(q), isNode: true, id: e.tree.Root(), mbr: rootMBR})

	for len(*pq) > 0 {
		it := pq.pop()
		if it.isNode {
			b := bound()
			// DIP (Section 3.3.2): prune the node when no object inside
			// its MBR can generate a window closer than the bound. The
			// MBR came from the parent, so pruning costs no node visit.
			if scheme.DIP && !math.IsInf(b, 1) &&
				geom.NodeWindowLowerBound2(q, it.mbr, l, w) >= b*b {
				st.NodesPruned++
				rec.Count(trace.CtrDIPPruned, 1)
				continue
			}
			// DEP node pruning (Section 3.3.3): extend the MBR to cover
			// every window its objects can generate; if the density grid
			// bounds the extended region's population below n, no object
			// inside can generate a qualified window.
			if scheme.DEP {
				st.GridProbes++
				if e.density.PrunesRect(geom.ExtendMBR(q, it.mbr, l, w), n) {
					st.NodesPruned++
					rec.Count(trace.CtrDEPPrunedNodes, 1)
					continue
				}
			}
			node, err := r.Node(it.id)
			if err != nil {
				return st, err
			}
			if node.Leaf {
				for _, p := range node.Points {
					pq.push(pqItem{dist2: p.Dist2(q), id: node.ID, point: p})
				}
				rec.Heap(len(*pq))
				continue
			}
			for i, r := range node.Rects {
				pq.push(pqItem{dist2: r.MinDist2(q), isNode: true, id: node.Children[i], mbr: r})
			}
			rec.Heap(len(*pq))
			continue
		}

		// Object item: generate and evaluate its candidate windows.
		rec.Enter(trace.PhaseSRR)
		st.ObjectsProcessed++
		p := it.point
		var sr geom.Rect
		if scheme.SRR {
			// SRR (Section 3.3.1): skip the object when every window it
			// generates is at least bound away; otherwise shrink SR_p.
			b := bound()
			sr = geom.ShrinkSearchRegion(q, p, l, w, b)
			if sr.IsEmpty() {
				st.ObjectsSkipped++
				rec.Count(trace.CtrSRRSkips, 1)
				rec.Enter(trace.PhaseDescent)
				continue
			}
			if !math.IsInf(b, 1) {
				rec.Count(trace.CtrSRRShrinks, 1)
			}
		} else {
			sr = geom.SearchRegion(q, p, l, w)
		}
		// DEP window-query cancellation: a search region that cannot
		// hold n objects generates no qualified window.
		if scheme.DEP {
			st.GridProbes++
			if e.density.PrunesRect(sr, n) {
				st.ObjectsSkipped++
				rec.Count(trace.CtrDEPSkippedObjects, 1)
				rec.Enter(trace.PhaseDescent)
				continue
			}
		}
		st.WindowQueries++
		sc.buf = sc.buf[:0]
		collect := func(cp geom.Point) bool {
			sc.buf = append(sc.buf, cp)
			return true
		}
		rec.Enter(trace.PhaseWindowEnum)
		if scheme.IWP {
			err = e.iwpIdx.WindowQuery(r, it.id, sr, collect)
		} else {
			err = r.Search(sr, collect)
		}
		if err != nil {
			return st, err
		}
		rec.Candidates(len(sc.buf))
		rec.Enter(trace.PhaseVerify)
		e.evaluateWindows(qy, p, sc, measure, bound, emit, &st, rec)
		rec.Enter(trace.PhaseDescent)
	}
	return st, nil
}

// evaluateWindows enumerates the candidate windows generated by anchor
// object p from the candidates returned by its window query (sc.buf),
// following Section 3.2: p sits on the quadrant-appropriate vertical
// edge and each candidate object on the appropriate horizontal edge. A
// sliding two-pointer over the y-sorted candidates counts each window's
// population in amortised constant time. sc also supplies the Fenwick
// and selection scratch, reused across anchors and queries.
func (e *Engine) evaluateWindows(qy Query, p geom.Point, sc *searchScratch, measure Measure, bound func() float64, emit func(Group), st *Stats, rec *trace.Recorder) {
	cands := sc.buf
	q, l, w, n := qy.Q, qy.L, qy.W, qy.N
	// Every candidate window generated by p shares its x-interval; only
	// objects inside it can be window contents or horizontal anchors.
	var xlo, xhi float64
	if geom.OnRightEdge(q, p) {
		xlo, xhi = p.X-l, p.X
	} else {
		xlo, xhi = p.X, p.X+l
	}
	s := cands[:0] // filter in place; cands is the caller's scratch buffer
	for _, c := range cands {
		if c.X >= xlo && c.X <= xhi {
			s = append(s, c)
		}
	}
	if len(s) < n {
		return
	}
	top := geom.AnchorsTopEdge(q, p)
	if top {
		slices.SortFunc(s, func(a, b geom.Point) int {
			switch {
			case a.Y < b.Y:
				return -1
			case a.Y > b.Y:
				return 1
			default:
				return 0
			}
		})
	} else {
		slices.SortFunc(s, func(a, b geom.Point) int {
			switch {
			case a.Y > b.Y:
				return -1
			case a.Y < b.Y:
				return 1
			default:
				return 0
			}
		})
	}
	// Order-statistic tracking of the sliding window's object distances
	// yields each window's exact group distance in O(log s), so windows
	// whose group cannot beat the bound skip selection altogether.
	// MeasureWindow needs no object distances. For small candidate sets
	// the per-anchor setup outweighs the per-window savings; those go
	// straight to selection, which applies the same gate.
	const fenwickThreshold = 96
	var fen *distStats
	var ranks []int
	if measure != MeasureWindow && len(s) >= fenwickThreshold {
		d2 := sc.floats(len(s))
		for i, c := range s {
			d2[i] = c.Dist2(q)
		}
		fen = &sc.fen
		fen.reset(d2)
		ranks = sc.ints(len(s))
		for i, v := range d2 {
			ranks[i] = fen.rankOf(v)
		}
	}

	lo := 0
	for i, o := range s {
		if fen != nil {
			fen.add(ranks[i])
		}
		// Horizontal anchors on the wrong side of p generate windows
		// that would not contain p; skip them (Section 3.2).
		if top && o.Y < p.Y || !top && o.Y > p.Y {
			continue
		}
		// Partners sharing a y coordinate generate the same window;
		// evaluate it only at the last duplicate, where the content
		// prefix s[lo..i] is complete. Evaluating earlier would emit
		// groups that are not the window's n closest objects.
		if i+1 < len(s) && s[i+1].Y == o.Y {
			continue
		}
		// Window y-interval: [o.Y-w, o.Y] for top anchors, [o.Y, o.Y+w]
		// for bottom anchors. Contents are s[lo..i].
		if top {
			for s[lo].Y < o.Y-w {
				if fen != nil {
					fen.remove(ranks[lo])
				}
				lo++
			}
		} else {
			for s[lo].Y > o.Y+w {
				if fen != nil {
					fen.remove(ranks[lo])
				}
				lo++
			}
		}
		st.CandidateWindows++
		if i-lo+1 < n {
			continue
		}
		st.QualifiedWindows++
		win := geom.CandidateWindow(q, p, o, l, w)
		winD2 := win.MinDist2(q)
		// Strict gate: emit and knwcState.insert both discard a group at
		// distance ≥ b, and measureDist gives the gate, the emitted group
		// and the oracles the same bits, so a window whose group ties the
		// bound is skipped before anything is materialised. The window's
		// MINDIST bounds every measure from below.
		b := bound()
		if math.Sqrt(winD2) >= b {
			continue
		}
		if fen != nil && measureDist(measure, n, fen.kthD2, winD2) >= b {
			continue
		}
		top := selectClosest(q, s[lo:i+1], n, sc.distPoints(i+1-lo))
		d := measureDist(measure, n, top.kthD2, winD2)
		if d >= b {
			continue
		}
		rec.Count(trace.CtrGroupsEmitted, 1)
		emit(Group{Objects: top.points(), Dist: d, Window: win})
	}
}
