package shard

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"time"

	"nwcq"
	"nwcq/internal/core"
	"nwcq/internal/geom"
	wpool "nwcq/internal/pool"
	"nwcq/internal/qcache"
	"nwcq/internal/qevent"
	"nwcq/internal/rstar"
)

// Query routing. The plan for both NWC and kNWC is:
//
//  1. Scatter: run the query locally on the home shard (the cell
//     containing q) to seed a distance bound, then on the remaining
//     shards in ascending MINDIST(q, shard bounds) order, skipping any
//     shard whose MINDIST exceeds the current bound — the paper's
//     best-first node pruning lifted to shard granularity. One loop
//     (scatter) serves every width: the home shard runs alone, then
//     Options.Parallelism workers claim the siblings off that schedule —
//     one worker claims them in order. For NWC every shard traversal
//     prunes against a shared atomic bound cell (threaded through
//     rstar.Reader into SRR/DIP/DEP at node-visit granularity) and
//     publishes its improvements back, so the home shard's best prunes
//     inside every sibling at any width; queued siblings whose MINDIST
//     exceeds the cell are skipped at claim time. kNWC shares its merge
//     estimate at claim granularity only — see scatterKNWC for why
//     engine-level sharing would be unsound there.
//  2. Border: local answers are exact for groups drawn from one
//     shard's points, but a window straddling a shard boundary can
//     cluster points no single shard holds together. Every group with
//     distance at most B has all its objects — and every point of any
//     window that could generate a competing candidate — inside
//     box(q, B+l, B+w), so fetching that box's points from every shard
//     whose bounds intersect it and enumerating candidate groups over
//     the fetched set (core.CandidateGroups) provably covers all of
//     them. Candidates from partially-fetched windows are real feasible
//     groups (their objects genuinely co-fit), so they can never beat
//     the true optimum — taking the minimum stays exact.
//  3. kNWC needs the full candidate *sequence* below the answer's k-th
//     distance, not just the best group, so the border step becomes a
//     certification loop: fetch box(D+l, D+w), greedily merge the
//     candidate list truncated at D (below D it is provably identical
//     to the full dataset's list), and accept when k groups emerged
//     with the k-th at most D; otherwise double D and rerun. The local
//     chains only seed D — correctness never depends on them.
//
// The border and certify fetches fan their per-shard window queries out
// over the same worker pool, with per-shard results concatenated in
// shard order so the candidate enumeration stays deterministic.
//
// See DESIGN.md §11 for the containment proofs and §12 for the
// shared-bound safety argument.

// measureOf maps the public measure onto the core engine's.
func measureOf(m nwcq.Measure) (core.Measure, error) {
	switch m {
	case nwcq.MaxDistance:
		return core.MeasureMax, nil
	case nwcq.MinDistance:
		return core.MeasureMin, nil
	case nwcq.AvgDistance:
		return core.MeasureAvg, nil
	case nwcq.WindowDistance:
		return core.MeasureWindow, nil
	default:
		return 0, fmt.Errorf("nwcq: unknown measure %d", int(m))
	}
}

func coreQuery(q nwcq.Query) core.Query {
	return core.Query{Q: geom.Point{X: q.X, Y: q.Y}, L: q.Length, W: q.Width, N: q.N}
}

func groupOut(g core.Group) nwcq.Group {
	objs := make([]nwcq.Point, len(g.Objects))
	for i, p := range g.Objects {
		objs[i] = nwcq.Point{X: p.X, Y: p.Y, ID: p.ID}
	}
	return nwcq.Group{
		Objects: objs,
		Dist:    g.Dist,
		Window:  nwcq.Rect{MinX: g.Window.MinX, MinY: g.Window.MinY, MaxX: g.Window.MaxX, MaxY: g.Window.MaxY},
	}
}

func groupIn(g nwcq.Group) core.Group {
	objs := make([]geom.Point, len(g.Objects))
	for i, p := range g.Objects {
		objs[i] = geom.Point{X: p.X, Y: p.Y, ID: p.ID}
	}
	return core.Group{
		Objects: objs,
		Dist:    g.Dist,
		Window:  geom.NewRect(g.Window.MinX, g.Window.MinY, g.Window.MaxX, g.Window.MaxY),
	}
}

func addStats(a, b nwcq.Stats) nwcq.Stats {
	a.NodeVisits += b.NodeVisits
	a.ObjectsProcessed += b.ObjectsProcessed
	a.ObjectsSkipped += b.ObjectsSkipped
	a.NodesPruned += b.NodesPruned
	a.WindowQueries += b.WindowQueries
	a.CandidateWindows += b.CandidateWindows
	a.QualifiedWindows += b.QualifiedWindows
	a.GridProbes += b.GridProbes
	return a
}

// routeStats accumulates one routed query's attribution: the fan-out
// counts and the wall-clock split across the scatter, border and merge
// phases. It is owned by the routed query's goroutine; scatter workers
// update the count fields under the scatter mutex.
// finishRoute flushes it once — into the global aggregates, the phase
// histograms, and the request's wide event when one is attached.
type routeStats struct {
	shardsQueried int
	shardsPruned  int
	borderFetches int
	borderPoints  int
	fetchReruns   int
	scatter       time.Duration
	border        time.Duration
	merge         time.Duration
}

// finishRoute flushes one routed execution's attribution. Counters move
// to the global aggregates in one batch (same totals as the old inline
// increments, one visibility point). The phase histograms record every
// routed execution — a phase that never ran records zero, keeping the
// three counts equal so their quantiles are comparable.
func (s *Sharded) finishRoute(rt *routeStats, ev *qevent.Event) {
	m := s.obs
	m.shardQueries.Add(uint64(rt.shardsQueried))
	m.shardsPruned.Add(uint64(rt.shardsPruned))
	m.borderFetches.Add(uint64(rt.borderFetches))
	m.borderPoints.Add(uint64(rt.borderPoints))
	m.fetchReruns.Add(uint64(rt.fetchReruns))
	m.phase[phaseScatter].Observe(rt.scatter.Seconds())
	m.phase[phaseBorder].Observe(rt.border.Seconds())
	m.phase[phaseMerge].Observe(rt.merge.Seconds())
	if ev != nil {
		ev.Router = &qevent.Router{
			ShardsQueried: rt.shardsQueried,
			ShardsPruned:  rt.shardsPruned,
			BorderFetches: rt.borderFetches,
			BorderPoints:  rt.borderPoints,
			FetchReruns:   rt.fetchReruns,
			ScatterNs:     rt.scatter.Nanoseconds(),
			BorderNs:      rt.border.Nanoseconds(),
			MergeNs:       rt.merge.Nanoseconds(),
		}
	}
}

// siblings returns every shard index but home in ascending
// MINDIST(q, bounds) order — the scatter schedule after the home shard.
func siblings(qp geom.Point, bounds []geom.Rect, home int) []int {
	order := make([]int, 0, len(bounds))
	for i := range bounds {
		if i != home {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		return bounds[order[a]].MinDist2(qp) < bounds[order[b]].MinDist2(qp)
	})
	return order
}

// fetchBox is the rectangle that contains every object of every
// candidate group with distance at most d, and every point of every
// window that can generate such a candidate (closed bounds; see the
// routing comment).
func fetchBox(q nwcq.Query, d float64) geom.Rect {
	return geom.NewRect(q.X-(d+q.Length), q.Y-(d+q.Width), q.X+(d+q.Length), q.Y+(d+q.Width))
}

// fetchPoints collects every indexed point inside fetch from the shards
// whose bounds intersect it. Bounds cover all of a shard's points
// (including outliers), so skipped shards provably hold nothing inside
// fetch. The per-shard window queries fan out over the worker pool;
// results are concatenated in shard order, so the fetched sequence is
// deterministic at any width.
func (s *Sharded) fetchPoints(bounds []geom.Rect, fetch geom.Rect, rt *routeStats) ([]geom.Point, error) {
	start := time.Now()
	defer func() { rt.border += time.Since(start) }()
	idxs := make([]int, 0, len(s.shards))
	for i := range s.shards {
		if bounds[i].Intersects(fetch) {
			idxs = append(idxs, i)
		}
	}
	parts := make([][]geom.Point, len(idxs))
	err := wpool.Each(len(idxs), s.parallelism(), func(j int) error {
		pts, err := s.shards[idxs[j]].Window(fetch.MinX, fetch.MinY, fetch.MaxX, fetch.MaxY)
		if err != nil {
			return err
		}
		part := make([]geom.Point, len(pts))
		for k, p := range pts {
			part[k] = geom.Point{X: p.X, Y: p.Y, ID: p.ID}
		}
		parts[j] = part
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []geom.Point
	for _, part := range parts {
		out = append(out, part...)
	}
	rt.borderFetches++
	rt.borderPoints += len(out)
	return out, nil
}

// intersecting counts shards whose bounds intersect fetch.
func intersecting(bounds []geom.Rect, fetch geom.Rect) int {
	n := 0
	for _, b := range bounds {
		if b.Intersects(fetch) {
			n++
		}
	}
	return n
}

// allBounds returns the union of every shard's effective bounds — a
// rectangle covering the entire dataset.
func allBounds(bounds []geom.Rect) geom.Rect {
	u := geom.EmptyRect()
	for _, b := range bounds {
		u = u.Union(b)
	}
	return u
}

// NWC answers an NWC query without cancellation.
func (s *Sharded) NWC(q nwcq.Query) (nwcq.Result, error) {
	return s.NWCCtx(context.Background(), q)
}

// NWCCtx answers an NWC query by scatter-gather over the shards. The
// result equals the single-index answer on the same points for every
// scheme and measure; Stats sums the per-shard work. With a result
// cache configured (Options.ResultCache) the answer may be served from
// a previous identical query against the same dataset version.
func (s *Sharded) NWCCtx(ctx context.Context, q nwcq.Query) (nwcq.Result, error) {
	start := time.Now()
	res, hit, err := s.nwcCached(ctx, q)
	elapsed := time.Since(start)
	visits := res.Stats.NodeVisits
	if hit {
		visits = 0
	}
	s.obs.observe(rNWC, q.Scheme, elapsed, visits, err)
	s.noteSlowRouted("nwc", q, 0, 0, start, elapsed, visits, err)
	return res, err
}

func (s *Sharded) nwcCached(ctx context.Context, q nwcq.Query) (nwcq.Result, bool, error) {
	var c *qcache.Cache[nwcq.Query, nwcq.Result]
	if s.rcache != nil {
		c = s.rcache.nwc
	}
	return qcache.Lookup(ctx, c, qevent.From(ctx), false, s.generation, q, func() (nwcq.Result, error) {
		return s.nwc(ctx, q, nil)
	})
}

// ExplainNWC answers an NWC query with per-shard tracing, merging the
// shard traces into one router-level trace whose phases are prefixed
// with the shard that ran them, plus a synthetic border-fetch phase.
// Explained queries never touch the result cache.
func (s *Sharded) ExplainNWC(ctx context.Context, q nwcq.Query) (nwcq.Result, *nwcq.QueryTrace, error) {
	col := &explainCollector{}
	start := time.Now()
	res, err := s.nwc(ctx, q, col)
	elapsed := time.Since(start)
	s.obs.observe(rNWC, q.Scheme, elapsed, res.Stats.NodeVisits, err)
	return res, col.merged("nwc", q.Scheme, q.Measure, elapsed, res.Stats.NodeVisits), err
}

func (s *Sharded) nwc(ctx context.Context, q nwcq.Query, col *explainCollector) (nwcq.Result, error) {
	if err := q.Validate(); err != nil {
		return nwcq.Result{}, err
	}
	measure, err := measureOf(q.Measure)
	if err != nil {
		return nwcq.Result{}, err
	}
	// The router owns the request's wide event at routed-query
	// granularity: read it here, then run the fan-out detached so the
	// per-shard indexes (and their caches) never see — or race on — it.
	ev := qevent.From(ctx)
	ctx = qevent.Detach(ctx)
	rt := &routeStats{}
	defer func() { s.finishRoute(rt, ev) }()
	qp := geom.Point{X: q.X, Y: q.Y}
	bounds := s.shardBounds()
	home := s.shardFor(q.X, q.Y)

	scatterStart := time.Now()
	out, best, err := s.scatterNWC(ctx, q, qp, bounds, home, col, rt)
	rt.scatter = time.Since(scatterStart)
	if err != nil {
		return nwcq.Result{Stats: out.Stats}, err
	}

	if !math.IsInf(best, 1) {
		// Border step: candidates at or below the local best live inside
		// this box; if only one shard's bounds intersect it, that shard's
		// local answer is already globally exact.
		fetch := fetchBox(q, best)
		if intersecting(bounds, fetch) <= 1 {
			return out, nil
		}
		pts, err := s.fetchPoints(bounds, fetch, rt)
		if err != nil {
			return nwcq.Result{Stats: out.Stats}, err
		}
		col.borderDone(len(pts))
		mergeStart := time.Now()
		cands := core.CandidateGroups(pts, coreQuery(q), measure)
		if len(cands) > 0 && cands[0].Dist < best {
			out.Group = groupOut(cands[0])
		}
		rt.merge += time.Since(mergeStart)
		return out, nil
	}

	// No shard found a group on its own points. Any group that exists
	// must mix points from several shards, so enumerate candidates over
	// the full dataset (the no-local-answer case is the one place the
	// fetch cannot be bounded by a distance).
	pts, err := s.fetchPoints(bounds, allBounds(bounds), rt)
	if err != nil {
		return nwcq.Result{Stats: out.Stats}, err
	}
	col.borderDone(len(pts))
	mergeStart := time.Now()
	if cands := core.CandidateGroups(pts, coreQuery(q), measure); len(cands) > 0 {
		out.Found = true
		out.Group = groupOut(cands[0])
	}
	rt.merge += time.Since(mergeStart)
	return out, nil
}

// scatter runs one routed query's scatter phase — the single loop
// behind every router width. The home shard runs first and alone, so
// its best bounds every sibling claim at every width: a sibling claimed
// beside it would start unbounded, and whether the home shard finished
// first would be up to the scheduler. The siblings then go to the
// worker pool (Options.Parallelism, clamped to their count) in
// ascending MINDIST order; one whose region MINDIST exceeds bound() at
// claim time is skipped and counted in ShardsPruned. Each shard query
// runs unlocked, under an nwcq_shard=<i> pprof label so CPU profiles
// split the fan-out by shard; merge then folds its answer in under mu,
// the same mutex bound is read under, so a claim always sees a whole
// merged state.
func scatter[R any](ctx context.Context, s *Sharded, qp geom.Point, bounds []geom.Rect, home int, rt *routeStats,
	bound func() float64, query func(ctx context.Context, i int) (R, error), merge func(R)) error {
	var mu sync.Mutex
	visit := func(i int) error {
		var r R
		var err error
		s.obs.inflight.Add(1)
		pprof.Do(ctx, pprof.Labels("nwcq_shard", strconv.Itoa(i)), func(ctx context.Context) {
			r, err = query(ctx, i)
		})
		s.obs.inflight.Add(-1)
		if err != nil {
			return err
		}
		mu.Lock()
		rt.shardsQueried++
		merge(r)
		mu.Unlock()
		return nil
	}
	if err := visit(home); err != nil {
		return err
	}
	order := siblings(qp, bounds, home)
	return wpool.Each(len(order), s.parallelism(), func(j int) error {
		i := order[j]
		mu.Lock()
		if bounds[i].MinDist(qp) > bound() {
			rt.shardsPruned++
			mu.Unlock()
			return nil
		}
		mu.Unlock()
		return visit(i)
	})
}

// scatterNWC runs the scatter phase and returns the merged best local
// answer (best is +Inf when no shard found one). Every shard traversal
// runs with one shared bound cell on its reader, at every width, so
// SRR, DIP, DEP and the window MINDIST gate prune against
// min(local best, global bound) and publish improvements back; the
// same cell prunes queued siblings at claim time.
//
// Safety: the cell is monotone non-increasing and always ≥ the final
// global best B, so claim-time pruning only skips shards whose every
// group is ≥ B, and in-traversal pruning only elides groups ≥ B —
// both invisible to the merge, whose minimum is exactly B either way.
func (s *Sharded) scatterNWC(ctx context.Context, q nwcq.Query, qp geom.Point, bounds []geom.Rect, home int, col *explainCollector, rt *routeStats) (nwcq.Result, float64, error) {
	sb := rstar.NewSharedBound()
	out := nwcq.Result{}
	best := math.Inf(1)
	err := scatter(rstar.ContextWithBound(ctx, sb), s, qp, bounds, home, rt, sb.Load,
		func(ctx context.Context, i int) (nwcq.Result, error) { return s.shardNWC(ctx, i, q, col) },
		func(r nwcq.Result) {
			out.Stats = addStats(out.Stats, r.Stats)
			if r.Found && r.Dist < best {
				best = r.Dist
				out.Group = r.Group
				out.Found = true
			}
		})
	s.obs.boundTightenings.Add(sb.Tightenings())
	return out, best, err
}

func (s *Sharded) shardNWC(ctx context.Context, i int, q nwcq.Query, col *explainCollector) (nwcq.Result, error) {
	if col == nil {
		return s.shards[i].NWCCtx(ctx, q)
	}
	res, tr, err := s.shards[i].ExplainNWC(ctx, q)
	col.add(i, tr)
	return res, err
}

// KNWC answers a kNWC query without cancellation.
func (s *Sharded) KNWC(q nwcq.KQuery) (nwcq.KResult, error) {
	return s.KNWCCtx(context.Background(), q)
}

// KNWCCtx answers a kNWC query: per-shard KResult chains are merged
// through the same greedy dedup ordering the engine uses, then the
// merge is certified exact against a bounded candidate enumeration
// (rerunning with a doubled bound when certification fails). The
// result equals the single-index answer in group count and distances.
func (s *Sharded) KNWCCtx(ctx context.Context, q nwcq.KQuery) (nwcq.KResult, error) {
	start := time.Now()
	res, hit, err := s.knwcCached(ctx, q)
	elapsed := time.Since(start)
	visits := res.Stats.NodeVisits
	if hit {
		visits = 0
	}
	s.obs.observe(rKNWC, q.Scheme, elapsed, visits, err)
	s.noteSlowRouted("knwc", q.Query, q.K, q.M, start, elapsed, visits, err)
	return res, err
}

func (s *Sharded) knwcCached(ctx context.Context, q nwcq.KQuery) (nwcq.KResult, bool, error) {
	var c *qcache.Cache[nwcq.KQuery, nwcq.KResult]
	if s.rcache != nil {
		c = s.rcache.knwc
	}
	return qcache.Lookup(ctx, c, qevent.From(ctx), false, s.generation, q, func() (nwcq.KResult, error) {
		return s.knwc(ctx, q, nil)
	})
}

// ExplainKNWC is KNWCCtx with per-shard tracing, merged like
// ExplainNWC. Explained queries never touch the result cache.
func (s *Sharded) ExplainKNWC(ctx context.Context, q nwcq.KQuery) (nwcq.KResult, *nwcq.QueryTrace, error) {
	col := &explainCollector{}
	start := time.Now()
	res, err := s.knwc(ctx, q, col)
	elapsed := time.Since(start)
	s.obs.observe(rKNWC, q.Scheme, elapsed, res.Stats.NodeVisits, err)
	return res, col.merged("knwc", q.Scheme, q.Measure, elapsed, res.Stats.NodeVisits), err
}

// compatible reports whether g can join groups under the overlap budget
// m: it must share at most m objects with every member and must not
// duplicate one — the engine's (and BruteForceKNWC's) acceptance rule.
func compatible(groups []core.Group, g core.Group, m int) bool {
	for _, h := range groups {
		ov := h.OverlapCount(g)
		if ov > m || ov == len(g.Objects) {
			return false
		}
	}
	return true
}

// acceptGreedy is the router's one kNWC greedy acceptance: it walks
// groups sorted ascending by distance and accepts each one compatible
// with those already accepted, stopping at k accepted or at the first
// group beyond horizon (+Inf for none).
func acceptGreedy(sorted []core.Group, k, m int, horizon float64) []core.Group {
	var accepted []core.Group
	for _, g := range sorted {
		if g.Dist > horizon {
			break
		}
		if compatible(accepted, g, m) {
			accepted = append(accepted, g)
			if len(accepted) == k {
				break
			}
		}
	}
	return accepted
}

// byDist returns a copy of the pooled per-shard chain groups sorted
// ascending by distance.
func byDist(pool []core.Group) []core.Group {
	sorted := make([]core.Group, len(pool))
	copy(sorted, pool)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Dist < sorted[j].Dist })
	return sorted
}

// kResult materialises accepted groups as the routed answer.
func kResult(groups []core.Group, stats nwcq.Stats) nwcq.KResult {
	out := nwcq.KResult{Found: len(groups) > 0, Stats: stats}
	for _, g := range groups {
		out.Groups = append(out.Groups, groupOut(g))
	}
	return out
}

func (s *Sharded) knwc(ctx context.Context, q nwcq.KQuery, col *explainCollector) (nwcq.KResult, error) {
	if err := q.Validate(); err != nil {
		return nwcq.KResult{}, err
	}
	measure, err := measureOf(q.Measure)
	if err != nil {
		return nwcq.KResult{}, err
	}
	ev := qevent.From(ctx)
	ctx = qevent.Detach(ctx)
	rt := &routeStats{}
	defer func() { s.finishRoute(rt, ev) }()
	qp := geom.Point{X: q.X, Y: q.Y}
	bounds := s.shardBounds()
	home := s.shardFor(q.X, q.Y)
	cq := coreQuery(q.Query)

	scatterStart := time.Now()
	stats, pool, est, err := s.scatterKNWC(ctx, q, qp, bounds, home, col, rt)
	rt.scatter = time.Since(scatterStart)
	if err != nil {
		return nwcq.KResult{Stats: stats}, err
	}

	// Fast path: every candidate at or below the estimate lives in a
	// single shard, so that shard's own greedy chain is the global
	// answer — and it is exactly what the merge reproduces. (A shard
	// pruned against a transiently smaller estimate cannot hide here:
	// if its MINDIST ended up below the final estimate, its bounds
	// intersect the fetch box and the fast path is off.)
	if !math.IsInf(est, 1) && intersecting(bounds, fetchBox(q.Query, est)) <= 1 {
		mergeStart := time.Now()
		out := kResult(acceptGreedy(byDist(pool), q.K, q.M, math.Inf(1)), stats)
		rt.merge += time.Since(mergeStart)
		return out, nil
	}

	// Certification loop: fetch box(D), merge the candidate list
	// truncated at D (identical to the full dataset's list up to D),
	// and accept once k groups emerged or the fetch covered everything.
	d := est
	if math.IsInf(d, 1) || d <= 0 {
		d = math.Hypot(q.Length, q.Width)
	}
	whole := allBounds(bounds)
	for iter := 0; ; iter++ {
		if iter > 0 {
			rt.fetchReruns++
		}
		fetch := fetchBox(q.Query, d)
		complete := fetch.ContainsRect(whole)
		if complete {
			fetch = whole
		}
		pts, err := s.fetchPoints(bounds, fetch, rt)
		if err != nil {
			return nwcq.KResult{Stats: stats}, err
		}
		col.borderDone(len(pts))
		// Candidates come sorted ascending; past d the list is no longer
		// certified unless the fetch covered everything.
		horizon := d
		if complete {
			horizon = math.Inf(1)
		}
		mergeStart := time.Now()
		groups := acceptGreedy(core.CandidateGroups(pts, cq, measure), q.K, q.M, horizon)
		rt.merge += time.Since(mergeStart)
		if len(groups) == q.K || complete {
			return kResult(groups, stats), nil
		}
		d = math.Max(2*d, math.Hypot(q.Length, q.Width))
	}
}

// scatterKNWC collects per-shard chains, pruning queued shards against
// the running merged estimate (the k-th greedy-accepted distance over
// the pool, +Inf until the pool supplies k groups); the pool only seeds
// the certification bound.
//
// Unlike NWC, the per-traversal engines get NO shared bound cell: the
// merge estimate is non-monotone (accepting a pooled group can push the
// k-th greedy distance up, since greedy acceptance is blocked by
// overlap), and the single-intersecting-shard fast path returns a local
// chain verbatim — which is only correct if that chain was built
// unbounded. Shard-claim pruning stays sound regardless, because a
// shard skipped against a transiently small estimate either stays
// irrelevant (MINDIST above the final estimate) or disables the fast
// path and is covered by the certification fetch.
func (s *Sharded) scatterKNWC(ctx context.Context, q nwcq.KQuery, qp geom.Point, bounds []geom.Rect, home int, col *explainCollector, rt *routeStats) (nwcq.Stats, []core.Group, float64, error) {
	var stats nwcq.Stats
	var pool []core.Group
	est := math.Inf(1)
	err := scatter(ctx, s, qp, bounds, home, rt, func() float64 { return est },
		func(ctx context.Context, i int) (nwcq.KResult, error) { return s.shardKNWC(ctx, i, q, col) },
		func(kr nwcq.KResult) {
			stats = addStats(stats, kr.Stats)
			for _, g := range kr.Groups {
				pool = append(pool, groupIn(g))
			}
			est = math.Inf(1)
			if acc := acceptGreedy(byDist(pool), q.K, q.M, math.Inf(1)); len(acc) == q.K {
				est = acc[q.K-1].Dist
			}
		})
	return stats, pool, est, err
}

func (s *Sharded) shardKNWC(ctx context.Context, i int, q nwcq.KQuery, col *explainCollector) (nwcq.KResult, error) {
	if col == nil {
		return s.shards[i].KNWCCtx(ctx, q)
	}
	res, tr, err := s.shards[i].ExplainKNWC(ctx, q)
	col.add(i, tr)
	return res, err
}

// Window runs a range query across every shard and concatenates the
// results (shards hold disjoint point sets, so no dedup is needed).
func (s *Sharded) Window(minX, minY, maxX, maxY float64) ([]nwcq.Point, error) {
	start := time.Now()
	var out []nwcq.Point
	var err error
	for _, ix := range s.shards {
		var pts []nwcq.Point
		pts, err = ix.Window(minX, minY, maxX, maxY)
		if err != nil {
			break
		}
		out = append(out, pts...)
	}
	s.obs.observe(rWindow, nwcq.SchemeDefault, time.Since(start), 0, err)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Nearest merges every shard's k nearest into the global k nearest,
// ascending by distance.
func (s *Sharded) Nearest(x, y float64, k int) ([]nwcq.Point, error) {
	start := time.Now()
	out, err := s.nearest(x, y, k)
	s.obs.observe(rNearest, nwcq.SchemeDefault, time.Since(start), 0, err)
	return out, err
}

func (s *Sharded) nearest(x, y float64, k int) ([]nwcq.Point, error) {
	var all []nwcq.Point
	for _, ix := range s.shards {
		pts, err := ix.Nearest(x, y, k)
		if err != nil {
			return nil, err
		}
		all = append(all, pts...)
	}
	sort.SliceStable(all, func(i, j int) bool {
		di := (all[i].X-x)*(all[i].X-x) + (all[i].Y-y)*(all[i].Y-y)
		dj := (all[j].X-x)*(all[j].X-x) + (all[j].Y-y)*(all[j].Y-y)
		return di < dj
	})
	if len(all) > k {
		all = all[:k]
	}
	return all, nil
}

// NWCBatch answers many NWC queries concurrently, in input order.
func (s *Sharded) NWCBatch(queries []nwcq.Query, opt nwcq.BatchOptions) ([]nwcq.Result, error) {
	return s.NWCBatchCtx(context.Background(), queries, opt)
}

// NWCBatchCtx fans routed NWC queries over a worker pool; the first
// error aborts the batch, matching the single-index semantics.
func (s *Sharded) NWCBatchCtx(ctx context.Context, queries []nwcq.Query, opt nwcq.BatchOptions) ([]nwcq.Result, error) {
	return wpool.Batch(ctx, queries, s.batchWorkers(opt), s.NWCCtx)
}

// KNWCBatch answers many kNWC queries concurrently, in input order.
func (s *Sharded) KNWCBatch(queries []nwcq.KQuery, opt nwcq.BatchOptions) ([]nwcq.KResult, error) {
	return s.KNWCBatchCtx(context.Background(), queries, opt)
}

// KNWCBatchCtx is the kNWC batch form of NWCBatchCtx.
func (s *Sharded) KNWCBatchCtx(ctx context.Context, queries []nwcq.KQuery, opt nwcq.BatchOptions) ([]nwcq.KResult, error) {
	return wpool.Batch(ctx, queries, s.batchWorkers(opt), s.KNWCCtx)
}

// batchWorkers resolves one batch call's worker count: the per-call
// option wins, then the router's Parallelism, then GOMAXPROCS.
func (s *Sharded) batchWorkers(opt nwcq.BatchOptions) int {
	if opt.Parallelism > 0 {
		return opt.Parallelism
	}
	return s.parallelism()
}

// explainCollector gathers per-shard traces during an explained routed
// query; a nil collector is the no-trace fast path. It is safe for the
// scatter workers' concurrent add calls.
type explainCollector struct {
	mu      sync.Mutex
	entries []shardTrace
	// borderPoints is -1 until a border fetch ran.
	borderPoints int
	borderStart  time.Time
	borderTime   time.Duration
}

type shardTrace struct {
	shard int
	trace *nwcq.QueryTrace
}

func (c *explainCollector) add(shard int, tr *nwcq.QueryTrace) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.entries = append(c.entries, shardTrace{shard: shard, trace: tr})
	c.borderStart = time.Now()
	c.mu.Unlock()
}

// borderDone stamps the border-fetch phase (points fetched, duration
// since the last scatter query finished).
func (c *explainCollector) borderDone(points int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.borderPoints += points
	if !c.borderStart.IsZero() {
		c.borderTime = time.Since(c.borderStart)
	}
	c.mu.Unlock()
}

// merged assembles the router-level trace: every shard's phases
// prefixed with its shard number, counters summed, plus a synthetic
// border-fetch phase when one ran. Shard entries are ordered by shard
// index so the merged trace is stable under parallel scatter.
func (c *explainCollector) merged(kind string, scheme nwcq.Scheme, measure nwcq.Measure, elapsed time.Duration, visits uint64) *nwcq.QueryTrace {
	c.mu.Lock()
	defer c.mu.Unlock()
	sort.SliceStable(c.entries, func(i, j int) bool { return c.entries[i].shard < c.entries[j].shard })
	qt := &nwcq.QueryTrace{
		Kind:       kind,
		Scheme:     scheme.String(),
		Measure:    measure.String(),
		StartedAt:  time.Now().Add(-elapsed),
		Duration:   elapsed,
		NodeVisits: visits,
	}
	for _, e := range c.entries {
		prefix := fmt.Sprintf("shard%d:", e.shard)
		for _, p := range e.trace.Phases {
			qt.Phases = append(qt.Phases, nwcq.PhaseTrace{
				Phase:      prefix + p.Phase,
				Duration:   p.Duration,
				Entered:    p.Entered,
				NodeVisits: p.NodeVisits,
			})
		}
		qt.Counters = addCounters(qt.Counters, e.trace.Counters)
		if e.trace.HeapHighWater > qt.HeapHighWater {
			qt.HeapHighWater = e.trace.HeapHighWater
		}
		if e.trace.CandidateHighWater > qt.CandidateHighWater {
			qt.CandidateHighWater = e.trace.CandidateHighWater
		}
	}
	if c.borderPoints > 0 || c.borderTime > 0 {
		qt.Phases = append(qt.Phases, nwcq.PhaseTrace{
			Phase:    "border-fetch",
			Duration: c.borderTime,
			Entered:  1,
		})
	}
	return qt
}

func addCounters(a, b nwcq.TraceCounters) nwcq.TraceCounters {
	a.SRRShrinks += b.SRRShrinks
	a.SRRSkips += b.SRRSkips
	a.DIPPrunedNodes += b.DIPPrunedNodes
	a.DEPPrunedNodes += b.DEPPrunedNodes
	a.DEPSkippedObjects += b.DEPSkippedObjects
	a.GridProbes += b.GridProbes
	a.WindowQueries += b.WindowQueries
	a.CandidateWindows += b.CandidateWindows
	a.QualifiedWindows += b.QualifiedWindows
	a.GroupsEmitted += b.GroupsEmitted
	a.IWPJumpStarts += b.IWPJumpStarts
	a.IWPRootStarts += b.IWPRootStarts
	a.IWPOverlapScans += b.IWPOverlapScans
	a.DedupOffered += b.DedupOffered
	a.DedupAccepted += b.DedupAccepted
	return a
}
