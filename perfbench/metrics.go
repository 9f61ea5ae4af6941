package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"nwcq"
)

// probes holds the count and explain passes of a traced run: the first
// countOps reads of the op list, run one at a time on a backend that is
// not the measured one, so their counts repeat exactly for a seed.
type probes struct {
	plain    [2][]nwcq.Stats // plain calls, on the first and second backend
	explain  []nwcq.Stats    // ExplainNWC/ExplainKNWC on the first
	traces   []*nwcq.QueryTrace
	problems []error
}

func newProbes() *probes { return &probes{} }

func (p *probes) countAndExplain(wl *workload, be *backend, ops []op, rep int) error {
	if rep == 1 && wl.name != "dense" {
		return nil
	}
	ctx := context.Background()
	n := 0
	for _, o := range ops {
		if n == countOps {
			break
		}
		if !o.kind.isRead() {
			continue
		}
		n++
		var st nwcq.Stats
		if o.kind == opNWC {
			res, err := be.q.NWCCtx(ctx, o.q.Query)
			if err != nil {
				return err
			}
			st = res.Stats
		} else {
			res, err := be.q.KNWCCtx(ctx, o.q)
			if err != nil {
				return err
			}
			st = res.Stats
		}
		p.plain[rep] = append(p.plain[rep], st)
		if rep != 0 {
			continue
		}
		var qt *nwcq.QueryTrace
		if o.kind == opNWC {
			res, t, err := be.q.ExplainNWC(ctx, o.q.Query)
			if err != nil {
				return err
			}
			st, qt = res.Stats, t
		} else {
			res, t, err := be.q.ExplainKNWC(ctx, o.q)
			if err != nil {
				return err
			}
			st, qt = res.Stats, t
		}
		p.explain = append(p.explain, st)
		p.traces = append(p.traces, qt)
	}
	if wl.name != "dense" {
		return nil
	}
	// Dense has no cache and no parallel bound sharing, so the work a
	// query does is a function of the query and the data alone.
	against := p.explain
	what := "traced"
	if rep == 1 {
		against, what = p.plain[0], "second backend of the same seed"
	}
	for i, st := range p.plain[rep] {
		if st != against[i] {
			p.problems = append(p.problems, fmt.Errorf("count pass query %d: untraced %+v, %s %+v", i, st, what, against[i]))
			break
		}
	}
	return nil
}

// latencies splits samples' latencies by class.
func latencies(samples []sample) map[string][]time.Duration {
	out := map[string][]time.Duration{}
	for _, s := range samples {
		if s.failed {
			continue
		}
		c := s.kind.String()
		if !s.kind.isRead() {
			c = "mutate"
		}
		out[c] = append(out[c], s.latency())
	}
	return out
}

// tail is the percentile the read classes report beside their median.
// Metric names are fixed across workloads; p95 keeps minBeyond samples
// beyond it on the thinnest class (kNWC on durable-mixed, about 250 a
// run) and moved least between seeds (see README.md).
const tail = 0.95

// setTails reports the median and p of a latency class as
// <class>_p50_ms and <class>_p<p>_ms.
func setTails(out map[string]metric, class string, ds []time.Duration, p float64) {
	ms := sortedMs(ds)
	p50, _ := percentile(ms, 0.5)
	pt, ok := percentile(ms, p)
	if !ok {
		fmt.Fprintf(os.Stderr, "note: %s has %d samples, too few for p%g (highest with %d beyond: p%g)\n",
			class, len(ms), p*100, minBeyond, highestPercentile(len(ms), 99.9, 99, 98, 95, 90, 75, 50))
	}
	out[class+"_p50_ms"] = metric{p50, "ms"}
	out[fmt.Sprintf("%s_p%g_ms", class, p*100)] = metric{pt, "ms"}
}

func e2eMetrics(out map[string]metric, measured []sample, before, after snapshot, window time.Duration, heapEnd uint64, setupS, storedRatio float64) {
	n := uint64(len(measured))
	lat := latencies(measured)
	out["setup_s"] = metric{setupS, "s"}
	out["ops_per_s"] = metric{float64(n) / window.Seconds(), "1/s"}
	setTails(out, "nwc", lat["nwc"], tail)
	setTails(out, "knwc", lat["knwc"], tail)
	out["cpu_ms_per_op"] = metric{float64(after.cpu-before.cpu) / 1e6 / float64(n), "ms"}
	out["heap_mb"] = metric{float64(heapEnd) / (1 << 20), "MiB"}
	out["bytes_stored_per_user_byte"] = metric{storedRatio, "ratio"}
}

func layerMetrics(out map[string]metric, untraced, traced, probe []sample, before, after snapshot, spans []span, p *probes, dropped int) {
	set := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	reads, muts := 0, 0
	for _, s := range append(append([]sample{}, traced...), probe...) {
		if s.kind.isRead() {
			reads++
		} else {
			muts++
		}
	}
	ops := uint64(reads + muts)
	q, mu := uint64(reads), uint64(muts)

	// Spans: self time per layer.
	lt := selfTimes(spans)
	ss := sortedMs(lt.serverSelf)
	v50, _ := percentile(ss, 0.5)
	v99, _ := percentile(ss, 0.99)
	set("server.self_ms_p50", v50, "ms")
	set("server.self_ms_p99", v99, "ms")
	ds := sortedMs(lt.driverSelf)
	v50, _ = percentile(ds, 0.5)
	set("driver.self_ms_p50", v50, "ms")
	for _, kind := range []string{"nwc", "knwc", "mutate"} {
		ks := sortedMs(lt.backend[kind])
		v50, _ := percentile(ks, 0.5)
		v99, _ := percentile(ks, 0.99)
		set("index."+kind+"_ms_p50", v50, "ms")
		set("index."+kind+"_ms_p99", v99, "ms")
	}
	set("index.iwp_rebuilds_per_mutation", per(delta(after.m.IWPRebuilds, before.m.IWPRebuilds), mu), "count/mut")

	// Result cache: the router's on sharded, the index's on durable-mixed.
	var hits, misses, coal, inval uint64
	if c, c0 := after.m.ResultCache, before.m.ResultCache; c != nil && c0 != nil {
		hits, misses = delta(c.Hits, c0.Hits), delta(c.Misses, c0.Misses)
		coal, inval = delta(c.Coalesced, c0.Coalesced), delta(c.Invalidations, c0.Invalidations)
	}
	set("qcache.hit_rate", per(hits, hits+misses), "ratio")
	set("qcache.coalesced_per_q", per(coal, q), "count/q")
	set("qcache.invalidations_per_mutation", per(inval, mu), "count/mut")

	// Router.
	var scatter, border, merge float64
	var rs, rs0 nwcq.RouterMetrics
	if r := after.m.Router; r != nil {
		rs, rs0 = *r, *before.m.Router
		phase := func(name string) float64 {
			a, b := rs.Phases[name], rs0.Phases[name]
			return phaseTotalMs(a.LatencyMeanMs, a.Count) - phaseTotalMs(b.LatencyMeanMs, b.Count)
		}
		scatter, border, merge = phase("scatter"), phase("border"), phase("merge")
	}
	set("shard.scatter_ms_per_q", scatter/float64(max(q, 1)), "ms/q")
	set("shard.border_ms_per_q", border/float64(max(q, 1)), "ms/q")
	set("shard.merge_ms_per_q", merge/float64(max(q, 1)), "ms/q")
	set("shard.shard_queries_per_q", per(delta(rs.ShardQueries, rs0.ShardQueries), q), "count/q")
	set("shard.pruned_per_q", per(delta(rs.ShardsPruned, rs0.ShardsPruned), q), "count/q")
	set("shard.border_fetches_per_q", per(delta(rs.BorderFetches, rs0.BorderFetches), q), "count/q")
	set("shard.border_points_per_fetch", per(delta(rs.BorderPoints, rs0.BorderPoints), delta(rs.BorderFetches, rs0.BorderFetches)), "count")
	set("shard.fetch_reruns_per_q", per(delta(rs.FetchReruns, rs0.FetchReruns), q), "count/q")
	set("shard.bound_tightenings_per_q", per(delta(rs.BoundTightenings, rs0.BoundTightenings), q), "count/q")

	// Engine work, from the count and explain passes.
	var sum nwcq.Stats
	for _, st := range p.plain[0] {
		sum.NodeVisits += st.NodeVisits
		sum.WindowQueries += st.WindowQueries
		sum.CandidateWindows += st.CandidateWindows
		sum.QualifiedWindows += st.QualifiedWindows
		sum.ObjectsProcessed += st.ObjectsProcessed
		sum.ObjectsSkipped += st.ObjectsSkipped
		sum.NodesPruned += st.NodesPruned
		sum.GridProbes += st.GridProbes
	}
	cq := uint64(len(p.plain[0]))
	set("rstar.node_visits_per_q", per(sum.NodeVisits, cq), "count/q")
	set("core.window_queries_per_q", per(uint64(sum.WindowQueries), cq), "count/q")
	set("core.candidate_windows_per_q", per(uint64(sum.CandidateWindows), cq), "count/q")
	set("core.qualified_windows_per_q", per(uint64(sum.QualifiedWindows), cq), "count/q")
	set("core.objects_processed_per_q", per(uint64(sum.ObjectsProcessed), cq), "count/q")
	set("core.objects_skipped_per_q", per(uint64(sum.ObjectsSkipped), cq), "count/q")
	set("core.nodes_pruned_per_q", per(uint64(sum.NodesPruned), cq), "count/q")
	set("core.grid_probes_per_q", per(uint64(sum.GridProbes), cq), "count/q")
	var groups, heapHW int64
	phases := map[string]time.Duration{}
	for _, t := range p.traces {
		groups += t.Counters.GroupsEmitted
		heapHW = max(heapHW, int64(t.HeapHighWater))
		for _, ph := range t.Phases {
			// A routed trace prefixes each phase with the shard that ran it.
			name := ph.Phase[strings.LastIndex(ph.Phase, ":")+1:]
			phases[name] += ph.Duration
		}
	}
	tq := float64(max(len(p.traces), 1))
	set("core.groups_emitted_per_q", float64(groups)/tq, "count/q")
	for _, ph := range []string{"descent", "srr", "window-enum", "verify", "knwc-dedup"} {
		set("core."+strings.ReplaceAll(ph, "-", "_")+"_ms_per_q", float64(phases[ph])/1e6/tq, "ms/q")
	}
	set("core.heap_high_water_max", float64(heapHW), "count")

	// Pager (paged backends only).
	var pg, pg0 nwcq.PageCacheMetrics
	if after.m.PageCache != nil {
		pg, pg0 = *after.m.PageCache, *before.m.PageCache
	}
	ph, pm := delta(pg.Hits, pg0.Hits), delta(pg.Misses, pg0.Misses)
	set("pager.hit_rate", per(ph, ph+pm), "ratio")
	set("pager.misses_per_q", per(pm, q), "count/q")
	set("pager.evictions_per_op", per(delta(pg.Evictions, pg0.Evictions), ops), "count/op")
	set("pager.writes_per_mutation", per(delta(pg.Writes, pg0.Writes), mu), "count/mut")
	set("pager.coalesced", float64(delta(pg.Coalesced, pg0.Coalesced)), "count")
	set("pager.syncs", float64(delta(pg.Syncs, pg0.Syncs)), "count")

	// WAL (paged backends only).
	var w, w0 nwcq.WALMetrics
	if after.m.WAL != nil {
		w, w0 = *after.m.WAL, *before.m.WAL
	}
	set("wal.fsyncs_per_mutation", per(delta(w.Fsyncs, w0.Fsyncs), mu), "count/mut")
	set("wal.append_bytes_per_user_byte", per(delta(w.AppendBytes, w0.AppendBytes), mu*24), "ratio")
	set("wal.checkpoints", float64(delta(w.Checkpoints, w0.Checkpoints)), "count")
	set("wal.rotations", float64(delta(w.Rotations, w0.Rotations)), "count")

	// Process and driver.
	secs := after.at.Sub(before.at).Seconds()
	set("proc.allocs_per_op", per(delta(after.mem.Mallocs, before.mem.Mallocs), ops), "count/op")
	set("proc.alloc_bytes_per_op", per(delta(after.mem.TotalAlloc, before.mem.TotalAlloc), ops), "B/op")
	set("proc.gc_cycles_per_s", float64(after.mem.NumGC-before.mem.NumGC)/secs, "1/s")
	var late []time.Duration
	for _, s := range append(append([]sample{}, untraced...), traced...) {
		late = append(late, time.Duration(s.sent-s.due))
	}
	lm := sortedMs(late)
	v99, _ = percentile(lm, 0.99)
	set("driver.sched_late_p99_ms", v99, "ms")
	set("driver.dropped", float64(dropped), "count")
	// Mutation latency from when it was due, as a client sees it: not an
	// end-to-end metric, because the gated workloads are read-only and
	// on durable-mixed it moved by a third between seeds (README.md).
	mut := sortedMs(latencies(append(append([]sample{}, traced...), probe...))["mutate"])
	m50, _ := percentile(mut, 0.5)
	m95, _ := percentile(mut, tail)
	set("driver.mutate_p50_ms", m50, "ms")
	set("driver.mutate_p95_ms", m95, "ms")
	set("trace.overhead_ms_per_op", meanMs(traced)-meanMs(untraced), "ms")
}

func meanMs(samples []sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range samples {
		sum += s.latency()
	}
	return float64(sum) / 1e6 / float64(len(samples))
}
