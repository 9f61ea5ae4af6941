package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"nwcq"
	"nwcq/internal/server"
)

type config struct {
	wl      *workload
	seed    int64
	seconds time.Duration
	trace   bool
	dir     string
}

const (
	// setupReps is how many times a run builds its backend; setup_s is
	// the median.
	setupReps = 3
	// warmup runs before the measured phase, so cache fill lands outside
	// it.
	warmup = 2 * time.Second
	// grace is how long an open loop may run behind its schedule before
	// it drops what is still unsent.
	grace = 5 * time.Second
	// countOps is the op-list prefix the count and explain passes run.
	countOps = 120
	// optimalitySamples read ops, drawn from the first 64 of the op list
	// before the run, are checked for optimality. The dense oracle is
	// cubic in the points near the answer and takes up to seconds each.
	optimalitySamples = 4
)

// served is a backend behind a running HTTP server.
type served struct {
	be   *backend
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan error
}

func serve(be *backend, tr *tracer) (*served, error) {
	q, m := nwcq.Querier(be.q), nwcq.Mutator(be.m)
	if tr != nil {
		q = &tracedQuerier{Querier: be.q, in: be.q.(nwcq.Introspector), t: tr}
		m = &tracedMutator{Mutator: be.m, t: tr}
	}
	srv := server.New(q, m)
	var h http.Handler = srv.Handler()
	if tr != nil {
		h = tr.handler(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{be: be, srv: srv, hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c := &http.Client{}
	defer c.CloseIdleConnections()
	if err := waitReady(ctx, c, s.url); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// stop shuts the server down and closes the backend.
func (s *served) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.srv.Close()
	if cerr := s.be.m.Close(); err == nil {
		err = cerr
	}
	return err
}

// snapshot is every counter the per-layer metrics are deltas of.
type snapshot struct {
	m   nwcq.MetricsSnapshot
	mem runtime.MemStats
	cpu time.Duration
	at  time.Time
}

func take(be *backend) snapshot {
	s := snapshot{m: be.q.Metrics(), at: time.Now(), cpu: cpuTime()}
	runtime.ReadMemStats(&s.mem)
	return s
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func run(cfg config) (*result, map[string]any, error) {
	runStart := time.Now()
	wl := cfg.wl
	// The open loop's schedule runs a second past the run, so an op is
	// always left to start the next phase from.
	in := wl.gen(cfg.seed, warmup+cfg.seconds+time.Second)
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(cfg.dir, "run-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)

	var tr *tracer
	clock := newTracer()
	if cfg.trace {
		tr = clock
	}
	probes := newProbes()

	// Set up several times; keep the last backend. The first two feed
	// the count and explain passes of a traced run.
	var setups []float64
	var srv *served
	var heapBefore, heapAfter uint64
	for rep := 0; rep < setupReps; rep++ {
		heapBefore = liveHeap()
		start := time.Now()
		be, err := wl.build(in.points, dir)
		if err != nil {
			return nil, nil, fmt.Errorf("build %s: %w", wl.name, err)
		}
		s, err := serve(be, tr)
		if err != nil {
			be.m.Close()
			return nil, nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		heapAfter = liveHeap()
		if rep == setupReps-1 {
			srv = s
			break
		}
		if cfg.trace && rep < 2 {
			if err := probes.countAndExplain(wl, be, in.ops, rep); err != nil {
				s.stop()
				return nil, nil, err
			}
		}
		if err := s.stop(); err != nil {
			return nil, nil, err
		}
		if err := be.remove(); err != nil {
			return nil, nil, err
		}
	}
	defer func() {
		srv.stop()
		srv.be.remove()
	}()

	l := newLedger(in.points)
	d := newDriver(srv.url, clock, in.ops, l, pickSamples(cfg.seed, in.ops))
	defer d.close()
	var next atomic.Int64
	var dropped int
	loop := func(dur time.Duration) []sample {
		if wl.rate == 0 {
			return d.closedLoop(&next, clients, dur)
		}
		samples, n := d.openLoop(&next, in.ops[next.Load()].at, dur, grace)
		dropped += n
		return samples
	}

	stages := map[string]float64{"setup": time.Since(runStart).Seconds()}
	mark := func(name string) { stages[name] = time.Since(runStart).Seconds() }
	loop(warmup)
	dropped = 0
	mark("warmup")
	var measured, traced, probe []sample
	var before, after snapshot
	if cfg.trace {
		measured = loop(cfg.seconds / 2)
		before = take(srv.be)
		tr.on.Store(true)
		traced = loop(cfg.seconds / 2)
		if len(in.probe) > 0 {
			probe = runProbe(d, in.probe)
		}
		tr.on.Store(false)
		after = take(srv.be)
	} else {
		before = take(srv.be)
		measured = loop(cfg.seconds)
		after = take(srv.be)
	}
	mark("measured")
	heapEnd := liveHeap()

	// Correctness.
	var problems []error
	problems = append(problems, d.errs...)
	problems = append(problems, checkOptimal(wl, in, d)...)
	problems = append(problems, checkInvariants(before, after)...)
	problems = append(problems, probes.problems...)
	storedUser := float64(len(in.points) * 24)
	var stored float64
	if srv.be.dir != "" {
		b, err := srv.be.storedBytes()
		if err != nil {
			return nil, nil, err
		}
		stored = float64(b)
	} else {
		stored = float64(int64(heapAfter) - int64(heapBefore))
	}
	problems = append(problems, checkFinalState(srv, l)...)
	mark("checks")

	all := append(append(append([]sample{}, measured...), traced...), probe...)
	res := &result{Correct: len(problems) == 0, Attempted: len(all) + dropped, Failed: dropped, Metrics: map[string]metric{}}
	for _, s := range all {
		if s.failed {
			res.Failed++
		}
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}

	if cfg.trace {
		layerMetrics(res.Metrics, measured, traced, probe, before, after, tr.take(), probes, dropped)
	} else {
		window := after.at.Sub(before.at)
		e2eMetrics(res.Metrics, measured, before, after, window, heapEnd, median(setups), stored/storedUser)
	}
	prov := provenance(cfg, in)
	prov["stages_s"] = stages
	return res, prov, nil
}

// runProbe sends the write-probe ops one at a time through a driver
// sharing d's server, ledger and clock.
func runProbe(d *driver, ops []op) []sample {
	p := newDriver(d.url, d.clock, ops, d.ledger, nil)
	defer p.close()
	samples := p.runAll()
	for _, err := range p.errs {
		d.fail(fmt.Errorf("write probe: %w", err))
	}
	return samples
}

// pickSamples draws the op indices checked for optimality: reads among
// the first 64 ops, which every run sends, chosen from the seed before
// any cost is known.
func pickSamples(seed int64, ops []op) map[int]bool {
	rng := rand.New(rand.NewSource(seed*7 + 3))
	out := map[int]bool{}
	limit := min(64, len(ops))
	for tries := 0; len(out) < optimalitySamples && tries < 10*limit; tries++ {
		if i := rng.Intn(limit); ops[i].kind.isRead() {
			out[i] = true
		}
	}
	return out
}

// checkOptimal compares the sampled answers with an exact reference:
// the brute-force oracle over the answer's containment box on dense,
// one in-memory Index over the same points on sharded. The checks run
// on `clients` goroutines.
func checkOptimal(wl *workload, in inputs, d *driver) []error {
	var check func(i int, o op, body []byte) error
	switch wl.name {
	case "dense":
		check = func(i int, o op, body []byte) error {
			got, err := decodeAnswer(o, body, func(pointJSON) error { return nil })
			if err != nil {
				return err
			}
			if math.IsInf(got, 1) {
				return errors.New("no group found")
			}
			if want, _ := bruteNWC(in.points, o.q.Query, got); !near(got, want) {
				return fmt.Errorf("answer %v, brute force %v", got, want)
			}
			return nil
		}
	case "sharded":
		ref, err := nwcq.Build(in.points, nwcq.WithBulkLoad())
		if err != nil {
			return []error{err}
		}
		check = func(i int, o op, body []byte) error { return compareWithIndex(ref, o, body) }
	default:
		return nil
	}
	var idx []int
	var errs []error
	for i := range d.sampleIdx {
		if _, ok := d.answers[i]; ok {
			idx = append(idx, i)
		} else {
			errs = append(errs, fmt.Errorf("sampled op %d never answered", i))
		}
	}
	sort.Ints(idx)
	results := make([]error, len(idx))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := int(next.Add(1) - 1); j < len(idx); j = int(next.Add(1) - 1) {
				i := idx[j]
				if err := check(i, in.ops[i], d.answers[i]); err != nil {
					results[j] = fmt.Errorf("op %d (%s %+v): %w", i, in.ops[i].kind, in.ops[i].q, err)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range results {
		if err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

func compareWithIndex(ref *nwcq.Index, o op, body []byte) error {
	if o.kind == opNWC {
		want, err := ref.NWC(o.q.Query)
		if err != nil {
			return err
		}
		got, err := decodeAnswer(o, body, func(pointJSON) error { return nil })
		if err != nil {
			return err
		}
		if !want.Found && !math.IsInf(got, 1) || want.Found && !near(got, want.Dist) {
			return fmt.Errorf("router %v, single index %v", got, want.Dist)
		}
		return nil
	}
	want, err := ref.KNWC(o.q)
	if err != nil {
		return err
	}
	got, err := kDists(body)
	if err != nil {
		return err
	}
	if len(got) != len(want.Groups) {
		return fmt.Errorf("router %d groups, single index %d", len(got), len(want.Groups))
	}
	for i, g := range want.Groups {
		if !near(got[i], g.Dist) {
			return fmt.Errorf("group %d: router %v, single index %v", i, got[i], g.Dist)
		}
	}
	return nil
}

// checkInvariants fails the run on counter relations that must hold
// exactly.
func checkInvariants(before, after snapshot) []error {
	var errs []error
	if w, w0 := after.m.WAL, before.m.WAL; w != nil && w0 != nil && w.SyncPolicy == nwcq.SyncAlways.String() {
		muts := delta(after.m.Queries["insert"].Count+after.m.Queries["delete"].Count,
			before.m.Queries["insert"].Count+before.m.Queries["delete"].Count)
		if f := delta(w.Fsyncs, w0.Fsyncs); f > muts {
			errs = append(errs, fmt.Errorf("wal: %d fsyncs for %d mutations at sync=always", f, muts))
		}
	}
	if r, r0 := after.m.Router, before.m.Router; r != nil && r0 != nil {
		routed := routedQueries(after.m) - routedQueries(before.m)
		for name, ph := range r.Phases {
			if n := delta(ph.Count, r0.Phases[name].Count); n != routed {
				errs = append(errs, fmt.Errorf("router: phase %s ran %d times for %d routed queries", name, n, routed))
			}
		}
	}
	return errs
}

// routedQueries counts the router's NWC and kNWC queries that ran the
// scatter-gather, that is, were neither served from nor coalesced onto
// the result cache.
func routedQueries(m nwcq.MetricsSnapshot) uint64 {
	n := m.Queries["nwc"].Count + m.Queries["knwc"].Count
	if c := m.ResultCache; c != nil {
		n -= c.Hits + c.Coalesced
	}
	return n
}

// checkFinalState quiesces and compares a whole-space Window with the
// acknowledged point set; a paged backend must still match after Close
// and reopening its files.
func checkFinalState(s *served, l *ledger) []error {
	want := l.live()
	if err := sameSet("live index", s.be.q, want); err != nil {
		return []error{err}
	}
	if s.be.reopen == nil {
		return nil
	}
	if err := s.be.m.Close(); err != nil {
		return []error{fmt.Errorf("close: %w", err)}
	}
	be, err := s.be.reopen()
	if err != nil {
		return []error{fmt.Errorf("reopen: %w", err)}
	}
	s.be = be
	if err := sameSet("reopened index", be.q, want); err != nil {
		return []error{err}
	}
	return nil
}

// everywhere bounds a window over the whole space.
const everywhere = 1e12

func sameSet(what string, q nwcq.Querier, want []nwcq.Point) error {
	got, err := q.Window(-everywhere, -everywhere, everywhere, everywhere)
	if err != nil {
		return fmt.Errorf("%s: window: %w", what, err)
	}
	sortByID(got)
	if len(got) != len(want) {
		return fmt.Errorf("%s holds %d points, %d acknowledged", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s holds %+v where %+v was acknowledged", what, got[i], want[i])
		}
	}
	return nil
}

// provenance is printed before the result line.
func provenance(cfg config, in inputs) map[string]any {
	return map[string]any{
		"workload":           cfg.wl.name,
		"seed":               cfg.seed,
		"seconds":            cfg.seconds.Seconds(),
		"trace":              cfg.trace,
		"commit":             commit(),
		"go":                 runtime.Version(),
		"gomaxprocs":         runtime.GOMAXPROCS(0),
		"cpu":                cpuModel(),
		"why":                cfg.wl.why,
		"data":               cfg.wl.data,
		"cache":              cfg.wl.cache,
		"flush":              cfg.wl.flush,
		"offered_rate_per_s": cfg.wl.rate,
		"gated":              cfg.wl.gated,
		"points":             len(in.points),
	}
}

// commit reads the checkout's git HEAD when there is one.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(".git", name))
		if err != nil {
			return "unknown"
		}
		ref = strings.TrimSpace(string(b))
	}
	return ref
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
