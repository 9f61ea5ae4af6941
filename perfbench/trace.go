package main

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nwcq"
)

// The span recorder. Spans sit at the three layer boundaries a request
// crosses — the client call, the server's ServeHTTP and the backend
// call the server makes — and are recorded from the benchmark's own
// wrappers; the program is not changed. All spans of one request share
// its id. Spans are kept in memory until the run ends.

const spanHeader = "X-Perfbench-Span"

type spanKey struct{}

type span struct {
	id     uint64
	name   string // "client", "server" or "backend"
	parent string // "" for the root
	kind   string // "nwc", "knwc" or "mutate"
	iv     interval
}

type tracer struct {
	base time.Time
	on   atomic.Bool
	ids  atomic.Uint64

	mu    sync.Mutex
	spans []span
	// mutSpans maps a mutation's point id to its request's span id: the
	// Mutator interface carries no context to find it by.
	mutSpans sync.Map
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns and clears the recorded spans.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// handler wraps the server's handler with the "server" span.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		id, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		start := t.now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, id)))
		t.record(span{id: id, name: "server", parent: "client", iv: interval{start, t.now()}})
	})
}

func (t *tracer) backendSpan(id uint64, kind string, start int64) {
	t.record(span{id: id, name: "backend", parent: "server", kind: kind, iv: interval{start, t.now()}})
}

// tracedQuerier is the Querier handed to server.New in a traced run. It
// forwards the Introspector methods the server's handlers use.
type tracedQuerier struct {
	nwcq.Querier
	in nwcq.Introspector
	t  *tracer
}

func (q *tracedQuerier) NWCCtx(ctx context.Context, qq nwcq.Query) (nwcq.Result, error) {
	if !q.t.on.Load() {
		return q.Querier.NWCCtx(ctx, qq)
	}
	start := q.t.now()
	res, err := q.Querier.NWCCtx(ctx, qq)
	id, _ := ctx.Value(spanKey{}).(uint64)
	q.t.backendSpan(id, "nwc", start)
	return res, err
}

func (q *tracedQuerier) KNWCCtx(ctx context.Context, kq nwcq.KQuery) (nwcq.KResult, error) {
	if !q.t.on.Load() {
		return q.Querier.KNWCCtx(ctx, kq)
	}
	start := q.t.now()
	res, err := q.Querier.KNWCCtx(ctx, kq)
	id, _ := ctx.Value(spanKey{}).(uint64)
	q.t.backendSpan(id, "knwc", start)
	return res, err
}

func (q *tracedQuerier) Len() int                         { return q.in.Len() }
func (q *tracedQuerier) TreeHeight() int                  { return q.in.TreeHeight() }
func (q *tracedQuerier) IOStats() uint64                  { return q.in.IOStats() }
func (q *tracedQuerier) StorageOverheadBytes() (g, i int) { return q.in.StorageOverheadBytes() }

// tracedMutator is the Mutator handed to server.New in a traced run.
type tracedMutator struct {
	nwcq.Mutator
	t *tracer
}

func (m *tracedMutator) Insert(p nwcq.Point) error {
	if !m.t.on.Load() {
		return m.Mutator.Insert(p)
	}
	start := m.t.now()
	err := m.Mutator.Insert(p)
	m.t.backendSpan(m.t.mutSpan(p.ID), "mutate", start)
	return err
}

func (m *tracedMutator) Delete(p nwcq.Point) (bool, error) {
	if !m.t.on.Load() {
		return m.Mutator.Delete(p)
	}
	start := m.t.now()
	ok, err := m.Mutator.Delete(p)
	m.t.backendSpan(m.t.mutSpan(p.ID), "mutate", start)
	return ok, err
}

func (t *tracer) mutSpan(pointID uint64) uint64 {
	v, _ := t.mutSpans.Load(pointID)
	id, _ := v.(uint64)
	return id
}

// layerTimes is the per-request self time of each layer, from spans.
type layerTimes struct {
	driverSelf, serverSelf []time.Duration
	backend                map[string][]time.Duration // by kind
}

// selfTimes groups spans by request and subtracts each span's children.
func selfTimes(spans []span) layerTimes {
	type req struct{ client, server, backend *span }
	reqs := map[uint64]*req{}
	for i := range spans {
		s := &spans[i]
		r := reqs[s.id]
		if r == nil {
			r = &req{}
			reqs[s.id] = r
		}
		switch s.name {
		case "client":
			r.client = s
		case "server":
			r.server = s
		case "backend":
			r.backend = s
		}
	}
	out := layerTimes{backend: map[string][]time.Duration{}}
	for _, r := range reqs {
		if r.client == nil || r.server == nil {
			continue
		}
		out.driverSelf = append(out.driverSelf, time.Duration(selfTime(r.client.iv, []interval{r.server.iv})))
		var kids []interval
		if r.backend != nil {
			kids = append(kids, r.backend.iv)
			out.backend[r.backend.kind] = append(out.backend[r.backend.kind], time.Duration(r.backend.iv.end-r.backend.iv.start))
		}
		out.serverSelf = append(out.serverSelf, time.Duration(selfTime(r.server.iv, kids)))
	}
	return out
}
