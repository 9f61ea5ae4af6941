package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one completed request. Times are nanoseconds since the
// tracer's base; latency counts from due, when the request should have
// been sent.
type sample struct {
	idx             int // index into the op list
	kind            opKind
	due, sent, done int64
	failed          bool
}

func (s sample) latency() time.Duration { return time.Duration(s.done - s.due) }

// driver sends a workload's ops to the server and checks each answer as
// it arrives.
type driver struct {
	url    string
	client *http.Client
	clock  *tracer // the time base; records spans while clock.on is set
	ops    []op
	ledger *ledger

	// sampleIdx are the op indices whose answers are kept for the
	// optimality check, chosen before the run.
	sampleIdx map[int]bool

	mu      sync.Mutex
	answers map[int][]byte // sampled op index -> first answer body
	errs    []error
}

func newDriver(url string, clock *tracer, ops []op, l *ledger, sampleIdx map[int]bool) *driver {
	tr := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true}
	return &driver{
		url: url, client: &http.Client{Transport: tr}, clock: clock, ops: ops, ledger: l,
		sampleIdx: sampleIdx, answers: map[int][]byte{},
	}
}

func (d *driver) close() { d.client.CloseIdleConnections() }

func (d *driver) fail(err error) {
	d.mu.Lock()
	if len(d.errs) < 20 {
		d.errs = append(d.errs, err)
	}
	d.mu.Unlock()
}

// request builds the HTTP request of op o.
func (d *driver) request(o op) (*http.Request, error) {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	switch o.kind {
	case opInsert, opDelete:
		body := fmt.Sprintf(`{"x":%s,"y":%s,"id":%d}`, f(o.p.X), f(o.p.Y), o.p.ID)
		req, err := http.NewRequest(http.MethodPost, d.url+"/"+o.kind.String(), bytes.NewBufferString(body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
		return req, err
	}
	q := o.q
	u := fmt.Sprintf("%s/%s?x=%s&y=%s&l=%s&w=%s&n=%d&measure=%s", d.url, o.kind, f(q.X), f(q.Y), f(q.Length), f(q.Width), q.N, q.Measure)
	if o.kind == opKNWC {
		u += fmt.Sprintf("&k=%d&m=%d", q.K, q.M)
	}
	return http.NewRequest(http.MethodGet, u, nil)
}

// do sends op i, due at due, and checks its answer.
func (d *driver) do(i int, due int64) sample {
	o := d.ops[i%len(d.ops)]
	s := sample{idx: i, kind: o.kind, due: due}
	req, err := d.request(o)
	if err != nil {
		d.fail(err) // the benchmark built a bad request
		s.failed = true
		s.sent, s.done = d.clock.now(), d.clock.now()
		return s
	}
	tracing := d.clock.on.Load()
	var id uint64
	if tracing {
		id = d.clock.ids.Add(1)
		req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
		if !o.kind.isRead() {
			d.clock.mutSpans.Store(o.p.ID, id)
		}
	}
	s.sent = d.clock.now()
	if o.kind == opInsert {
		d.ledger.insertSent(o.p, s.sent)
	}
	resp, err := d.client.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("%s: status %d: %s", o.kind, resp.StatusCode, bytes.TrimSpace(body))
		}
	}
	s.done = d.clock.now()
	if tracing {
		d.clock.record(span{id: id, name: "client", iv: interval{s.sent, s.done}})
	}
	if err != nil {
		// A failed request is counted, not judged: only answers are.
		fmt.Fprintf(os.Stderr, "op %d failed: %v\n", i, err)
		s.failed = true
		return s
	}
	d.checkAnswer(i, o, body, s)
	return s
}

func (d *driver) checkAnswer(i int, o op, body []byte, s sample) {
	if !o.kind.isRead() {
		d.ledger.acked(o, s.done)
		return
	}
	existed := func(p pointJSON) error { return d.ledger.existed(p, s.sent, s.done) }
	if _, err := decodeAnswer(o, body, existed); err != nil {
		d.fail(fmt.Errorf("op %d (%s %+v): %w", i, o.kind, o.q, err))
		return
	}
	if d.sampleIdx[i%len(d.ops)] {
		d.mu.Lock()
		if _, ok := d.answers[i%len(d.ops)]; !ok {
			d.answers[i%len(d.ops)] = body
		}
		d.mu.Unlock()
	}
}

// closedLoop runs `clients` clients, each sending its next op as soon
// as the previous one is answered, taking ops in list order from next
// until dur has passed. A client's next op is due when its previous
// one completed.
func (d *driver) closedLoop(next *atomic.Int64, nClients int, dur time.Duration) []sample {
	end := d.clock.now() + int64(dur)
	var wg sync.WaitGroup
	out := make([][]sample, nClients)
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			due := d.clock.now()
			for due < end {
				s := d.do(int(next.Add(1)-1), due)
				out[c] = append(out[c], s)
				due = d.clock.now()
			}
		}(c)
	}
	wg.Wait()
	return concat(out)
}

// runAll sends every op in ops order with one client, closed loop.
func (d *driver) runAll() []sample {
	out := make([]sample, 0, len(d.ops))
	for i := range d.ops {
		out = append(out, d.do(i, d.clock.now()))
	}
	return out
}

// openLoop sends the ops whose arrival offsets fall in [from, from+dur)
// on their schedule, starting now, with at most `clients` requests in
// flight: an op due while both are busy waits, and its latency counts
// the wait. Ops still unsent `grace` after the window ends are dropped;
// the count is returned.
func (d *driver) openLoop(next *atomic.Int64, from, dur, grace time.Duration) ([]sample, int) {
	t0 := d.clock.now()
	deadline := t0 + int64(dur+grace)
	var dropped atomic.Int64
	var wg sync.WaitGroup
	out := make([][]sample, clients)
	var mu sync.Mutex // orders claiming an op with checking its due time
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				mu.Lock()
				i := int(next.Load())
				if i >= len(d.ops) || d.ops[i].at >= from+dur {
					mu.Unlock()
					return
				}
				next.Add(1)
				mu.Unlock()
				due := t0 + int64(d.ops[i].at-from)
				if now := d.clock.now(); now > deadline {
					dropped.Add(1)
					continue
				} else if due > now {
					time.Sleep(time.Duration(due - now))
				}
				out[c] = append(out[c], d.do(i, due))
			}
		}(c)
	}
	wg.Wait()
	return concat(out), int(dropped.Load())
}

func concat(parts [][]sample) []sample {
	var out []sample
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// waitReady polls /readyz until the server answers 200.
func waitReady(ctx context.Context, client *http.Client, url string) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("server not ready: %w", ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}
