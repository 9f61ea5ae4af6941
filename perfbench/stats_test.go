package main

import (
	"math"
	"testing"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // exactly 10 beyond rank 990
		{999, 0.99, 990, false}, // 9 beyond
		{200, 0.95, 190, true},  // 10 beyond
		{199, 0.95, 190, false}, // rank ceil(189.05) = 190, 9 beyond
		{100, 0.90, 90, true},   // 10 beyond
		{21, 0.5, 11, true},     // median of an odd count, 10 beyond
		{1, 0.5, 1, false},      // nothing beyond
		{5000, 0.999, 4995, false},
	}
	for _, c := range cases {
		got, ok := percentile(ramp(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, p=%v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("empty sample set reported a percentile")
	}
}

func TestHighestPercentile(t *testing.T) {
	cands := []float64{99.9, 99, 98, 95, 90, 75, 50}
	cases := map[int]float64{10000: 99.9, 9999: 99, 1000: 99, 999: 98, 500: 98, 499: 95, 200: 95, 100: 90, 99: 75, 20: 50, 19: 0}
	for n, want := range cases {
		if got := highestPercentile(n, cands...); got != want {
			t.Errorf("highestPercentile(%d) = %v, want %v", n, got, want)
		}
		if want == 0 {
			continue
		}
		// The chosen percentile agrees with percentile's own rule.
		xs := make([]float64, n)
		if _, ok := percentile(xs, want/100); !ok {
			t.Errorf("n=%d: p%v chosen but percentile says fewer than %d beyond", n, want, minBeyond)
		}
	}
}

func TestSelfTime(t *testing.T) {
	p := interval{100, 200}
	cases := []struct {
		name string
		kids []interval
		want int64
	}{
		{"no children", nil, 100},
		{"one child inside", []interval{{120, 150}}, 70},
		{"two disjoint", []interval{{110, 120}, {150, 190}}, 50},
		{"overlapping children count once", []interval{{110, 160}, {140, 170}}, 40},
		{"nested", []interval{{110, 190}, {120, 130}}, 20},
		{"sticks out of the parent", []interval{{50, 150}, {180, 300}}, 30},
		{"outside entirely", []interval{{0, 100}, {200, 250}}, 100},
		{"covers all", []interval{{0, 300}}, 0},
		{"touching", []interval{{100, 150}, {150, 200}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(p, c.kids); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSelfTimesFromSpans(t *testing.T) {
	spans := []span{
		{id: 1, name: "client", iv: interval{0, 100}},
		{id: 1, name: "server", parent: "client", iv: interval{10, 90}},
		{id: 1, name: "backend", parent: "server", kind: "nwc", iv: interval{20, 70}},
		{id: 2, name: "client", iv: interval{0, 50}},
		{id: 2, name: "server", parent: "client", iv: interval{5, 45}},
		// Request 3 never reached the server: no layer times.
		{id: 3, name: "client", iv: interval{0, 10}},
	}
	lt := selfTimes(spans)
	if len(lt.driverSelf) != 2 || len(lt.serverSelf) != 2 {
		t.Fatalf("got %d driver and %d server self times, want 2 each", len(lt.driverSelf), len(lt.serverSelf))
	}
	sum := func(xs []int64) int64 {
		s := int64(0)
		for _, x := range xs {
			s += x
		}
		return s
	}
	var d, s []int64
	for i := range lt.driverSelf {
		d = append(d, int64(lt.driverSelf[i]))
		s = append(s, int64(lt.serverSelf[i]))
	}
	if sum(d) != 20+10 || sum(s) != 30+40 {
		t.Errorf("driver self %v, server self %v; want sums 30 and 70", d, s)
	}
	if b := lt.backend["nwc"]; len(b) != 1 || b[0] != 50 {
		t.Errorf("backend nwc times %v, want [50]", b)
	}
}

func TestCounterDeltas(t *testing.T) {
	if got := delta(15, 10); got != 5 {
		t.Errorf("delta = %d", got)
	}
	if got := per(6, 4); got != 1.5 {
		t.Errorf("per = %v", got)
	}
	if got := per(6, 0); got != 0 {
		t.Errorf("per with zero base = %v, want 0", got)
	}
	// A phase histogram's total is mean × count; two snapshots' totals
	// differ by the time spent in between.
	before := phaseTotalMs(2.0, 10) // 20 ms over 10 runs
	after := phaseTotalMs(2.5, 14)  // 4 more runs of 3.75 ms each
	if got := after - before; math.Abs(got-15) > 1e-12 {
		t.Errorf("phase time delta = %v, want 15", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("a counter that went backwards did not panic")
		}
	}()
	delta(3, 4)
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}
