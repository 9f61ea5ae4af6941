package main

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"nwcq"
	"nwcq/internal/core"
	"nwcq/internal/geom"
)

// The containment box must never lose the optimum: the oracle over the
// box at the true optimal distance agrees with the oracle over every
// point, for every measure.
func TestContainmentBoxKeepsOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		pts := make([]nwcq.Point, 60)
		gpts := make([]geom.Point, len(pts))
		for i := range pts {
			pts[i] = nwcq.Point{X: rng.Float64() * 200, Y: rng.Float64() * 200, ID: uint64(i)}
			gpts[i] = geom.Point{X: pts[i].X, Y: pts[i].Y, ID: pts[i].ID}
		}
		for _, m := range allMeasures {
			q := nwcq.Query{X: rng.Float64()*260 - 30, Y: rng.Float64()*260 - 30, Length: 10 + rng.Float64()*30, Width: 10 + rng.Float64()*30, N: 1 + rng.Intn(4), Measure: m}
			all := core.BruteForceNWC(gpts, core.Query{Q: geom.Point{X: q.X, Y: q.Y}, L: q.Length, W: q.Width, N: q.N}, coreMeasure(m))
			if !all.Found {
				continue
			}
			got, found := bruteNWC(pts, q, all.Dist)
			if !found || got != all.Dist {
				t.Fatalf("trial %d measure %v: box oracle %v (found %v), full oracle %v", trial, m, got, found, all.Dist)
			}
			// An answer claiming a worse distance is caught.
			if worse, _ := bruteNWC(pts, q, all.Dist+5); near(worse, all.Dist+5) {
				t.Fatalf("trial %d measure %v: a suboptimal distance passed", trial, m)
			}
		}
	}
}

func TestContainmentBoxExtent(t *testing.T) {
	q := nwcq.Query{X: 100, Y: 50, Length: 10, Width: 4}
	b := containmentBox(q, 3)
	if !near(b.MinX, 87) || !near(b.MaxX, 113) || !near(b.MinY, 43) || !near(b.MaxY, 57) {
		t.Errorf("box %+v, want q ± (d+l, d+w) = [87,113] × [43,57]", b)
	}
}

func exists(pointJSON) error { return nil }

func TestCheckGroup(t *testing.T) {
	q := nwcq.Query{X: 0, Y: 0, Length: 10, Width: 10, N: 2, Measure: nwcq.MaxDistance}
	good := groupJSON{
		Objects: []pointJSON{{X: 3, Y: 4, ID: 1}, {X: 6, Y: 8, ID: 2}},
		Dist:    10,
		Window:  rectJSON{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10},
	}
	if err := checkGroup(q, good, true, exists); err != nil {
		t.Fatalf("valid group rejected: %v", err)
	}
	for _, m := range []struct {
		measure nwcq.Measure
		dist    float64
	}{{nwcq.MinDistance, 5}, {nwcq.AvgDistance, 7.5}, {nwcq.WindowDistance, 0}} {
		qm := q
		qm.Measure = m.measure
		g := good
		g.Dist = m.dist
		if err := checkGroup(qm, g, true, exists); err != nil {
			t.Errorf("measure %v: valid group rejected: %v", m.measure, err)
		}
	}
	bad := map[string]func(g *groupJSON){
		"wrong distance":  func(g *groupJSON) { g.Dist = 9 },
		"too few objects": func(g *groupJSON) { g.Objects = g.Objects[:1] },
		"duplicate":       func(g *groupJSON) { g.Objects = []pointJSON{g.Objects[0], g.Objects[0]} },
		"outside window":  func(g *groupJSON) { g.Window = rectJSON{MinX: 4, MinY: 0, MaxX: 14, MaxY: 10} },
		"window size":     func(g *groupJSON) { g.Window.MaxX = 12 },
		"order":           func(g *groupJSON) { g.Objects = []pointJSON{g.Objects[1], g.Objects[0]} },
	}
	for name, mutate := range bad {
		g := good
		g.Objects = append([]pointJSON{}, good.Objects...)
		mutate(&g)
		if err := checkGroup(q, g, true, exists); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A later kNWC group under the window measure reports its own
	// window's distance, which may exceed the nearest window holding its
	// objects, but never undercut it.
	qw := q
	qw.Measure = nwcq.WindowDistance
	later := groupJSON{
		Objects: []pointJSON{{X: 13, Y: 0, ID: 1}, {X: 14, Y: 0, ID: 2}},
		Dist:    12,
		Window:  rectJSON{MinX: 12, MinY: -5, MaxX: 22, MaxY: 5},
	}
	if err := checkGroup(qw, later, false, exists); err != nil {
		t.Errorf("later window-measure group rejected: %v", err)
	}
	if err := checkGroup(qw, later, true, exists); err == nil {
		t.Error("first group farther than the nearest window holding its objects was accepted")
	}
}

func TestCheckKGroupsOverlap(t *testing.T) {
	q := nwcq.KQuery{Query: nwcq.Query{Length: 10, Width: 10, N: 2}, K: 2, M: 1}
	g1 := groupJSON{Objects: []pointJSON{{X: 1, Y: 0, ID: 1}, {X: 2, Y: 0, ID: 2}}, Dist: 2, Window: rectJSON{MaxX: 10, MaxY: 10}}
	g2 := groupJSON{Objects: []pointJSON{{X: 1, Y: 0, ID: 1}, {X: 3, Y: 0, ID: 3}}, Dist: 3, Window: rectJSON{MaxX: 10, MaxY: 10}}
	if err := checkKGroups(q, []groupJSON{g1, g2}, exists); err != nil {
		t.Fatalf("valid answer rejected: %v", err)
	}
	q.M = 0
	if err := checkKGroups(q, []groupJSON{g1, g2}, exists); err == nil || !strings.Contains(err.Error(), "share") {
		t.Errorf("overlap beyond m accepted: %v", err)
	}
	q.M = 1
	if err := checkKGroups(q, []groupJSON{g2, g1}, exists); err == nil {
		t.Error("groups out of distance order accepted")
	}
}

func TestLedgerVersions(t *testing.T) {
	l := newLedger([]nwcq.Point{{X: 1, Y: 1, ID: 1}})
	p := nwcq.Point{X: 2, Y: 2, ID: 2}
	l.insertSent(p, 100)
	l.acked(op{kind: opInsert, p: p}, 110)
	l.acked(op{kind: opDelete, p: nwcq.Point{X: 1, Y: 1, ID: 1}}, 200)

	cases := []struct {
		o          pointJSON
		sent, done int64
		ok         bool
	}{
		{pointJSON{X: 2, Y: 2, ID: 2}, 90, 105, true},   // insert in flight
		{pointJSON{X: 2, Y: 2, ID: 2}, 10, 50, false},   // answered before the insert was sent
		{pointJSON{X: 1, Y: 1, ID: 1}, 150, 250, true},  // delete in flight
		{pointJSON{X: 1, Y: 1, ID: 1}, 210, 250, false}, // delete acknowledged before the request
		{pointJSON{X: 1, Y: 2, ID: 1}, 0, 10, false},    // wrong coordinates
		{pointJSON{X: 9, Y: 9, ID: 9}, 0, 10, false},    // never inserted
	}
	for i, c := range cases {
		if err := l.existed(c.o, c.sent, c.done); (err == nil) != c.ok {
			t.Errorf("case %d: existed = %v, want ok=%v", i, err, c.ok)
		}
	}
	live := l.live()
	if len(live) != 1 || live[0] != p {
		t.Errorf("live = %+v, want only the inserted point", live)
	}
}

func TestGroupDistWindowMeasure(t *testing.T) {
	// Objects spanning [2,5] × [1,3] with 10 × 10 windows: the windows
	// holding them cover [-5,12] × [-7,11]; q = (20, 0) is 8 away.
	q := nwcq.Query{X: 20, Y: 0, Length: 10, Width: 10, Measure: nwcq.WindowDistance}
	objs := []pointJSON{{X: 2, Y: 1}, {X: 5, Y: 3}}
	if d := groupDist(q, objs); math.Abs(d-8) > 1e-12 {
		t.Errorf("window distance %v, want 8", d)
	}
}
