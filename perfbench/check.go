package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"

	"nwcq"
	"nwcq/internal/core"
	"nwcq/internal/geom"
)

// The server's response shapes, decoded independently of its code.
type pointJSON struct {
	X  float64 `json:"x"`
	Y  float64 `json:"y"`
	ID uint64  `json:"id"`
}

type rectJSON struct {
	MinX float64 `json:"min_x"`
	MinY float64 `json:"min_y"`
	MaxX float64 `json:"max_x"`
	MaxY float64 `json:"max_y"`
}

type groupJSON struct {
	Objects []pointJSON `json:"objects"`
	Dist    float64     `json:"dist"`
	Window  rectJSON    `json:"window"`
}

type nwcResponse struct {
	Found bool       `json:"found"`
	Group *groupJSON `json:"group"`
}

type knwcResponse struct {
	Found  bool        `json:"found"`
	Groups []groupJSON `json:"groups"`
}

// relTol bounds float disagreement: the checks recompute distances in
// their own order of operations.
const relTol = 1e-9

func near(a, b float64) bool {
	return math.Abs(a-b) <= relTol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// ledger is the benchmark's own record of which points exist when. An
// object in an answer must have existed at some instant between the
// request's send and its response.
type ledger struct {
	mu  sync.Mutex
	pts map[uint64]*pointLife
}

type pointLife struct {
	p nwcq.Point
	// insertSent is when its insert was sent, insertAcked when it was
	// acknowledged, deleteAcked when its delete was acknowledged; points
	// of the initial set were inserted at -inf, and a point not deleted
	// has deleteAcked = +inf.
	insertSent, insertAcked, deleteAcked int64
}

func newLedger(pts []nwcq.Point) *ledger {
	l := &ledger{pts: make(map[uint64]*pointLife, len(pts))}
	for _, p := range pts {
		l.pts[p.ID] = &pointLife{p: p, insertSent: math.MinInt64, insertAcked: math.MinInt64, deleteAcked: math.MaxInt64}
	}
	return l
}

func (l *ledger) insertSent(p nwcq.Point, at int64) {
	l.mu.Lock()
	l.pts[p.ID] = &pointLife{p: p, insertSent: at, insertAcked: math.MaxInt64, deleteAcked: math.MaxInt64}
	l.mu.Unlock()
}

func (l *ledger) acked(o op, at int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lf := l.pts[o.p.ID]; lf != nil {
		if o.kind == opInsert {
			lf.insertAcked = at
		} else {
			lf.deleteAcked = at
		}
	}
}

// existed reports whether o was a live point at some instant of
// [sent, done].
func (l *ledger) existed(o pointJSON, sent, done int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	lf := l.pts[o.ID]
	switch {
	case lf == nil:
		return fmt.Errorf("object %d was never inserted", o.ID)
	case lf.p.X != o.X || lf.p.Y != o.Y:
		return fmt.Errorf("object %d at (%v, %v), inserted at (%v, %v)", o.ID, o.X, o.Y, lf.p.X, lf.p.Y)
	case lf.insertSent > done:
		return fmt.Errorf("object %d answered before its insert was sent", o.ID)
	case lf.deleteAcked < sent:
		return fmt.Errorf("object %d answered after its delete was acknowledged", o.ID)
	}
	return nil
}

// live returns the acknowledged point set, sorted by id.
func (l *ledger) live() []nwcq.Point {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []nwcq.Point
	for _, lf := range l.pts {
		if lf.insertAcked != math.MaxInt64 && lf.deleteAcked == math.MaxInt64 {
			out = append(out, lf.p)
		}
	}
	sortByID(out)
	return out
}

func sortByID(pts []nwcq.Point) {
	sort.Slice(pts, func(i, j int) bool { return pts[i].ID < pts[j].ID })
}

// checkGroup validates one answer group of query q: n distinct objects
// that existed during the request, ordered by distance, inside one
// l × w window, with the distance recomputed under q's measure. best
// marks the first group of an answer.
func checkGroup(q nwcq.Query, g groupJSON, best bool, existed func(pointJSON) error) error {
	if len(g.Objects) != q.N {
		return fmt.Errorf("group has %d objects, want %d", len(g.Objects), q.N)
	}
	w := g.Window
	if !near(w.MaxX-w.MinX, q.Length) || !near(w.MaxY-w.MinY, q.Width) {
		return fmt.Errorf("window %v is not %v x %v", w, q.Length, q.Width)
	}
	seen := make(map[uint64]bool, len(g.Objects))
	prev := -1.0
	for _, o := range g.Objects {
		if seen[o.ID] {
			return fmt.Errorf("object %d appears twice", o.ID)
		}
		seen[o.ID] = true
		if o.X < w.MinX || o.X > w.MaxX || o.Y < w.MinY || o.Y > w.MaxY {
			return fmt.Errorf("object %d (%v, %v) outside window %v", o.ID, o.X, o.Y, w)
		}
		d := math.Hypot(o.X-q.X, o.Y-q.Y)
		if d < prev {
			return fmt.Errorf("objects not ordered by distance")
		}
		prev = d
		if err := existed(o); err != nil {
			return err
		}
	}
	want := groupDist(q, g.Objects)
	if q.Measure == nwcq.WindowDistance && !best {
		// A later kNWC group may come from a window farther than the
		// nearest one holding its objects: that nearer window's own
		// closest objects form a different group.
		if g.Dist < want && !near(g.Dist, want) {
			return fmt.Errorf("reported distance %v below the nearest window holding the objects, %v", g.Dist, want)
		}
		want = geom.Rect{MinX: w.MinX, MinY: w.MinY, MaxX: w.MaxX, MaxY: w.MaxY}.MinDist(geom.Point{X: q.X, Y: q.Y})
	}
	if !near(g.Dist, want) {
		return fmt.Errorf("reported distance %v, recomputed %v under measure %v", g.Dist, want, q.Measure)
	}
	return nil
}

// groupDist recomputes a group's distance from its objects alone. For
// the window measure it is the distance to the nearest l × w window
// that holds all of them: those windows together cover the rectangle
// [maxX-l, minX+l] × [maxY-w, minY+w].
func groupDist(q nwcq.Query, objs []pointJSON) float64 {
	switch q.Measure {
	case nwcq.MinDistance:
		best := math.Inf(1)
		for _, o := range objs {
			best = math.Min(best, math.Hypot(o.X-q.X, o.Y-q.Y))
		}
		return best
	case nwcq.AvgDistance:
		sum := 0.0
		for _, o := range objs {
			sum += math.Hypot(o.X-q.X, o.Y-q.Y)
		}
		return sum / float64(len(objs))
	case nwcq.WindowDistance:
		minX, minY, maxX, maxY := math.Inf(1), math.Inf(1), math.Inf(-1), math.Inf(-1)
		for _, o := range objs {
			minX, maxX = math.Min(minX, o.X), math.Max(maxX, o.X)
			minY, maxY = math.Min(minY, o.Y), math.Max(maxY, o.Y)
		}
		return geom.Rect{MinX: maxX - q.Length, MinY: maxY - q.Width, MaxX: minX + q.Length, MaxY: minY + q.Width}.
			MinDist(geom.Point{X: q.X, Y: q.Y})
	default:
		worst := 0.0
		for _, o := range objs {
			worst = math.Max(worst, math.Hypot(o.X-q.X, o.Y-q.Y))
		}
		return worst
	}
}

// checkKGroups validates a kNWC answer: every group valid, distances
// ascending, and no two groups sharing more than m objects.
func checkKGroups(q nwcq.KQuery, gs []groupJSON, existed func(pointJSON) error) error {
	if len(gs) == 0 || len(gs) > q.K {
		return fmt.Errorf("%d groups for k=%d", len(gs), q.K)
	}
	for i, g := range gs {
		if err := checkGroup(q.Query, g, i == 0, existed); err != nil {
			return fmt.Errorf("group %d: %w", i, err)
		}
		if i > 0 && g.Dist < gs[i-1].Dist {
			return fmt.Errorf("group %d closer than group %d", i, i-1)
		}
		for j := 0; j < i; j++ {
			if ov := overlap(g, gs[j]); ov > q.M {
				return fmt.Errorf("groups %d and %d share %d objects, m=%d", j, i, ov, q.M)
			}
		}
	}
	return nil
}

func overlap(a, b groupJSON) int {
	n := 0
	for _, x := range a.Objects {
		for _, y := range b.Objects {
			if x.ID == y.ID {
				n++
			}
		}
	}
	return n
}

// decodeAnswer checks one read response body and returns the distance
// of its best group (+Inf when nothing was found).
func decodeAnswer(o op, body []byte, existed func(pointJSON) error) (float64, error) {
	if o.kind == opNWC {
		var r nwcResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return 0, fmt.Errorf("decode nwc answer: %w", err)
		}
		if !r.Found || r.Group == nil {
			return math.Inf(1), nil
		}
		return r.Group.Dist, checkGroup(o.q.Query, *r.Group, true, existed)
	}
	var r knwcResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return 0, fmt.Errorf("decode knwc answer: %w", err)
	}
	if !r.Found {
		return math.Inf(1), nil
	}
	return r.Groups[0].Dist, checkKGroups(o.q, r.Groups, existed)
}

// kDists decodes the distances of a kNWC answer's groups.
func kDists(body []byte) ([]float64, error) {
	var r knwcResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, err
	}
	out := make([]float64, len(r.Groups))
	for i, g := range r.Groups {
		out[i] = g.Dist
	}
	return out, nil
}

// containmentBox is every point a group at distance at most d from q
// can involve, under any measure: its objects lie within d of q in
// each axis, plus one window extent.
func containmentBox(q nwcq.Query, d float64) geom.Rect {
	// Widen by the tolerance so a point on the boundary is not lost to
	// rounding in d.
	ex := d + q.Length + relTol*math.Max(1, d)
	ey := d + q.Width + relTol*math.Max(1, d)
	return geom.Rect{MinX: q.X - ex, MinY: q.Y - ey, MaxX: q.X + ex, MaxY: q.Y + ey}
}

// bruteNWC is the exhaustive optimum of q over the points inside q's
// containment box for distance d. Any group at most d from q lies in
// the box, so when the answer at distance d is optimal over all points
// the two distances agree.
func bruteNWC(pts []nwcq.Point, q nwcq.Query, d float64) (float64, bool) {
	box := containmentBox(q, d)
	var in []geom.Point
	for _, p := range pts {
		g := geom.Point{X: p.X, Y: p.Y, ID: p.ID}
		if box.ContainsPoint(g) {
			in = append(in, g)
		}
	}
	res := core.BruteForceNWC(in, core.Query{Q: geom.Point{X: q.X, Y: q.Y}, L: q.Length, W: q.Width, N: q.N}, coreMeasure(q.Measure))
	return res.Dist, res.Found
}

func coreMeasure(m nwcq.Measure) core.Measure {
	switch m {
	case nwcq.MinDistance:
		return core.MeasureMin
	case nwcq.AvgDistance:
		return core.MeasureAvg
	case nwcq.WindowDistance:
		return core.MeasureWindow
	default:
		return core.MeasureMax
	}
}
