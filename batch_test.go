package nwcq

import (
	"math/rand"
	"testing"

	"nwcq/internal/pool"
)

func TestNWCBatchMatchesSequential(t *testing.T) {
	pts := testPoints(3000, 30)
	idx, err := Build(pts, WithBulkLoad())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	queries := make([]Query, 40)
	for i := range queries {
		queries[i] = Query{
			X: rng.Float64() * 1000, Y: rng.Float64() * 1000,
			Length: 40 + rng.Float64()*80, Width: 40 + rng.Float64()*80,
			N: 1 + rng.Intn(8),
		}
	}
	batch, err := idx.NWCBatch(queries, BatchOptions{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(queries) {
		t.Fatalf("%d results for %d queries", len(batch), len(queries))
	}
	for i, q := range queries {
		seq, err := idx.NWC(q)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i].Found != seq.Found {
			t.Fatalf("query %d: batch found=%v, sequential %v", i, batch[i].Found, seq.Found)
		}
		if seq.Found && batch[i].Dist != seq.Dist {
			t.Fatalf("query %d: batch dist %g, sequential %g", i, batch[i].Dist, seq.Dist)
		}
	}
}

func TestNWCBatchSequentialFallback(t *testing.T) {
	pts := testPoints(500, 32)
	idx, err := Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	queries := []Query{
		{X: 100, Y: 100, Length: 80, Width: 80, N: 2},
		{X: 900, Y: 900, Length: 80, Width: 80, N: 2},
	}
	res, err := idx.NWCBatch(queries, BatchOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("%d results", len(res))
	}
}

func TestNWCBatchPropagatesError(t *testing.T) {
	idx, err := Build(testPoints(100, 33))
	if err != nil {
		t.Fatal(err)
	}
	queries := []Query{
		{X: 1, Y: 1, Length: 10, Width: 10, N: 1},
		{X: 1, Y: 1, Length: -5, Width: 10, N: 1}, // invalid
	}
	if _, err := idx.NWCBatch(queries, BatchOptions{Parallelism: 4}); err == nil {
		t.Error("invalid query slipped through the batch")
	}
}

func TestKNWCBatch(t *testing.T) {
	pts := testPoints(2000, 34)
	idx, err := Build(pts, WithBulkLoad())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(35))
	queries := make([]KQuery, 12)
	for i := range queries {
		queries[i] = KQuery{
			Query: Query{
				X: rng.Float64() * 1000, Y: rng.Float64() * 1000,
				Length: 80, Width: 80, N: 3,
			},
			K: 2, M: 1,
		}
	}
	batch, err := idx.KNWCBatch(queries, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		sres, err := idx.KNWC(q)
		if err != nil {
			t.Fatal(err)
		}
		seq := sres.Groups
		if len(batch[i].Groups) != len(seq) {
			t.Fatalf("query %d: batch %d groups, sequential %d", i, len(batch[i].Groups), len(seq))
		}
		for j := range seq {
			if batch[i].Groups[j].Dist != seq[j].Dist {
				t.Fatalf("query %d group %d: dist %g vs %g", i, j, batch[i].Groups[j].Dist, seq[j].Dist)
			}
		}
	}
}

func TestBatchAfterMutationRebuildsIWPOnce(t *testing.T) {
	idx, err := Build(testPoints(800, 36))
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Insert(Point{X: 1, Y: 1, ID: 9999}); err != nil {
		t.Fatal(err)
	}
	queries := make([]Query, 8)
	for i := range queries {
		queries[i] = Query{X: 500, Y: 500, Length: 60, Width: 60, N: 3, Scheme: SchemeNWCStar}
	}
	// Must not race on the lazy IWP rebuild (run with -race).
	if _, err := idx.NWCBatch(queries, BatchOptions{Parallelism: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestPoolEachEdgeCases(t *testing.T) {
	// Zero items.
	if err := pool.Each(0, 4, func(int) error { t.Fatal("called"); return nil }); err != nil {
		t.Fatal(err)
	}
	// Exactly once per index.
	seen := make([]int, 100)
	err := pool.Each(100, 7, func(i int) error {
		seen[i]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
}
