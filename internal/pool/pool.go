// Package pool provides the bounded worker pool every fan-out path
// shares: batch execution on all backends (Batch), the sharded router's
// scatter phase, and its border/certify fetch passes. One
// implementation keeps the claim/fail semantics identical everywhere.
package pool

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"nwcq/internal/qevent"
)

// Workers resolves a parallelism knob: n itself when positive,
// GOMAXPROCS otherwise.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Each runs fn(0..n-1) over a bounded worker pool, returning the first
// error (remaining work is skipped, in-flight calls finish). With one
// worker (or one item) it degenerates to a plain loop on the calling
// goroutine — no goroutines, no locks, no allocations.
func Each(n, workers int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		next     int
	)
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr != nil || next >= n {
			return 0, false
		}
		i := next
		next++
		return i, true
	}
	fail := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr == nil {
			firstErr = err
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := claim()
				if !ok {
					return
				}
				if err := fn(i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// Batch answers every query with run over a bounded worker pool and
// returns the results in input order. The first error aborts the batch
// and is reported with the failing query's index. A request's wide
// event belongs to that one request, so the fan-out runs detached and
// concurrent members never race on it.
func Batch[Q, R any](ctx context.Context, queries []Q, workers int, run func(context.Context, Q) (R, error)) ([]R, error) {
	ctx = qevent.Detach(ctx)
	results := make([]R, len(queries))
	err := Each(len(queries), workers, func(i int) error {
		res, err := run(ctx, queries[i])
		if err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
