// Package runpar is the parallel sweep engine behind the eval harnesses:
// a bounded worker pool that fans independent, deterministic simulation
// runs across CPUs. Each eval.Run owns its scheduler and its seed, so
// runs may execute concurrently without sharing state; the pool only has
// to guarantee order-stable result collection and prompt cancellation on
// the first error, which keeps parallel sweeps bit-identical to serial
// ones.
package runpar

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// progressKey carries a completion callback through the context to Map.
type progressKey struct{}

// WithProgress returns a context that makes Map report completions:
// fn(done, total) runs after every successfully finished job, possibly
// from multiple goroutines at once, so fn must be safe for concurrent
// use. The callback applies only to the outermost Map call — Map strips
// it from the context it hands to jobs, so nested sweeps (a per-point
// speed scan inside a figure sweep) do not corrupt the outer totals.
func WithProgress(ctx context.Context, fn func(done, total int)) context.Context {
	return context.WithValue(ctx, progressKey{}, fn)
}

// progressFrom extracts the WithProgress callback, if any.
func progressFrom(ctx context.Context) func(done, total int) {
	fn, _ := ctx.Value(progressKey{}).(func(done, total int))
	return fn
}

// Map runs fn(ctx, i) for every i in [0, n) on at most workers goroutines
// and returns the n results in index order. workers <= 0 selects
// runtime.GOMAXPROCS(0); workers == 1 runs inline on the calling
// goroutine, byte-for-byte the serial loop it replaces.
//
// The first error cancels the context handed to the remaining jobs and is
// returned; results computed by other workers before the failure are
// discarded. Jobs are claimed from a shared counter, so slow jobs do not
// stall the pool, and result placement depends only on the job index —
// never on scheduling order.
func Map[T any](ctx context.Context, workers, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	progress := progressFrom(ctx)
	jobCtx := ctx
	if progress != nil {
		// Detach the callback from the jobs' context: a nested Map (e.g.
		// the per-point speed scan inside a figure sweep) must not report
		// its own completions against this call's total.
		jobCtx = WithProgress(ctx, nil)
	}
	var completed atomic.Int64
	report := func() {
		if progress != nil {
			progress(int(completed.Add(1)), n)
		}
	}
	results := make([]T, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			r, err := fn(jobCtx, i)
			if err != nil {
				return nil, err
			}
			results[i] = r
			report()
		}
		return results, nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	jobCtx = ctx
	if progress != nil {
		jobCtx = WithProgress(ctx, nil)
	}
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				r, err := fn(jobCtx, i)
				if err != nil {
					fail(err)
					return
				}
				results[i] = r
				report()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	// The parent context may have been cancelled while workers were
	// draining; do not hand back a partially filled result slice.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}
