// Package parallel provides the worker-pool primitive used to fan the
// explanation pipeline out across CPU cores: the answers of a query, each
// explained by one sequential compile, and the per-fact loop of Algorithm 1
// are both embarrassingly parallel, and both must produce results that are
// indistinguishable from the serial order.
//
// The contract is deliberately narrow: tasks are indexed 0..n-1, each task
// writes only to its own slot, and error reporting is deterministic (the
// error of the lowest-indexed failing task wins, regardless of completion
// order). Cancellation is cooperative via context.Context.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count knob: values ≤ 0 mean "one worker per
// available CPU" (GOMAXPROCS); positive values are taken as-is.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach runs fn(worker, i) for every i in [0, n) across at most `workers`
// goroutines (clamped to n; values ≤ 0 mean GOMAXPROCS). The worker argument
// identifies the executing worker in [0, workers) so callers can keep
// per-worker scratch state (e.g. a dnnf.Builder) without locking.
//
// Tasks are claimed in index order. When a task fails or ctx is cancelled,
// no new tasks start; in-flight tasks run to completion. The returned error
// is deterministic: the error of the lowest-indexed failing task, or ctx's
// error if cancellation struck first. With workers == 1 the loop degenerates
// to a plain serial for-loop on the calling goroutine.
func ForEach(ctx context.Context, n, workers int, fn func(worker, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next    atomic.Int64 // next task index to claim
		stop    atomic.Bool  // set on first failure or cancellation
		wg      sync.WaitGroup
		mu      sync.Mutex
		errIdx  = n // index of the lowest-indexed failing task
		taskErr error
	)
	fail := func(i int, err error) {
		mu.Lock()
		if i < errIdx {
			errIdx, taskErr = i, err
		}
		mu.Unlock()
		stop.Store(true)
	}
	done := ctx.Done()
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				if stop.Load() {
					return
				}
				select {
				case <-done:
					stop.Store(true)
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(worker, i); err != nil {
					fail(i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if taskErr != nil {
		return taskErr
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return nil
}
