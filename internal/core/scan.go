// Scan plumbing shared by find and RunKB: the bounded worker pool that fans
// one scan out over the plan list.
package core

import (
	"context"
	"sync"

	"optimatch/internal/transform"
)

// forEachPlan runs fn over the plans on the engine's bounded worker pool.
// Unlike a goroutine-per-plan fan-out, a workload of thousands of plans
// costs a fixed number of goroutines pulling indexes from a channel.
//
// Cancellation semantics: once ctx is cancelled no further plan is
// dispatched; tasks already dequeued finish on their own (each one's SPARQL
// evaluation observes the same ctx and returns within a bounded number of
// iterations), the pool drains completely — no goroutine outlives this call
// — and ctx.Err() is returned.
func (e *Engine) forEachPlan(ctx context.Context, plans []*transform.Result, fn func(i int, r *transform.Result)) error {
	workers := e.workers
	if workers > len(plans) {
		workers = len(plans)
	}
	if e.instr.Pool != nil {
		e.instr.Pool(max(workers, 1), len(plans))
	}
	done := ctx.Done()
	if workers <= 1 {
		for i, r := range plans {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i, r)
		}
		return nil
	}
	idx := make(chan int, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i, plans[i])
			}
		}()
	}
	var err error
dispatch:
	for i := range plans {
		select {
		case idx <- i:
		case <-done:
			err = ctx.Err()
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
	if err != nil {
		return err
	}
	return ctx.Err()
}
