// Scan plumbing shared by find and RunKB: one scan's fan-out over the plan
// list, on the engine's worker pool.
package core

import (
	"context"

	"optimatch/internal/transform"
)

// forEachPlan runs fn over the plans on the engine's bounded worker pool
// (Parallel over the plan indexes): a workload of thousands of plans costs a
// fixed number of goroutines, not one per plan.
//
// Cancellation semantics: every task checks ctx first, so once ctx is
// cancelled no further plan is started; tasks already running finish on their
// own (each one's SPARQL evaluation observes the same ctx and returns within a
// bounded number of iterations), Parallel returns only when every worker has —
// no goroutine outlives this call — and ctx.Err() is returned.
func (e *Engine) forEachPlan(ctx context.Context, plans []*transform.Result, fn func(i int, r *transform.Result)) error {
	if e.instr.Pool != nil {
		e.instr.Pool(max(min(e.workers, len(plans)), 1), len(plans))
	}
	e.Parallel(len(plans), func(i int) {
		if ctx.Err() == nil {
			fn(i, plans[i])
		}
	})
	return ctx.Err()
}
