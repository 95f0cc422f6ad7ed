// Instrumentation hooks for the engine. The observability layer lives in
// internal/obs, but core must stay dependency-light (it is imported by every
// tool and example), so the engine publishes timings through optional
// function hooks and cheap atomic counters instead of importing a metrics
// registry. A nil hook costs one branch on the hot path; the server layer
// bridges the hooks into Prometheus-rendered histograms.
package core

import (
	"time"

	"optimatch/internal/sparql"
)

// Instrumentation receives per-stage timings from the engine's scan paths.
// Any field may be nil; hooks must be safe for concurrent use (scans run on
// the worker pool).
type Instrumentation struct {
	// PrefilterProbe is never called; frozen benchmark surface (frozen.go).
	PrefilterProbe func(d time.Duration, skipped bool)

	// PlanMatch observes one SPARQL evaluation of a query against one
	// plan's graph: every (plan, query) pair a scan evaluates, including the
	// ones the evaluator bails out of on a missing required constant, and none
	// of the pairs RunKB skips (Engine.KBPairsSkipped).
	PlanMatch func(d time.Duration)

	// KBScan observes one whole RunKB pass: wall time, plans scanned,
	// knowledge-base entries applied.
	KBScan func(d time.Duration, plans, entries int)

	// Search observes one whole search pass (a pattern or a raw query over
	// every plan): wall time and plans scanned.
	Search func(d time.Duration, plans int)

	// Pool observes one worker-pool fan-out: how many workers served how
	// many per-plan tasks. tasks/workers approximates per-worker load;
	// workers < configured size means the plan list was the limit.
	Pool func(workers, tasks int)
}

// WithInstrumentation installs scan-stage hooks on the engine.
func WithInstrumentation(in Instrumentation) Option {
	return func(e *Engine) { e.instr = in }
}

// EvalStats returns a snapshot of the evaluation counters: how many query
// executions ran, how many of them bailed out on a missing required
// constant, and the path-closure work they did.
func (e *Engine) EvalStats() sparql.EvalSnapshot {
	return e.evalStats.Snapshot()
}

// KBPairsSkipped returns how many (plan, entry) pairs RunKB has not evaluated
// because the entry's guard, an entry containing it, found nothing in the plan
// (kb.Scan). Those pairs are not among EvalStats' executions.
func (e *Engine) KBPairsSkipped() int64 { return e.kbPairsSkipped.Load() }
