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
	// plan's graph: every (plan, query) pair of a scan, including the ones
	// the evaluator bails out of on a missing required constant.
	PlanMatch func(d time.Duration)

	// KBScan observes one whole RunKB pass: wall time, plans scanned,
	// knowledge-base entries applied.
	KBScan func(d time.Duration, plans, entries int)

	// Search observes one whole FindSPARQL pass (pattern searches and raw
	// queries): wall time and plans scanned.
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

// CacheStats is a snapshot of the parse-once query cache's counters.
type CacheStats struct {
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Size     int   `json:"size"`     // parsed queries currently cached
	Bytes    int64 `json:"bytes"`    // query-text bytes held by cached entries
	Capacity int   `json:"capacity"` // LRU entry bound (maxCachedQueries)
}

// CacheStats returns the query cache's hit/miss counters.
func (e *Engine) CacheStats() CacheStats {
	return CacheStats{
		Hits:     e.cacheHits.Load(),
		Misses:   e.cacheMisses.Load(),
		Size:     e.queries.len(),
		Bytes:    e.queries.bytes(),
		Capacity: maxCachedQueries,
	}
}

// EvalStats returns a snapshot of the evaluation counters: how many query
// executions ran, how many of them bailed out on a missing required
// constant, and the path-closure work they did.
func (e *Engine) EvalStats() sparql.EvalSnapshot {
	return e.evalStats.Snapshot()
}

// getQuery resolves query text through the parse-once cache, counting hits
// and misses (a parse failure counts as a miss: the parser ran).
func (e *Engine) getQuery(text string) (*sparql.Query, error) {
	q, hit, err := e.queries.get(text)
	if hit {
		e.cacheHits.Add(1)
	} else {
		e.cacheMisses.Add(1)
	}
	return q, err
}
