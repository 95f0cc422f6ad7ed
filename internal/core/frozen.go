// Frozen benchmark surface. The benchmark module (bench/, which a PR may not
// edit) compiles against these names; nothing else in the repository should.
// The engine has no shards, no prefilter, no result cache and no query cache:
// every name here is inert or a view of a counter kept elsewhere, and the
// whole file — with Instrumentation.PrefilterProbe and sparql's
// EvalSnapshot.Fallback — is deleted at the next benchmark re-baseline
// (ROADMAP).
package core

import "optimatch/internal/cache"

// frozenState is what the engine holds for this file alone.
type frozenState struct {
	benchCache *cache.Cache // WithResultCache's handle, read by ResultCacheStats
}

// WithShards does nothing: the plan repository is one table (DESIGN.md §14
// holds the measurements that removed the shards).
func WithShards(int) Option { return func(*Engine) {} }

// WithPrefilter does nothing: the one vocabulary test is the evaluator's
// required-constant bail-out, which cannot be turned off.
func WithPrefilter(bool) Option { return func(*Engine) {} }

// WithResultCache only remembers the handle for ResultCacheStats: the engine
// caches no results (internal/server's rendered-response cache is the only
// tier).
func WithResultCache(c *cache.Cache) Option {
	return func(e *Engine) { e.frozen.benchCache = c }
}

// ResultCacheStats reports the counters of the cache handed to
// WithResultCache (zeros without one).
func (e *Engine) ResultCacheStats() cache.Stats { return e.frozen.benchCache.Stats() }

// PrefilterStats is the evaluator's bail-out counters under the names the
// prefilter published them by; see Engine.PrefilterStats.
type PrefilterStats struct {
	Probed     int64 // (plan, query) pairs executed
	Skipped    int64 // of those, the ones that bailed out on a missing required constant
	ShardSkips int64 // always 0
}

// PrefilterStats is a view of EvalStats: the pairs the prefilter used to
// probe are the pairs the evaluator now executes, and the pairs it used to
// skip are exactly the ones the evaluator bails out of, so /api/stats'
// "prefilter" group and the benchmark's core.prefilter_skip_ratio keep their
// values.
func (e *Engine) PrefilterStats() PrefilterStats {
	ev := e.EvalStats()
	return PrefilterStats{Probed: ev.Specialized, Skipped: ev.ConstantBailouts}
}

// CacheStats is what the parse-once query cache published. There is no such
// cache: a query is parsed by whoever writes it (pattern.Compile, or the
// caller of FindSPARQL) and the engine only scans parsed queries.
type CacheStats struct {
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Size     int   `json:"size"`
	Bytes    int64 `json:"bytes"`
	Capacity int   `json:"capacity"`
}

// CacheStats returns zeros, which keeps /api/stats' "queryCache" group in its
// shape and the benchmark's core.query_cache_hit_ratio at 0.
func (e *Engine) CacheStats() CacheStats { return CacheStats{} }
