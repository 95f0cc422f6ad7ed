package server

import (
	"sync/atomic"
	"time"

	"optimatch/internal/cache"
	"optimatch/internal/core"
	"optimatch/internal/obs"
	"optimatch/internal/store"
)

// Metric names follow one convention: optimatch_<layer>_<what>_<unit>, with
// low-cardinality labels only (route patterns, outcome enums — never plan
// IDs or query text). See DESIGN.md §10 for the full catalogue.

// EngineInstrumentation bridges the engine's scan-stage hooks into the
// registry. Install it where the engine is constructed:
//
//	core.New(core.WithInstrumentation(server.EngineInstrumentation(reg)))
//
// core itself never imports obs — it publishes timings through the hook
// struct, and this adapter owns the metric names.
func EngineInstrumentation(reg *obs.Registry) core.Instrumentation {
	match := reg.Histogram("optimatch_core_plan_match_seconds",
		"SPARQL evaluation latency of every (plan, query) pair a scan evaluates, required-constant bail-outs included.", nil)
	kbScan := reg.Histogram("optimatch_core_kb_scan_seconds",
		"Wall time of one whole RunKB pass over the workload.", nil)
	search := reg.Histogram("optimatch_core_search_seconds",
		"Wall time of one whole pattern/SPARQL search over the workload.", nil)
	return core.Instrumentation{
		PlanMatch: func(d time.Duration) { match.ObserveDuration(d) },
		KBScan:    func(d time.Duration, _, _ int) { kbScan.ObserveDuration(d) },
		Search:    func(d time.Duration, _ int) { search.ObserveDuration(d) },
		// A fan-out is one scan, of every plan loaded, on min(workers, plans)
		// workers: the two scan histograms and optimatch_core_plans_loaded say
		// it, so no series does. The hook stays non-nil because the benchmark
		// module wraps these hooks and forwards to each one.
		Pool: func(int, int) {},
	}
}

// StoreInstrumentation bridges the durable store's hooks into the registry.
// Install it at store.Open time via store.WithInstrumentation.
func StoreInstrumentation(reg *obs.Registry) store.Instrumentation {
	walWrite := reg.Histogram("optimatch_store_wal_append_seconds",
		"Buffered write latency of one WAL record (excludes fsync); its count is the records appended since open.", obs.MicroBuckets)
	walSync := reg.Histogram("optimatch_store_wal_fsync_seconds",
		"fsync latency of one WAL append — the durability cost every acknowledged mutation pays; its count is the fsyncs since open.", nil)
	const compactName = "optimatch_store_compaction_seconds"
	const compactHelp = "Snapshot compaction duration by result, a reopen's included; the count of result=ok is the compactions since open."
	compactOK := reg.Histogram(compactName, compactHelp, nil, "result", "ok")
	compactErr := reg.Histogram(compactName, compactHelp, nil, "result", "error")
	var recovery atomic.Int64 // nanoseconds
	reg.GaugeFunc("optimatch_store_recovery_seconds", "Duration of the recovery pass at open.",
		func() float64 { return time.Duration(recovery.Load()).Seconds() })
	return store.Instrumentation{
		WALAppend: func(write, sync time.Duration, _ int) {
			walWrite.ObserveDuration(write)
			walSync.ObserveDuration(sync)
		},
		Compaction: func(d time.Duration, ok bool) {
			if ok {
				compactOK.ObserveDuration(d)
			} else {
				compactErr.ObserveDuration(d)
			}
		},
		Recovery: func(d time.Duration, _, _ int64) {
			recovery.Store(int64(d))
		},
	}
}

// registerStateMetrics exports the counters that already live as atomics in
// core, sparql and store as scrape-time functions, so /metrics covers every
// layer even when the engine was built without EngineInstrumentation.
func (s *Server) registerStateMetrics() {
	reg := s.metrics
	reg.GaugeFunc("optimatch_core_plans_loaded", "Plans currently loaded in the engine.",
		func() float64 { return float64(s.eng.NumPlans()) })
	reg.GaugeFunc("optimatch_kb_entries", "Knowledge-base entries currently served.",
		func() float64 { return float64(s.kb.Len()) })

	const batchName = "optimatch_ingest_batch_records_total"
	const batchHelp = "NDJSON records received by POST /api/plans:batch, by outcome."
	reg.CounterFunc(batchName, batchHelp, func() float64 { return float64(s.batch.accepted.Load()) }, "outcome", "accepted")
	reg.CounterFunc(batchName, batchHelp, func() float64 { return float64(s.batch.rejected.Load()) }, "outcome", "rejected")
	reg.CounterFunc("optimatch_ingest_batch_requests_total",
		"Batch ingest requests that passed framing checks.",
		func() float64 { return float64(s.batch.requests.Load()) })

	const evalName = "optimatch_sparql_eval_total"
	const evalHelp = "SPARQL executions: all of them (every (plan, query) pair a scan evaluates; kb_pairs_skipped_total counts the ones it does not), and the subset that skipped WHERE evaluation because the plan's vocabulary misses a constant the query requires."
	reg.CounterFunc(evalName, evalHelp, func() float64 { return float64(s.eng.EvalStats().Specialized) }, "path", "all")
	reg.CounterFunc(evalName, evalHelp, func() float64 { return float64(s.eng.EvalStats().ConstantBailouts) }, "path", "constant_bailout")

	reg.CounterFunc("optimatch_kb_pairs_skipped_total",
		"(plan, entry) pairs a knowledge-base scan did not evaluate because an entry containing the entry, its guard, found nothing in the plan.",
		func() float64 { return float64(s.eng.KBPairsSkipped()) })

	reg.CounterFunc("optimatch_sparql_join_rows_total",
		"Recursion nodes of the depth-first join: one per triple pattern run on one row.",
		func() float64 { return float64(s.eng.EvalStats().JoinRows) })
	reg.CounterFunc("optimatch_sparql_match_rows_total",
		"Matches the join's recursion nodes tried to bind into their row, the ones a filter then refused included: with join_rows, what a join order cost.",
		func() float64 { return float64(s.eng.EvalStats().MatchRows) })

	reg.GaugeFunc("optimatch_exec_in_flight", "Weighted units of engine scan work currently admitted.",
		func() float64 { return float64(s.exec.inFlight.Load()) })
	reg.CounterFunc("optimatch_exec_cancelled_total",
		"Engine executions stopped because the client disconnected or the daemon shut down.",
		func() float64 { return float64(s.exec.cancelled.Load()) })
	reg.CounterFunc("optimatch_exec_deadline_total",
		"Engine executions stopped at their query deadline (504s).",
		func() float64 { return float64(s.exec.deadline.Load()) })
	reg.CounterFunc("optimatch_exec_shed_total",
		"Requests turned away by the admission gate (503s).",
		func() float64 { return float64(s.exec.shed.Load()) })

	if s.cache != nil {
		cst := func(f func(cache.Stats) float64) func() float64 {
			return func() float64 { return f(s.cache.Stats()) }
		}
		const reqName = "optimatch_cache_requests_total"
		const reqHelp = "Result-cache lookups by outcome (hit: served from cache, miss: executed and possibly stored, collapsed: joined an in-flight execution)."
		reg.CounterFunc(reqName, reqHelp, cst(func(st cache.Stats) float64 { return float64(st.Hits) }), "result", "hit")
		reg.CounterFunc(reqName, reqHelp, cst(func(st cache.Stats) float64 { return float64(st.Misses) }), "result", "miss")
		reg.CounterFunc(reqName, reqHelp, cst(func(st cache.Stats) float64 { return float64(st.Collapsed) }), "result", "collapsed")
		reg.CounterFunc("optimatch_cache_evictions_total", "Result-cache entries evicted under the byte budget.",
			cst(func(st cache.Stats) float64 { return float64(st.Evictions) }))
		reg.CounterFunc("optimatch_cache_rejected_total", "Results not admitted to the cache (generation moved while rendering, oversized).",
			cst(func(st cache.Stats) float64 { return float64(st.Rejected) }))
		reg.GaugeFunc("optimatch_cache_bytes", "Bytes currently held by result-cache entries.",
			cst(func(st cache.Stats) float64 { return float64(st.Bytes) }))
		reg.GaugeFunc("optimatch_cache_entries", "Entries currently in the result cache.",
			cst(func(st cache.Stats) float64 { return float64(st.Entries) }))
	}

	const pathName = "optimatch_sparql_path_total"
	const pathHelp = "Property-path closure acceleration events by kind (per-evaluation memo hits/misses)."
	reg.CounterFunc(pathName, pathHelp, func() float64 { return float64(s.eng.EvalStats().Path.MemoHits) }, "kind", "memo_hit")
	reg.CounterFunc(pathName, pathHelp, func() float64 { return float64(s.eng.EvalStats().Path.MemoMisses) }, "kind", "memo_miss")
	reg.CounterFunc("optimatch_sparql_path_bfs_steps_total",
		"Edges traversed by closure BFS walks.",
		func() float64 { return float64(s.eng.EvalStats().Path.BFSSteps) })
	reg.CounterFunc("optimatch_sparql_path_bitset_bytes_total",
		"Bytes of closure visited bitset brought into use, once per bitset per evaluation (allocated or taken from the pooled scratch).",
		func() float64 { return float64(s.eng.EvalStats().Path.BitsetBytes) })

	if !s.st.Durable() {
		return
	}
	stat := func(f func(store.Stats) float64) func() float64 {
		return func() float64 { return f(s.st.Stats()) }
	}
	reg.GaugeFunc("optimatch_store_wal_records", "Records currently in the WAL.",
		stat(func(st store.Stats) float64 { return float64(st.WALRecords) }))
	reg.GaugeFunc("optimatch_store_wal_bytes", "Bytes currently in the WAL.",
		stat(func(st store.Stats) float64 { return float64(st.WALBytes) }))
	reg.GaugeFunc("optimatch_store_generation", "Snapshot compaction generation.",
		stat(func(st store.Stats) float64 { return float64(st.Generation) }))
	reg.GaugeFunc("optimatch_store_last_seq", "Newest applied log sequence number.",
		stat(func(st store.Stats) float64 { return float64(st.LastSeq) }))
	reg.CounterFunc("optimatch_store_appended_bytes_total", "WAL bytes appended since open.",
		stat(func(st store.Stats) float64 { return float64(st.AppendedBytes) }))
	reg.CounterFunc("optimatch_store_recovered_records_total", "WAL records replayed at open.",
		stat(func(st store.Stats) float64 { return float64(st.RecoveredRecords) }))
	reg.CounterFunc("optimatch_store_recovery_truncations_total", "Torn WAL tails truncated at open.",
		stat(func(st store.Stats) float64 { return float64(st.RecoveryTruncations) }))
	reg.CounterFunc("optimatch_store_batch_appends_total", "Batch WAL records appended since open.",
		stat(func(st store.Stats) float64 { return float64(st.BatchAppends) }))
	reg.CounterFunc("optimatch_store_batch_plans_total", "Plans persisted through batch records since open.",
		stat(func(st store.Stats) float64 { return float64(st.BatchPlans) }))

	reg.GaugeFunc("optimatch_store_degraded", "1 while the store is in degraded read-only mode (writes rejected, reads serving).",
		stat(func(st store.Stats) float64 {
			if st.Degraded {
				return 1
			}
			return 0
		}))
	const faultName = "optimatch_store_fault_total"
	const faultHelp = "Durability faults observed by the store, by failing operation."
	reg.CounterFunc(faultName, faultHelp,
		stat(func(st store.Stats) float64 { return float64(st.FaultWrites) }), "op", "append")
	reg.CounterFunc(faultName, faultHelp,
		stat(func(st store.Stats) float64 { return float64(st.FaultSyncs) }), "op", "fsync")
	reg.CounterFunc(faultName, faultHelp,
		stat(func(st store.Stats) float64 { return float64(st.FaultCompactions) }), "op", "compact")
	const reopenName = "optimatch_store_reopen_total"
	const reopenHelp = "Degraded-mode reopen attempts, by result."
	reg.CounterFunc(reopenName, reopenHelp,
		stat(func(st store.Stats) float64 { return float64(st.Reopens) }), "result", "ok")
	reg.CounterFunc(reopenName, reopenHelp,
		stat(func(st store.Stats) float64 { return float64(st.ReopenFailures) }), "result", "error")
}
