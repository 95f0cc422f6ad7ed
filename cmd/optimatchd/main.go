// Command optimatchd serves the OptImatch engine over HTTP — the paper's
// client/server deployment (Figure 4). Load a workload directory at start,
// then drive it with the JSON API (see internal/server for endpoints):
//
//	optimatchd -addr :8080 -load ./workload -extended
//
//	curl localhost:8080/api/plans
//	curl -X POST --data-binary @plan.exfmt localhost:8080/api/plans
//	curl -X POST --data-binary @pattern.json localhost:8080/api/search
//	curl -X POST localhost:8080/api/kb/run
//
// With -data the daemon becomes stateful: plan uploads and knowledge-base
// mutations are journaled to a write-ahead log under the given directory
// and recovered on the next start, so the repository of problem plans
// accumulates across sessions:
//
//	optimatchd -addr :8080 -data ./optimatch-data
//
// Without -data the daemon runs the same repository with no journal: every
// write takes the same path, nothing survives the exit.
//
// Workload-scale ingest goes through POST /api/plans:batch (NDJSON, one plan
// per line, bounded by -batch-max-records/-batch-max-bytes): the whole batch
// is one WAL record, one fsync and one result-cache invalidation, with a
// per-record outcome report. A body over -batch-max-bytes answers 413; a plan
// larger than that bound goes through POST /api/plans, whose own bound is
// 16 MiB. -load is ingested the same way, in batches under
// the same two bounds: a directory of N plans costs ⌈N/1024⌉ fsyncs at the
// defaults, and plans the store already holds are skipped.
//
// The daemon is observable in production: every request gets a structured
// access-log line (-log-format json for machine ingestion, -slow-ms for a
// WARN on slow requests), GET /metrics exposes per-stage counters and
// latency histograms across every layer in the Prometheus text format, and
// -debug-addr serves net/http/pprof on a separate, private listener.
//
// Execution is deadline-aware: -query-timeout bounds every engine scan
// (clients may shorten it per request with an X-Timeout-Ms header; 504 on
// expiry), and -max-inflight/-queue-wait add an admission gate that sheds
// excess load with 503 + Retry-After instead of queueing without bound.
//
// Repeated searches and scans are served from a generation-keyed result
// cache of rendered responses (-cache-bytes budget): mutations change the
// cache key instead of invalidating, concurrent identical requests collapse
// onto one execution, responses carry an X-Cache header, and Cache-Control:
// no-cache bypasses per request.
//
// Storage faults do not kill the daemon: when a WAL append or compaction
// hits a disk error the store enters degraded read-only mode — writes
// answer 503 + Retry-After while reads, scans and cached responses keep
// serving — and GET /readyz reports ok|degraded|closed for probes. Every
// fault and degraded/recovered transition is logged; POST
// /api/admin/reopen compacts from memory (the one compaction allowed while
// degraded) and resumes writes once the disk is fixed. With -fail-on-degraded the daemon exits with code 3
// when it shuts down while still degraded, so supervisors distinguish a
// clean stop from one that left the store read-only.
//
// On SIGINT/SIGTERM the daemon drains in-flight requests — cancelling
// still-running engine scans halfway through the drain window — and
// flushes the store before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"optimatch/internal/cache"
	"optimatch/internal/core"
	"optimatch/internal/kb"
	"optimatch/internal/obs"
	"optimatch/internal/server"
	"optimatch/internal/store"
)

// shutdownTimeout bounds how long draining in-flight requests may take.
const shutdownTimeout = 10 * time.Second

// errDegradedExit reports a shutdown that left the store degraded while
// -fail-on-degraded was set. main turns it into exit code 3 so process
// supervisors can page on "stopped read-only" separately from crashes.
var errDegradedExit = errors.New("store was degraded at shutdown")

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "optimatchd:", err)
		if errors.Is(err, errDegradedExit) {
			os.Exit(3)
		}
		os.Exit(1)
	}
}

func run() error {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address")
		load         = flag.String("load", "", "directory of explain files to load at start")
		kbFile       = flag.String("kb", "", "knowledge base JSON (default: built-in canonical patterns)")
		extended     = flag.Bool("extended", false, "use the extended built-in knowledge base (patterns E-G)")
		workers      = flag.Int("workers", 0, "matcher worker-pool size (default: GOMAXPROCS)")
		batchMaxRecs = flag.Int("batch-max-records", 1024, "max NDJSON records accepted by one POST /api/plans:batch (and files per -load batch)")
		batchMaxB    = flag.Int64("batch-max-bytes", 8<<20, "max request-body bytes for one POST /api/plans:batch (and explain-text bytes per -load batch)")
		data         = flag.String("data", "", "durable store directory (empty: in-memory only, state lost on exit)")
		compactEvery = flag.Int64("compact-every", 1024, "auto-compact the store once its WAL holds this many records (0: manual only)")
		failDegraded = flag.Bool("fail-on-degraded", false, "exit with code 3 when shutting down while the store is degraded (read-only)")
		queryTimeout = flag.Duration("query-timeout", 30*time.Second, "deadline for one read (search/sparql/kb-run/rdf); clients may shorten it per request with X-Timeout-Ms (0: no deadline)")
		cacheBytes   = flag.Int64("cache-bytes", 64<<20, "byte budget for the generation-keyed result cache (0: caching disabled)")
		maxInflight  = flag.Int("max-inflight", 0, "cap on concurrently admitted scan work, in weighted units (kb/run counts 2, search/sparql 1; 0: unlimited)")
		queueWait    = flag.Duration("queue-wait", 100*time.Millisecond, "how long a request may queue for an admission slot before being shed with 503")
		logLevel     = flag.String("log-level", "info", "log level: debug, info, warn, error")
		logFormat    = flag.String("log-format", "text", "log format: text or json")
		slowMS       = flag.Int64("slow-ms", 500, "WARN-log requests slower than this many milliseconds (0: disabled)")
		debugAddr    = flag.String("debug-addr", "", "serve net/http/pprof and /metrics on this private address (empty: disabled)")
	)
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	if *logFormat != "text" && *logFormat != "json" {
		return fmt.Errorf("unknown -log-format %q (want text or json)", *logFormat)
	}
	log := obs.NewLogger(os.Stderr, level, *logFormat)
	slog.SetDefault(log)
	reg := obs.NewRegistry()

	engOpts := []core.Option{
		core.WithWorkers(*workers),
		core.WithInstrumentation(server.EngineInstrumentation(reg)),
	}

	// The server's rendered-response cache is the only cache; the engine
	// below it caches nothing.
	var resCache *cache.Cache
	if *cacheBytes > 0 {
		resCache = cache.New(cache.Config{MaxBytes: *cacheBytes})
	}

	base, err := loadKB(*kbFile, *extended)
	if err != nil {
		return err
	}

	// execCtx is the base context of every request: cancelling it stops all
	// in-flight engine work cooperatively. It fires halfway through the
	// shutdown drain, so well-behaved requests finish naturally and
	// long-running scans are cut short instead of holding the drain hostage.
	execCtx, cancelExec := context.WithCancel(context.Background())
	defer cancelExec()

	serverOpts := []server.Option{
		server.WithLogger(log),
		server.WithMetrics(reg),
		server.WithSlowThreshold(time.Duration(*slowMS) * time.Millisecond),
		server.WithQueryTimeout(*queryTimeout),
		server.WithAdmission(*maxInflight, *queueWait),
		server.WithBaseContext(execCtx),
		server.WithBatchLimits(*batchMaxRecs, *batchMaxB),
	}
	if resCache != nil {
		serverOpts = append(serverOpts, server.WithResultCache(resCache))
	}
	// Every mutation — the -load seeding below and every write the server
	// takes — goes through one store: a durable one with -data, one with no
	// journal without.
	var st *store.Store
	if *data != "" {
		// The store owns the engine and knowledge base: recovery replays
		// the snapshot + WAL tail into them before we serve a byte. The
		// -kb/-extended flags only seed a store that has no snapshot yet.
		instr := server.StoreInstrumentation(reg)
		// Fault and recovery transitions are operator events, not just
		// metrics: log them at ERROR/INFO so a degraded daemon is visible in
		// the stream even without a Prometheus scrape.
		instr.Degrade = func(op string, cause error) {
			log.Error("store degraded: writes rejected until reopen",
				"op", op, "error", cause)
		}
		instr.Reopen = func(ok bool) {
			if ok {
				log.Info("store reopened: accepting writes again")
			} else {
				log.Error("store reopen failed: still degraded")
			}
		}
		st, err = store.Open(*data,
			store.WithEngineOptions(engOpts...),
			store.WithDefaultKB(base),
			store.WithAutoCompact(*compactEvery),
			store.WithInstrumentation(instr),
		)
		if err != nil {
			return err
		}
		log.Info("store recovered", recoveryAttrs(*data, st)...)
	} else {
		st = store.Memory(core.New(engOpts...), base)
	}
	defer st.Close()
	serverOpts = append(serverOpts, server.WithStore(st))

	if *load != "" {
		n, err := loadDir(st, *load, *batchMaxRecs, *batchMaxB)
		if err != nil {
			return err
		}
		log.Info("workload loaded", "dir", *load, "plans", n)
	}
	log.Info("knowledge base ready", "entries", st.KB().Len())

	srv := &http.Server{
		Addr:              *addr,
		Handler:           server.New(st.Engine(), st.KB(), serverOpts...).Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return execCtx },
	}

	var debugSrv *http.Server
	if *debugAddr != "" {
		debugSrv = &http.Server{
			Addr:              *debugAddr,
			Handler:           debugMux(reg),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			log.Info("debug listener up (pprof + metrics)", "addr", *debugAddr)
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Error("debug listener failed", "error", err)
			}
		}()
	}

	// Serve until SIGINT/SIGTERM, then drain in-flight requests and flush
	// the store so acknowledged mutations are on disk before we exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Info("optimatchd listening", "addr", *addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err // bind failure or unexpected server stop
	case <-ctx.Done():
	}
	stop()
	log.Info("shutting down", "drainTimeout", shutdownTimeout)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	// Give in-flight requests half the drain window to finish on their own,
	// then cancel the base context: engine scans observe it and return (the
	// server answers those with 503 + Retry-After), so a runaway query can
	// delay shutdown by at most half the timeout instead of all of it.
	cutShort := time.AfterFunc(shutdownTimeout/2, cancelExec)
	defer cutShort.Stop()
	if debugSrv != nil {
		_ = debugSrv.Shutdown(shutdownCtx)
	}
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("draining: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	degraded := st.Health().State == store.HealthDegraded
	if err := st.Close(); err != nil {
		return err
	}
	log.Info("store flushed and closed")
	if degraded && *failDegraded {
		return errDegradedExit
	}
	return nil
}

// recoveryAttrs is the "store recovered" line: where start-up time went. It
// must be taken right after store.Open, before -load touches the engine: the
// engine's generation at that moment is the number of replay steps that
// changed the plan table — batch-loaded runs of plans, plus one per removal —
// and every plan replayed and no longer there was removed by one, so "runs" is
// the difference.
func recoveryAttrs(dir string, st *store.Store) []any {
	stats, eng := st.Stats(), st.Engine()
	removals := stats.RecoveredPlans - int64(eng.NumPlans())
	return []any{"dir", dir, "generation", stats.Generation, "plans", eng.NumPlans(),
		"took", time.Duration(stats.RecoveryMillis * float64(time.Millisecond)).Round(time.Microsecond),
		"walRecordsReplayed", stats.RecoveredRecords, "plansReplayed", stats.RecoveredPlans,
		"runs", int64(eng.Generation()) - removals,
		"kbEntriesSkipped", stats.SkippedEntries,
		"tornTailsTruncated", stats.RecoveryTruncations}
}

// debugMux serves pprof and the metrics registry on the -debug-addr
// listener, which is meant to stay private (bind it to localhost).
func debugMux(reg *obs.Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("GET /metrics", reg.Handler())
	return mux
}

// loadKB resolves the -kb/-extended flags to a knowledge base.
func loadKB(kbFile string, extended bool) (*kb.KnowledgeBase, error) {
	switch {
	case kbFile != "":
		f, err := os.Open(kbFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return kb.Load(f)
	case extended:
		return kb.MustExtended(), nil
	default:
		return kb.MustCanonical(), nil
	}
}

// loadDir seeds the store from a directory of explain files, read whole first
// (core.ReadExplainDir) and ingested as AddPlanBatch chunks of at most
// maxRecords files and maxBytes of text (a larger file is a chunk of its own):
// staged on the engine's pool and, with -data, one WAL record and one fsync
// per chunk. IDs the store already holds are skipped (core.ErrDuplicatePlan —
// the same sentinel the server maps to 409), so -load -data restarts are
// idempotent. Any other refusal fails the load naming the first refused file;
// the accepted plans of its chunk are in, later chunks are not ingested.
func loadDir(st *store.Store, dir string, maxRecords int, maxBytes int64) (int, error) {
	names, texts, err := core.ReadExplainDir(dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for start := 0; start < len(texts); {
		end, size := start+1, int64(len(texts[start]))
		for end < len(texts) && end-start < maxRecords && size+int64(len(texts[end])) <= maxBytes {
			size += int64(len(texts[end]))
			end++
		}
		out, err := st.AddPlanBatch(texts[start:end])
		if err != nil {
			return n, err
		}
		var refused error
		for i, o := range out {
			if o.Err == nil {
				n++
			} else if refused == nil && !errors.Is(o.Err, core.ErrDuplicatePlan) {
				refused = fmt.Errorf("%s: %w", names[start+i], o.Err)
			}
		}
		if refused != nil {
			return n, refused
		}
		start = end
	}
	return n, nil
}
