package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"optimatch/internal/cache"
	"optimatch/internal/core"
	"optimatch/internal/kb"
	"optimatch/internal/obs"
	"optimatch/internal/pattern"
	"optimatch/internal/qep"
	"optimatch/internal/rdf"
	"optimatch/internal/server"
	"optimatch/internal/sparql"
	"optimatch/internal/store"
	"optimatch/internal/transform"
)

// probes runs, at the end of a traced run, the requests that give every
// workload a sample of the server and cache paths its own mix may never
// take: the hot deck answered from the cache (miss, then hit, then 304),
// one compaction on request, uploads racing an uncached scan, and the first
// read of each hot key after the generation moved.
func (r *run) probes(c *client) {
	c.col = &collector{}
	// The hot deck reads four plans' RDF; take four that are loaded now
	// (ingest_durable has deleted some of the original residents).
	var loaded []string
	for id := range r.model.snapshot() {
		loaded = append(loaded, id)
	}
	sort.Strings(loaded)
	deck := make([]request, 0, len(r.in.Hot))
	for _, req := range r.in.Hot {
		if req.Kind == "rdf" {
			req, loaded = rdfRequest(loaded[0]), loaded[1:]
		}
		deck = append(deck, req)
	}
	for pass := 0; pass < 2; pass++ {
		for _, req := range deck {
			c.read(req, wantAny)
		}
	}

	// One compaction on request, so that a workload whose WAL never reaches
	// the automatic threshold still reports what a compaction costs. The
	// writes that follow leave a WAL tail for the final recovery to replay.
	resp := r.sys.do(request{Kind: "compact", Method: "POST", Path: "/api/admin/compact"}, false)
	r.t.attempt(resp.Status == 200, "POST /api/admin/compact: status %d", resp.Status)

	// Any plan that is not loaded will do for the racing uploads.
	present := r.model.snapshot()
	var spare plan
	for _, p := range append(append([]plan(nil), r.in.Churn...), r.in.Resident...) {
		if !present[p.ID] {
			spare = p
			break
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	scanner := newClient(r.sys, r.t, r.model)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				scanner.read(kbRun, wantBypass)
			}
		}
	}()
	uploader := newClient(r.sys, r.t, r.model)
	for i := 0; i < r.cfg.Sizes.ProbePairs; i++ {
		uploader.upload(spare)
		uploader.remove(spare.ID)
	}
	close(stop)
	wg.Wait()
	r.duringScanMS = uploader.col.Uploads

	for _, req := range deck {
		c.read(req, wantAny) // the generation moved: first read of each hot key
	}
	r.probe = c.col
	c.col = &collector{}
}

// The three fixed evaluator probes: a pure basic graph pattern, a BGP with
// numeric FILTERs (pattern C), and the recursive pattern B with its two
// arbitrary-length property paths.
const qProbeBGP = prologue + `SELECT ?scan ?obj WHERE {
  ?scan preduri:hasPopType "TBSCAN" .
  ?scan preduri:hasInputStream ?stream .
  ?stream preduri:hasInputStream ?obj .
  ?obj preduri:isABaseObj ?flag .
}`

// staged is what the staged replica of the requests measured: the public
// calls a request goes through, made one by one from here with a clock
// around each. All times are seconds.
type staged struct {
	Plans, Triples, ExplainBytes int

	Parse, Transform, Load, NTriples float64 // totals over the sampled plans
	HeapBytes                        float64 // live heap the sampled plans added once loaded

	PatternCompileUS, SparqlParseUS     float64 // mean per call
	ExecBGPUS, ExecFilterUS, ExecPathUS float64 // mean per (query, graph) pair
	ApplySeconds                        float64
	Occurrences, Recommendations        int
	KBRunWall, KBRunStaged              float64 // single worker: handler wall, sum of staged self times
	IngestWall, IngestStaged            float64
}

func since(start time.Time) float64 { return time.Since(start).Seconds() }

// runStaged replays the ingest of a sample of the resident plans and one
// knowledge-base scan over them through the layers' public calls, then
// sends the same two requests through a single-worker server, so that self
// times add up to wall time and the remainder is a number.
func runStaged(r *run) (*staged, error) {
	z := r.cfg.Sizes
	sample := r.in.Resident[:min(z.SamplePlans, len(r.in.Resident))]
	s := &staged{Plans: len(sample)}
	ctx := context.Background()

	// Ingest, staged: qep.Parse -> transform.Transform -> Engine.LoadResult.
	eng := core.New(core.WithWorkers(1), core.WithShards(0))
	heap0 := heapAllocMB()
	results := make([]*transform.Result, len(sample))
	for i, p := range sample {
		s.ExplainBytes += len(p.Text)
		t := time.Now()
		parsed, err := qep.Parse(p.Text)
		s.Parse += since(t)
		if err != nil {
			return nil, fmt.Errorf("staged parse of %s: %w", p.ID, err)
		}
		t = time.Now()
		results[i] = transform.Transform(parsed)
		s.Transform += since(t)
		t = time.Now()
		err = eng.LoadResult(results[i])
		s.Load += since(t)
		if err != nil {
			return nil, fmt.Errorf("staged load of %s: %w", p.ID, err)
		}
		s.Triples += results[i].Graph.Len()
	}
	s.HeapBytes = (heapAllocMB() - heap0) * 1e6
	var buf bytes.Buffer
	for _, res := range results {
		buf.Reset()
		t := time.Now()
		if err := rdf.WriteNTriples(&buf, res.Graph); err != nil {
			return nil, err
		}
		s.NTriples += since(t)
	}

	// Search front end: pattern JSON -> pattern -> SPARQL text -> query.
	var texts []string
	for _, p := range pattern.Extended() {
		body, err := p.ToJSON()
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		parsed, err := pattern.FromJSON(body)
		if err != nil {
			return nil, err
		}
		c, err := pattern.Compile(parsed)
		if err != nil {
			return nil, err
		}
		s.PatternCompileUS += since(t1) * 1e6 / 7
		texts = append(texts, c.Query)
	}
	texts = append(texts, qDescent, qClosure, fmt.Sprintf(qFilter, "10000000"), fmt.Sprintf(qOptional, "1000"), fmt.Sprintf(qGroup, "100"))
	t := time.Now()
	for _, text := range texts {
		if _, err := sparql.Parse(text); err != nil {
			return nil, fmt.Errorf("staged parse: %w", err)
		}
	}
	s.SparqlParseUS = since(t) * 1e6 / float64(len(texts))

	exec := func(text string) (float64, error) {
		q, err := sparql.Parse(text)
		if err != nil {
			return 0, err
		}
		t := time.Now()
		for _, res := range results {
			if _, err := q.ExecOpts(res.Graph, sparql.ExecOptions{Ctx: ctx}); err != nil {
				return 0, err
			}
		}
		return since(t) * 1e6 / float64(len(results)), nil
	}
	var err error
	if s.ExecBGPUS, err = exec(qProbeBGP); err != nil {
		return nil, err
	}
	if s.ExecFilterUS, err = exec(texts[2]); err != nil { // pattern C
		return nil, err
	}
	if s.ExecPathUS, err = exec(texts[1]); err != nil { // pattern B
		return nil, err
	}

	// kb/run, staged: per (entry, plan) pair the prefilter probe, the
	// evaluation and the tagging; then ranking and the JSON rendering.
	base := r.w.KB()
	type entry struct {
		e *kb.Entry
		q *sparql.Query
	}
	var entries []entry
	for _, e := range base.Entries() {
		q, err := sparql.Parse(e.SPARQL)
		if err != nil {
			return nil, err
		}
		entries = append(entries, entry{e, q})
	}
	kbStaged := func() (float64, error) {
		total := 0.0
		reports := make([]core.PlanReport, 0, len(results))
		for _, res := range results {
			rep := core.PlanReport{Plan: res.Plan}
			for _, en := range entries {
				t := time.Now()
				ok := en.q.Analysis().RequiredIn(res.Graph)
				total += since(t)
				if !ok {
					continue
				}
				t = time.Now()
				rows, err := en.q.ExecOpts(res.Graph, sparql.ExecOptions{Ctx: ctx})
				total += since(t)
				if err != nil {
					return 0, err
				}
				if rows.Len() == 0 {
					continue
				}
				t = time.Now()
				occs := make([]kb.Occurrence, 0, rows.Len())
				for i := 0; i < rows.Len(); i++ {
					bind := make(map[string]rdf.Term, len(rows.Vars))
					for c, v := range rows.Vars {
						bind[v] = rows.At(i, c)
					}
					occs = append(occs, kb.Occurrence{Plan: res.Plan, Result: res, Bindings: bind})
				}
				ranked, err := en.e.Apply(occs)
				d := since(t)
				total += d
				s.ApplySeconds += d
				if err != nil {
					return 0, err
				}
				s.Occurrences += len(occs)
				rep.Recommendations = append(rep.Recommendations, ranked...)
			}
			t := time.Now()
			kb.SortRanked(rep.Recommendations)
			total += since(t)
			reports = append(reports, rep)
		}
		t := time.Now()
		recs, err := renderReports(reports)
		total += since(t)
		s.Recommendations += recs
		return total, err
	}
	h := server.New(eng, base,
		server.WithLogger(obs.NewLogger(io.Discard, slog.LevelInfo, "text")),
		server.WithMetrics(obs.NewRegistry())).Handler()
	scratch := &system{handler: h, eng: eng}
	var walls, sums []float64
	for i := 0; i < 5; i++ {
		runtime.GC()
		resp := scratch.do(kbRun, false, "Cache-Control", "no-cache")
		if resp.Status != 200 {
			return nil, fmt.Errorf("single-worker kb/run: status %d", resp.Status)
		}
		walls = append(walls, resp.Dur.Seconds())
		runtime.GC()
		sum, err := kbStaged()
		if err != nil {
			return nil, err
		}
		sums = append(sums, sum)
	}
	s.KBRunWall, s.KBRunStaged = median(walls), median(sums)
	s.ApplySeconds /= 5
	s.Occurrences /= 5
	s.Recommendations /= 5

	// Batch ingest, single worker, durable: the handler's wall time against
	// the staged parse + transform + load and the WAL write and fsync that
	// the store's own hook reports for that request.
	dir := filepath.Join(filepath.Dir(r.sys.cfg.Dir), "store-staged")
	rec := newRecorder()
	rec.on.Store(true)
	sys, err := openSystem(sysConfig{Dir: dir, KB: r.w.KB, CompactEvery: 0, Workers: 1, FS: newCountFS(), Rec: rec})
	if err != nil {
		return nil, err
	}
	resp := sys.do(request{Kind: "batch", Method: "POST", Path: "/api/plans:batch", Body: ndjson(sample)}, false)
	if err := sys.close(); err != nil {
		return nil, err
	}
	if resp.Status != 201 {
		return nil, fmt.Errorf("single-worker batch ingest: status %d", resp.Status)
	}
	wal := 0.0
	for _, sp := range rec.finish() {
		if sp.Name == spanWALWrite || sp.Name == spanWALFsync {
			wal += float64(sp.dur()) / 1e9
		}
	}
	s.IngestWall, s.IngestStaged = resp.Dur.Seconds(), s.Parse+s.Transform+s.Load+wal
	return s, os.RemoveAll(dir)
}

// renderReports turns plan reports into the bytes POST /api/kb/run puts on
// the wire: the same fields, the same indentation. It returns the number
// of recommendations rendered.
func renderReports(reports []core.PlanReport) (int, error) {
	type recBody struct {
		Entry      string  `json:"entry"`
		Title      string  `json:"title"`
		Category   string  `json:"category,omitempty"`
		Confidence float64 `json:"confidence"`
		Text       string  `json:"text"`
	}
	type reportBody struct {
		Plan            string    `json:"plan"`
		Message         string    `json:"message"`
		Recommendations []recBody `json:"recommendations,omitempty"`
	}
	recs := 0
	out := make([]reportBody, 0, len(reports))
	for i := range reports {
		rb := reportBody{Plan: reports[i].Plan.ID, Message: reports[i].Message()}
		for _, rec := range reports[i].Recommendations {
			rb.Recommendations = append(rb.Recommendations, recBody{
				Entry: rec.Entry.Name, Title: rec.Recommendation.Title, Category: rec.Recommendation.Category,
				Confidence: rec.Confidence, Text: rec.Text,
			})
			recs++
		}
		out = append(out, rb)
	}
	_, err := encodeIndented(out)
	return recs, err
}

// counts is what the program's public accessors and the counting
// filesystem report for the measured system, taken when the repetitions
// end: its set-up, warm-up and repetitions, a fixed sequence of requests.
// With one client every number in it repeats exactly from run to run; the
// probes that follow race on purpose and contribute latencies only.
type counts struct {
	Prefilter     core.PrefilterStats
	QueryCache    core.CacheStats
	Eval          sparql.EvalSnapshot
	ResultCache   cache.Stats
	Cache         cache.Stats
	Store         store.Stats
	FS            fsCounts
	Requests      int64
	ResponseBytes int64
	Plans         int64 // plans the store acknowledged
	ExplainBytes  int64 // their explain text
}

func takeCounts(sys *system, m *model) counts {
	c := counts{
		Prefilter: sys.eng.PrefilterStats(), QueryCache: sys.eng.CacheStats(), Eval: sys.eng.EvalStats(),
		ResultCache: sys.eng.ResultCacheStats(), Cache: sys.cache.Stats(), Store: sys.st.Stats(),
		FS: sys.cfg.FS.snapshot(), Requests: sys.requests.Load(), ResponseBytes: sys.bytes.Load(),
	}
	c.Plans, c.ExplainBytes = m.accepted()
	return c
}

// perLayer assembles the per-layer metrics of a traced run: the counts,
// span durations, the probes and the staged replica.
func (r *run) perLayer(spans []span, latency map[string]sample) map[string]sample {
	s := r.staged
	all := &collector{}
	var traced, untraced []float64
	all.merge(r.cycles[0].Col) // the measured system's set-up
	for _, p := range r.reps {
		all.merge(p.Col)
		if p.Traced {
			traced = append(traced, float64(p.Col.OK)/p.Wall.seconds())
		} else {
			untraced = append(untraced, float64(p.Col.OK)/p.Wall.seconds())
		}
	}
	all.merge(r.probe)
	requests := float64(r.counts.Requests)

	pf, qc, ev := r.counts.Prefilter, r.counts.QueryCache, r.counts.Eval
	rc, cs, st, fs := r.counts.ResultCache, r.counts.Cache, r.counts.Store, r.counts.FS
	plans, explainBytes := r.counts.Plans, r.counts.ExplainBytes

	// Requests that contained a compaction stalled for it.
	var stalls []float64
	for _, sp := range spans {
		if sp.Name == spanCompaction && sp.Parent >= 0 {
			stalls = append(stalls, float64(spans[sp.Parent].dur())/1e6)
		}
	}
	// What a handler that ran an engine scan spent outside it: the
	// request's self time, which is reading the body, rendering and
	// encoding. Requests answered from the cache have no scan below them.
	var render []float64
	self := selfTimes(spans)
	for _, sp := range spans {
		if (sp.Name == spanKBScan || sp.Name == spanSearch) && sp.Parent >= 0 {
			render = append(render, float64(self[sp.Parent])/1e6)
		}
	}
	matches := durations(spans, spanPlanMatch, 1e3)
	compactions := durations(spans, spanCompaction, 1e6)
	recoveries := durations(spans, spanRecovery, 1e6)

	m := map[string]sample{}
	put := func(name, unit string, v float64) { m[name] = sample{Value: v, Unit: unit, Q1: v, Q3: v, N: 1} }
	dist := func(name, unit string, q float64, xs []float64) {
		m[name] = sample{Value: quantile(xs, q), Unit: unit, Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75), N: len(xs)}
	}

	put("qep.parse_us_per_plan", "us", s.Parse*1e6/float64(s.Plans))
	put("qep.parse_mb_per_s", "MB/s", ratio(float64(s.ExplainBytes)/1e6, s.Parse))
	put("transform.us_per_plan", "us", s.Transform*1e6/float64(s.Plans))
	put("transform.triples_per_plan", "count", float64(s.Triples)/float64(s.Plans))
	put("rdf.heap_bytes_per_triple", "B", ratio(s.HeapBytes, float64(s.Triples)))
	put("rdf.ntriples_write_us_per_plan", "us", s.NTriples*1e6/float64(s.Plans))
	put("rdf.csr_builds", "count", float64(ev.Path.CSRBuilds))
	put("pattern.compile_us", "us", s.PatternCompileUS)
	put("sparql.parse_us", "us", s.SparqlParseUS)
	put("sparql.exec_bgp_us", "us", s.ExecBGPUS)
	put("sparql.exec_filter_us", "us", s.ExecFilterUS)
	put("sparql.exec_path_us", "us", s.ExecPathUS)
	put("sparql.constant_bailout_ratio", "ratio", ratio(float64(ev.ConstantBailouts), float64(ev.Specialized)))
	put("sparql.path_memo_hit_ratio", "ratio", ratio(float64(ev.Path.MemoHits), float64(ev.Path.MemoHits+ev.Path.MemoMisses)))
	put("sparql.bfs_steps_per_op", "count", ratio(float64(ev.Path.BFSSteps), requests))
	put("sparql.fallback_count", "count", float64(ev.Fallback))
	put("kb.apply_us_per_occurrence", "us", ratio(s.ApplySeconds*1e6, float64(s.Occurrences)))
	put("kb.recs_per_scan", "count", float64(s.Recommendations))
	put("core.load_us_per_plan", "us", s.Load*1e6/float64(s.Plans))
	put("core.prefilter_probe_ns", "ns", ratio(float64(r.rec.probeNanos.Load()), float64(r.rec.probes.Load())))
	put("core.prefilter_skip_ratio", "ratio", ratio(float64(pf.Skipped), float64(pf.Probed)))
	put("core.shard_skips_per_op", "count", ratio(float64(pf.ShardSkips), requests))
	dist("core.plan_match_us_p50", "us", 0.5, matches)
	put("core.plan_match_busy_s", "s", sum(matches)/1e6)
	dist("core.kb_scan_ms", "ms", 0.5, durations(spans, spanKBScan, 1e6))
	dist("core.search_ms", "ms", 0.5, durations(spans, spanSearch, 1e6))
	put("core.pool_tasks_per_worker", "count", ratio(float64(r.rec.poolTasks.Load()), float64(r.rec.poolWorkers.Load())))
	put("core.query_cache_hit_ratio", "ratio", ratio(float64(qc.Hits), float64(qc.Hits+qc.Misses)))
	put("core.result_cache_hit_ratio", "ratio", rc.HitRatio)
	put("cache.hit_ratio", "ratio", cs.HitRatio)
	put("cache.collapsed_ratio", "ratio", ratio(float64(cs.Collapsed), float64(cs.Hits+cs.Misses+cs.Collapsed)))
	put("cache.evictions", "count", float64(cs.Evictions))
	put("cache.rejected", "count", float64(cs.Rejected))
	put("cache.resident_mb", "MB", float64(cs.Bytes)/1e6)
	put("cache.rep_lookups", "count", float64(r.repLookups))
	for _, name := range []string{"read_p50_ms", "read_p95_ms", "upload_p50_ms", "upload_p95_ms"} {
		m["server."+name] = latency[name]
	}
	m["bench.kernel_slowdown"] = latency["kernel_slowdown"]
	dist("server.hit_us_p50", "us", 0.5, scale(all.Hits, 1e3))
	dist("server.miss_ms_p50", "ms", 0.5, all.Misses)
	dist("server.render_encode_ms", "ms", 0.5, render)
	put("server.response_mb_per_op", "MB", ratio(float64(r.counts.ResponseBytes)/1e6, requests))
	put("server.not_modified_ratio", "ratio", ratio(float64(all.NotModified), float64(all.RDFReads+all.NotModified)))
	dist("server.post_write_read_ms_p50", "ms", 0.5, all.PostWrite)
	dist("server.upload_during_scan_ms_p95", "ms", 0.95, r.duringScanMS)
	dist("store.wal_write_us", "us", 0.5, durations(spans, spanWALWrite, 1e3))
	dist("store.wal_fsync_us", "us", 0.5, durations(spans, spanWALFsync, 1e3))
	put("store.fsyncs_per_plan", "count", ratio(float64(st.Fsyncs), float64(plans)))
	put("store.wal_bytes_per_user_byte", "ratio", ratio(float64(st.AppendedBytes), float64(explainBytes)))
	put("store.compactions", "count", float64(st.Compactions))
	dist("store.compaction_ms", "ms", 0.5, compactions)
	put("store.compaction_mb_rewritten", "MB", float64(fs.SnapshotBytes)/1e6)
	dist("store.compaction_stall_ms", "ms", 0.5, stalls)
	put("store.recovered_records", "count", float64(r.rec.recoveredRecords.Load()))
	put("store.recovery_ms_per_record", "ms", ratio(sum(recoveries), float64(r.rec.recoveredRecords.Load())))
	put("storefs.writes", "count", float64(fs.Writes))
	put("storefs.write_mb", "MB", float64(fs.WriteBytes)/1e6)
	put("storefs.syncs", "count", float64(fs.Syncs))
	put("storefs.sync_ms_total", "ms", float64(fs.SyncNanos)/1e6)
	put("storefs.renames", "count", float64(fs.Renames))
	put("bench.gen_s", "s", r.in.GenSeconds)
	put("bench.trace_overhead_ratio", "ratio", ratio(median(untraced), median(traced)))
	put("reconcile.kb_run.residual_ratio", "ratio", ratio(s.KBRunWall-s.KBRunStaged, s.KBRunWall))
	put("reconcile.ingest.residual_ratio", "ratio", ratio(s.IngestWall-s.IngestStaged, s.IngestWall))
	return m
}

// encodeIndented renders v the way the server's JSON responses are
// rendered: two-space indent, trailing newline.
func encodeIndented(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

func scale(xs []float64, by float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * by
	}
	return out
}
