// Package core implements the OptImatch engine (the paper's Figure 4
// architecture): it loads query execution plans, transforms each into an
// RDF graph exactly once (Algorithm 1), matches user-defined problem
// patterns compiled to SPARQL against every plan (Algorithm 3:
// FindingMatches), and scans the knowledge base to produce ranked,
// context-adapted recommendations per plan (Algorithm 5:
// FindingRecommendationsKB). Plan matching is parallelized across a worker
// pool; each plan's graph is immutable after load and safe for concurrent
// readers.
package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"optimatch/internal/cache"
	"optimatch/internal/kb"
	"optimatch/internal/pattern"
	"optimatch/internal/qep"
	"optimatch/internal/rdf"
	"optimatch/internal/sparql"
	"optimatch/internal/transform"
)

// NoRecommendation is the message reported for a plan no knowledge-base
// entry matches (paper Algorithm 5, line 6).
const NoRecommendation = "There is currently no recommendation in knowledge base"

// ErrDuplicatePlan marks a load rejected because the plan ID is taken.
var ErrDuplicatePlan = errors.New("already loaded")

// Option configures an Engine.
type Option func(*Engine)

// WithWorkers sets the matcher's parallelism (default: GOMAXPROCS).
func WithWorkers(n int) Option {
	return func(e *Engine) {
		if n > 0 {
			e.workers = n
		}
	}
}

// WithExecOptions overrides SPARQL evaluation options (the join-order
// ablation in internal/experiments turns reordering off with it).
func WithExecOptions(opts sparql.ExecOptions) Option {
	return func(e *Engine) { e.execOpts = opts }
}

// WithPrefilter toggles the vocabulary prefilter (default on): the per-shard
// and per-plan required-constant probes that discard (plan, query) pairs
// before evaluation. When disabled, every pair is evaluated. Results are
// identical either way; the disabled engine is the reference
// TestPrefilterSoundness* compares reports against.
func WithPrefilter(enabled bool) Option {
	return func(e *Engine) { e.prefilter = enabled }
}

// WithShards sets how many independent shards the plan repository is split
// into (fnv64a of the plan ID routes each plan to one). Each shard carries
// its own lock, union prefilter vocabulary and generation counter, so
// ingest on distinct shards never contends and scans can discard whole
// shards with one vocabulary probe. Results are byte-identical for every
// shard count: scans merge shard snapshots back into global load order.
// n <= 0 asks for the automatic count (GOMAXPROCS capped at 16); the
// default without this option is 1 (the seed's single-table layout).
func WithShards(n int) Option {
	return func(e *Engine) {
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
			if n > maxAutoShards {
				n = maxAutoShards
			}
		}
		e.numShards = n
	}
}

// maxAutoShards caps WithShards' automatic shard count: past this, per-shard
// bookkeeping outweighs the contention a shard split saves.
const maxAutoShards = 16

// WithResultCache and ResultCacheStats are frozen benchmark surface: delete
// at the next re-baseline, with EvalSnapshot.Fallback. The engine caches no
// results (internal/server's rendered-response cache is the only tier); it
// only remembers the handle bench/ passes and reports that cache's counters.
func WithResultCache(c *cache.Cache) Option {
	return func(e *Engine) { e.benchCache = c }
}

// ResultCacheStats reports the counters of the cache handed to
// WithResultCache (zeros without one); see there.
func (e *Engine) ResultCacheStats() cache.Stats { return e.benchCache.Stats() }

// Engine holds a workload of transformed plans and matches patterns against
// it.
type Engine struct {
	shards    []*planShard
	numShards int           // set by WithShards before the shards are built
	nextSeq   atomic.Uint64 // global load sequence: the cross-shard merge key
	workers   int
	execOpts  sparql.ExecOptions

	// generation identifies the engine's exact plan set for callers that
	// cache what they derive from it: it is bumped — while the mutated
	// shard's lock (or, for batches, every shard lock) is still held — by
	// every load and removal. A batch load bumps it once, not per plan.
	generation atomic.Uint64
	benchCache *cache.Cache // see WithResultCache

	prefilter  bool
	pfProbed   atomic.Int64
	pfSkipped  atomic.Int64
	shardSkips atomic.Int64 // (shard, query) pairs discarded by the union-vocabulary probe

	queries     queryCache
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	evalStats   sparql.EvalStats
	instr       Instrumentation
}

// New returns an empty engine.
func New(opts ...Option) *Engine {
	e := &Engine{
		numShards: 1,
		workers:   runtime.GOMAXPROCS(0),
		prefilter: true,
	}
	for _, o := range opts {
		o(e)
	}
	e.shards = make([]*planShard, e.numShards)
	for i := range e.shards {
		e.shards[i] = newShard()
	}
	return e
}

// evalOpts returns the SPARQL evaluation options in effect for one scan. The
// engine's own evaluation counters are attached unless the caller supplied
// their own through WithExecOptions, and the scan's context is threaded
// through so every evaluation observes cancellation cooperatively.
func (e *Engine) evalOpts(ctx context.Context) sparql.ExecOptions {
	opts := e.execOpts
	opts.Ctx = ctx
	if opts.Stats == nil {
		opts.Stats = &e.evalStats
	}
	return opts
}

// LoadPlan transforms and registers a parsed plan.
func (e *Engine) LoadPlan(p *qep.Plan) error {
	if err := p.Validate(); err != nil {
		return err
	}
	return e.loadOne(transform.Transform(p))
}

// LoadResult registers an already-transformed plan, sharing its RDF graph
// instead of re-transforming. Used when several engines slice one workload
// (the scalability experiments build ten cumulative buckets over the same
// thousand plans).
func (e *Engine) LoadResult(r *transform.Result) error {
	return e.loadOne(r)
}

// loadOne registers one transformed plan in its home shard, bumping the
// shard and engine generations inside the shard's critical section.
func (e *Engine) loadOne(r *transform.Result) error {
	sh := e.shardFor(r.Plan.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.byID[r.Plan.ID]; dup {
		return fmt.Errorf("core: plan %q %w", r.Plan.ID, ErrDuplicatePlan)
	}
	e.insertLocked(sh, r)
	e.generation.Add(1)
	return nil
}

// LoadPlans registers a batch of plans, stopping at the first error. Each
// plan bumps the data generation individually; use LoadBatch for the
// single-bump ingest path.
func (e *Engine) LoadPlans(plans []*qep.Plan) error {
	for _, p := range plans {
		if err := e.LoadPlan(p); err != nil {
			return err
		}
	}
	return nil
}

// LoadBatch validates, transforms and registers a batch of plans as one
// repository mutation: transformation runs on the worker pool outside any
// lock, the inserts happen under every shard lock at once, and the data
// generation is bumped exactly once (if anything loaded), so a result
// cache keyed on it invalidates once per batch instead of once per plan.
// The i-th returned error is the i-th plan's outcome — validation failures
// and duplicate IDs (within the engine or earlier in the same batch) are
// per-plan, never batch-fatal.
func (e *Engine) LoadBatch(plans []*qep.Plan) []error {
	errs := make([]error, len(plans))
	results := make([]*transform.Result, len(plans))
	var wg sync.WaitGroup
	sem := make(chan struct{}, max(e.workers, 1))
	for i, p := range plans {
		if err := p.Validate(); err != nil {
			errs[i] = err
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, p *qep.Plan) {
			defer wg.Done()
			results[i] = transform.Transform(p)
			<-sem
		}(i, p)
	}
	wg.Wait()

	e.lockAll()
	loaded := 0
	for i, r := range results {
		if r == nil {
			continue
		}
		sh := e.shardFor(r.Plan.ID)
		if _, dup := sh.byID[r.Plan.ID]; dup {
			errs[i] = fmt.Errorf("core: plan %q %w", r.Plan.ID, ErrDuplicatePlan)
			continue
		}
		e.insertLocked(sh, r)
		loaded++
	}
	if loaded > 0 {
		e.generation.Add(1)
	}
	e.unlockAll()
	return errs
}

// LoadTextBatch parses and registers a batch of explain texts through
// LoadBatch. plans[i] is the parsed plan when text i parsed (set even when
// loading then failed as a duplicate); errs[i] is the per-text outcome.
func (e *Engine) LoadTextBatch(texts []string) (plans []*qep.Plan, errs []error) {
	plans = make([]*qep.Plan, len(texts))
	errs = make([]error, len(texts))
	var parsed []*qep.Plan
	var idx []int
	for i, text := range texts {
		p, err := qep.Parse(text)
		if err != nil {
			errs[i] = err
			continue
		}
		plans[i] = p
		parsed = append(parsed, p)
		idx = append(idx, i)
	}
	for j, err := range e.LoadBatch(parsed) {
		if err != nil {
			errs[idx[j]] = err
		}
	}
	return plans, errs
}

// LoadText parses explain text and registers the plan.
func (e *Engine) LoadText(text string) (*qep.Plan, error) {
	p, err := qep.Parse(text)
	if err != nil {
		return nil, err
	}
	if err := e.LoadPlan(p); err != nil {
		return nil, err
	}
	return p, nil
}

// LoadDir parses every explain file (*.txt, *.exfmt, *.exp) in dir and
// registers the plans. It returns the number of plans loaded.
func (e *Engine) LoadDir(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("core: %w", err)
	}
	n := 0
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		switch filepath.Ext(ent.Name()) {
		case ".txt", ".exfmt", ".exp":
		default:
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			return n, fmt.Errorf("core: %s: %w", ent.Name(), err)
		}
		if _, err := e.LoadText(string(data)); err != nil {
			return n, fmt.Errorf("core: %s: %w", ent.Name(), err)
		}
		n++
	}
	return n, nil
}

// RemovePlan unloads the plan with the given ID, releasing its transformed
// graph. It reports whether the plan was loaded. Matches in flight keep
// their own snapshot of the plan list, so removal never disturbs a running
// scan.
func (e *Engine) RemovePlan(id string) bool {
	sh := e.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.byID[id]; !ok {
		return false
	}
	sh.removeLocked(id)
	e.generation.Add(1)
	return true
}

// Generation returns the engine's data generation: a monotonic counter
// bumped by every plan load and removal. The server's response-cache keys
// embed it, so a mutation orphans every cached response instead of racing
// an invalidation. A value that is stable across a scan proves the scan saw
// exactly that plan set.
func (e *Engine) Generation() uint64 { return e.generation.Load() }

// NumPlans reports how many plans are loaded.
func (e *Engine) NumPlans() int {
	n := 0
	for _, sh := range e.shards {
		sh.mu.RLock()
		n += len(sh.plans)
		sh.mu.RUnlock()
	}
	return n
}

// Plans returns the loaded plans in load order (merged across shards by
// global load sequence).
func (e *Engine) Plans() []*qep.Plan {
	ss := e.snapshot(nil)
	out := make([]*qep.Plan, len(ss.plans))
	for i, r := range ss.plans {
		out[i] = r.Plan
	}
	return out
}

// Plan returns the loaded plan with the given ID, or nil.
func (e *Engine) Plan(id string) *qep.Plan {
	sh := e.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if r, ok := sh.byID[id]; ok {
		return r.Plan
	}
	return nil
}

// Result returns the transformed plan with the given ID, or nil. The result
// is the engine's own — the exact graph matches run against — so callers
// (the /api/plans/{id}/rdf endpoint) serve what the engine sees instead of
// paying for a fresh transformation whose blank-node labels might differ.
// Results are immutable after load and safe for concurrent readers.
func (e *Engine) Result(id string) *transform.Result {
	sh := e.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.byID[id]
}

// Binding is one de-transformed result-handler binding of a match.
type Binding struct {
	Alias    string
	Term     rdf.Term
	Operator *qep.Operator   // non-nil when the resource is a LOLEPOP
	Object   *qep.BaseObject // non-nil when the resource is a base object
	Display  string          // "NLJOIN(2)", "CUST_DIM", or the raw term
}

// Match is one occurrence of a pattern in one plan, with all result
// handlers de-transformed back to plan entities (Algorithm 3, line 6).
type Match struct {
	Plan     *qep.Plan
	Bindings []Binding
}

// Binding returns the named binding (case-insensitive), or nil.
func (m *Match) Binding(alias string) *Binding {
	for i := range m.Bindings {
		if strings.EqualFold(m.Bindings[i].Alias, alias) {
			return &m.Bindings[i]
		}
	}
	return nil
}

// String renders the match compactly: "Q2: TOP=NLJOIN(2) ANY2=FETCH(3) ...".
func (m *Match) String() string {
	var b strings.Builder
	b.WriteString(m.Plan.ID)
	b.WriteString(":")
	for _, bind := range m.Bindings {
		b.WriteString(" ")
		b.WriteString(bind.Alias)
		b.WriteString("=")
		b.WriteString(bind.Display)
	}
	return b.String()
}

// FindPattern compiles the problem pattern and matches it against every
// loaded plan (Algorithm 3). Matches are returned in plan load order.
func (e *Engine) FindPattern(p *pattern.Pattern) ([]Match, error) {
	return e.FindPatternContext(context.Background(), p)
}

// FindPatternContext is FindPattern bounded by ctx: the scan stops
// enqueueing plans and every in-flight evaluation returns as soon as the
// context is cancelled or its deadline passes.
func (e *Engine) FindPatternContext(ctx context.Context, p *pattern.Pattern) ([]Match, error) {
	c, err := pattern.Compile(p)
	if err != nil {
		return nil, err
	}
	return e.FindCompiledContext(ctx, c)
}

// FindCompiled matches an already-compiled pattern.
func (e *Engine) FindCompiled(c *pattern.Compiled) ([]Match, error) {
	return e.FindCompiledContext(context.Background(), c)
}

// FindCompiledContext is FindCompiled bounded by ctx.
func (e *Engine) FindCompiledContext(ctx context.Context, c *pattern.Compiled) ([]Match, error) {
	return e.FindSPARQLContext(ctx, c.Query)
}

// FindSPARQL matches a raw SPARQL query against every loaded plan. Every
// projected column becomes a binding; resources are de-transformed.
func (e *Engine) FindSPARQL(query string) ([]Match, error) {
	return e.FindSPARQLContext(context.Background(), query)
}

// FindSPARQLContext is FindSPARQL bounded by ctx. Cancellation is
// cooperative at every layer: the worker-pool fan-out stops dispatching
// plans, each running SPARQL evaluation returns from its binding loops and
// closure walks within a bounded number of iterations, and the pool drains
// without leaking goroutines. The returned error then wraps ctx.Err().
func (e *Engine) FindSPARQLContext(ctx context.Context, query string) ([]Match, error) {
	q, err := e.getQuery(query)
	if err != nil {
		return nil, err
	}
	analysis := q.Analysis()
	ss := e.snapshot([]*sparql.Analysis{analysis})
	if e.instr.Search != nil {
		defer func(start time.Time) { e.instr.Search(time.Since(start), len(ss.plans)) }(time.Now())
	}

	type chunk struct {
		matches []Match
		err     error
	}
	results := make([]chunk, len(ss.plans))
	ferr := e.forEachPlan(ctx, ss.plans, func(i int, r *transform.Result) {
		if !e.mayMatchAt(ss, i, 0, analysis) {
			return
		}
		ms, err := e.matchPlan(ctx, q, r)
		results[i] = chunk{matches: ms, err: err}
	})

	var out []Match
	for _, c := range results {
		if c.err != nil {
			return nil, c.err
		}
		out = append(out, c.matches...)
	}
	if ferr != nil {
		return nil, ferr
	}
	return out, nil
}

func (e *Engine) matchPlan(ctx context.Context, q *sparql.Query, r *transform.Result) ([]Match, error) {
	res, err := e.execTimed(ctx, q, r)
	if err != nil {
		return nil, fmt.Errorf("core: plan %s: %w", r.Plan.ID, err)
	}
	var out []Match
	for i := 0; i < res.Len(); i++ {
		m := Match{Plan: r.Plan}
		m.Bindings = make([]Binding, 0, len(res.Vars))
		for c, v := range res.Vars {
			t := res.At(i, c)
			m.Bindings = append(m.Bindings, Binding{
				Alias:    v,
				Term:     t,
				Operator: r.Operator(t),
				Object:   r.Object(t),
				Display:  r.Describe(t),
			})
		}
		out = append(out, m)
	}
	return out, nil
}

// execTimed evaluates one (query, plan) pair, reporting the evaluation
// latency to the PlanMatch hook. With no hook installed the only overhead
// is one nil check.
func (e *Engine) execTimed(ctx context.Context, q *sparql.Query, r *transform.Result) (*sparql.Results, error) {
	if e.instr.PlanMatch == nil {
		return q.ExecOpts(r.Graph, e.evalOpts(ctx))
	}
	start := time.Now()
	res, err := q.ExecOpts(r.Graph, e.evalOpts(ctx))
	e.instr.PlanMatch(time.Since(start))
	return res, err
}

// PlanReport is the knowledge-base outcome for one plan: ranked
// recommendations, or none (Algorithm 5's "no recommendation" case).
type PlanReport struct {
	Plan            *qep.Plan
	Recommendations []kb.Ranked
}

// HasRecommendations reports whether any KB entry matched.
func (pr *PlanReport) HasRecommendations() bool { return len(pr.Recommendations) > 0 }

// Message returns the top-line outcome for the plan.
func (pr *PlanReport) Message() string {
	if !pr.HasRecommendations() {
		return NoRecommendation
	}
	return fmt.Sprintf("%d recommendation(s), top confidence %.2f",
		len(pr.Recommendations), pr.Recommendations[0].Confidence)
}

// RunKB scans every loaded plan against every knowledge-base entry
// (Algorithm 5): each entry's stored SPARQL query is matched, occurrences
// are de-transformed, recommendation templates are adapted to the plan's
// context through the handler tags, and the results are ranked by
// statistical confidence. Reports come back in plan load order.
func (e *Engine) RunKB(k *kb.KnowledgeBase) ([]PlanReport, error) {
	return e.RunKBContext(context.Background(), k)
}

// RunKBContext is RunKB bounded by ctx: cancellation stops the worker-pool
// fan-out from dispatching further plans, interrupts the SPARQL evaluation
// of the plan each worker is on, and drains the pool without leaking
// goroutines before returning an error that wraps ctx.Err().
func (e *Engine) RunKBContext(ctx context.Context, k *kb.KnowledgeBase) ([]PlanReport, error) {
	// Parse every entry query once (cached across RunKB calls).
	entries := make([]compiledEntry, 0, k.Len())
	for _, entry := range k.Entries() {
		q, err := e.getQuery(entry.SPARQL)
		if err != nil {
			return nil, fmt.Errorf("core: kb entry %q: %w", entry.Name, err)
		}
		entries = append(entries, compiledEntry{entry: entry, query: q, analysis: q.Analysis()})
	}

	analyses := make([]*sparql.Analysis, len(entries))
	for i := range entries {
		analyses[i] = entries[i].analysis
	}
	ss := e.snapshot(analyses)
	if e.instr.KBScan != nil {
		defer func(start time.Time) { e.instr.KBScan(time.Since(start), len(ss.plans), len(entries)) }(time.Now())
	}

	reports := make([]PlanReport, len(ss.plans))
	errs := make([]error, len(ss.plans))
	ferr := e.forEachPlan(ctx, ss.plans, func(i int, r *transform.Result) {
		reports[i], errs[i] = e.planReport(ctx, ss, i, entries, r)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if ferr != nil {
		return nil, ferr
	}
	return reports, nil
}

// compiledEntry pairs a knowledge-base entry with its parsed query and the
// query's static analysis (for the prefilter probe).
type compiledEntry struct {
	entry    *kb.Entry
	query    *sparql.Query
	analysis *sparql.Analysis
}

// planReport matches every knowledge-base entry against one plan and
// assembles the ranked recommendation list. i indexes the plan within the
// scan set, so the shard-level prefilter verdicts apply per entry.
func (e *Engine) planReport(ctx context.Context, ss *scanSet, i int, entries []compiledEntry, r *transform.Result) (PlanReport, error) {
	report := PlanReport{Plan: r.Plan}
	for ei, ce := range entries {
		if !e.mayMatchAt(ss, i, ei, ce.analysis) {
			continue
		}
		res, err := e.execTimed(ctx, ce.query, r)
		if err != nil {
			return report, fmt.Errorf("core: plan %s, entry %s: %w", r.Plan.ID, ce.entry.Name, err)
		}
		if res.Len() == 0 {
			continue
		}
		occs := make([]kb.Occurrence, 0, res.Len())
		for i := 0; i < res.Len(); i++ {
			bind := make(map[string]rdf.Term, len(res.Vars))
			for c, v := range res.Vars {
				bind[v] = res.At(i, c)
			}
			occs = append(occs, kb.Occurrence{Plan: r.Plan, Result: r, Bindings: bind})
		}
		ranked, err := ce.entry.Apply(occs)
		if err != nil {
			return report, fmt.Errorf("core: plan %s, entry %s: %w", r.Plan.ID, ce.entry.Name, err)
		}
		report.Recommendations = append(report.Recommendations, ranked...)
	}
	kb.SortRanked(report.Recommendations)
	return report, nil
}

// WorkloadSummary aggregates a KB run for reporting: how many plans matched
// each entry, ordered by entry name.
type WorkloadSummary struct {
	TotalPlans   int
	PlansMatched int
	ByEntry      []EntryCount
}

// EntryCount is the per-entry tally of a workload scan.
type EntryCount struct {
	Name  string
	Plans int // plans with >= 1 occurrence
	Recs  int // total recommendation lines emitted
}

// Summarize aggregates KB reports.
func Summarize(reports []PlanReport) WorkloadSummary {
	s := WorkloadSummary{TotalPlans: len(reports)}
	perEntry := make(map[string]*EntryCount)
	for i := range reports {
		if !reports[i].HasRecommendations() {
			continue
		}
		s.PlansMatched++
		seen := make(map[string]bool)
		for _, rec := range reports[i].Recommendations {
			ec := perEntry[rec.Entry.Name]
			if ec == nil {
				ec = &EntryCount{Name: rec.Entry.Name}
				perEntry[rec.Entry.Name] = ec
			}
			ec.Recs++
			if !seen[rec.Entry.Name] {
				seen[rec.Entry.Name] = true
				ec.Plans++
			}
		}
	}
	for _, ec := range perEntry {
		s.ByEntry = append(s.ByEntry, *ec)
	}
	sort.Slice(s.ByEntry, func(i, j int) bool { return s.ByEntry[i].Name < s.ByEntry[j].Name })
	return s
}
