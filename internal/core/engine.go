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
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"optimatch/internal/kb"
	"optimatch/internal/pattern"
	"optimatch/internal/qep"
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

// Engine holds a workload of transformed plans and matches patterns against
// it. The plan repository is one table under one lock.
type Engine struct {
	// mu guards plans and byID. plans is the repository in load order:
	// between removals it only grows by append, and a removal always builds
	// a new backing array (RemovePlan). Nothing a scan can see is therefore
	// ever overwritten, so a scan's snapshot is the slice header read under
	// mu.RLock — no copy.
	mu    sync.RWMutex
	plans []*transform.Result
	byID  map[string]*transform.Result

	workers  int
	execOpts sparql.ExecOptions

	// generation identifies the engine's exact plan set for callers that
	// cache what they derive from it: every load and removal bumps it while
	// still holding mu, a batch load once, not per plan. A caller that reads
	// equal values before and after a scan knows no mutation's critical
	// section overlapped the scan's snapshot (server.serveRead is that
	// caller).
	generation atomic.Uint64

	evalStats sparql.EvalStats
	instr     Instrumentation
	frozen    frozenState // see frozen.go
}

// New returns an empty engine.
func New(opts ...Option) *Engine {
	e := &Engine{
		byID:    make(map[string]*transform.Result),
		workers: runtime.GOMAXPROCS(0),
	}
	for _, o := range opts {
		o(e)
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
	return e.load(1, func(int) (*transform.Result, error) { return transformValid(p) })[0]
}

// LoadResult registers an already-transformed plan, sharing its RDF graph
// instead of re-transforming. Used when several engines slice one workload
// (the scalability experiments build ten cumulative buckets over the same
// thousand plans).
func (e *Engine) LoadResult(r *transform.Result) error {
	return e.load(1, func(int) (*transform.Result, error) { return r, nil })[0]
}

// load stages n plans and publishes them back to back: every Load… method is
// this, so the table has one way in whether or not a caller steps between the
// two halves.
func (e *Engine) load(n int, prepare func(i int) (*transform.Result, error)) []error {
	b := e.stage(n, prepare)
	_ = e.Publish(b) // a refusal at publish is in b.Errs as well
	return b.Errs
}

// insertLocked appends a transformed plan to the table unless its ID is
// taken. Caller holds e.mu. Transform freezes its graph outside the lock; the
// Freeze here is a no-op for those and keeps a hand-built Result from
// entering the repository mutable.
func (e *Engine) insertLocked(r *transform.Result) error {
	if _, dup := e.byID[r.Plan.ID]; dup {
		return duplicatePlan(r.Plan.ID)
	}
	r.Graph.Freeze()
	e.plans = append(e.plans, r)
	e.byID[r.Plan.ID] = r
	return nil
}

func duplicatePlan(id string) error {
	return fmt.Errorf("core: plan %q %w", id, ErrDuplicatePlan)
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
// lock, the inserts happen in one critical section, and the data generation
// is bumped exactly once inside it (if anything loaded), so a result cache
// keyed on it invalidates once per batch instead of once per plan.
// The i-th returned error is the i-th plan's outcome — validation failures
// and duplicate IDs (within the engine or earlier in the same batch) are
// per-plan, never batch-fatal.
func (e *Engine) LoadBatch(plans []*qep.Plan) []error {
	return e.load(len(plans), func(i int) (*transform.Result, error) { return transformValid(plans[i]) })
}

// LoadTextBatch parses and registers a batch of explain texts the way
// LoadBatch registers plans: StageTexts, then Publish. plans[i] is the parsed
// plan when text i parsed (set even when loading then failed as a duplicate);
// errs[i] is the per-text outcome.
func (e *Engine) LoadTextBatch(texts []string) (plans []*qep.Plan, errs []error) {
	b := e.StageTexts(texts)
	_ = e.Publish(b) // a refusal at publish is in b.Errs as well
	return b.Plans, b.Errs
}

// Staged is a batch of plans prepared for the table — parsed, validated,
// transformed, frozen, checked for duplicate IDs — that no reader can see yet.
// Publish makes it visible. Everything that can refuse a plan has run by the
// time the batch is staged, so a caller that must do something between "this
// will load" and "this is loaded" (the store journals it) does it in between.
type Staged struct {
	Plans []*qep.Plan // the parsed plan per text; nil where the text did not parse
	Errs  []error     // the per-plan outcome: nil, or why the plan was refused

	results []*transform.Result // what Publish inserts; nil where Errs is not
}

// StageTexts prepares a batch of explain texts on the worker pool — a text is
// parsed in the pool task that validates and transforms its plan, not ahead of
// the pool on the calling goroutine — touching nothing a reader can see: the
// table and the generation stay as they are until Publish.
func (e *Engine) StageTexts(texts []string) *Staged {
	plans := make([]*qep.Plan, len(texts))
	b := e.stage(len(texts), func(i int) (*transform.Result, error) {
		p, err := qep.Parse(texts[i])
		if err != nil {
			return nil, err
		}
		plans[i] = p
		return transformValid(p)
	})
	b.Plans = plans
	return b
}

func transformValid(p *qep.Plan) (*transform.Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return transform.Transform(p), nil
}

// stage prepares n plans on the worker pool, each task writing only its own
// slot, and marks the duplicates: of two plans with one ID the earlier in
// input order wins, and a plan whose ID the table already holds is refused.
func (e *Engine) stage(n int, prepare func(i int) (*transform.Result, error)) *Staged {
	b := &Staged{Errs: make([]error, n), results: make([]*transform.Result, n)}
	e.Parallel(n, func(i int) { b.results[i], b.Errs[i] = prepare(i) })

	staged := make(map[string]struct{}, n)
	e.mu.RLock()
	defer e.mu.RUnlock()
	for i, r := range b.results {
		if r == nil {
			continue
		}
		_, dup := e.byID[r.Plan.ID]
		if !dup {
			_, dup = staged[r.Plan.ID]
		}
		if dup {
			b.results[i], b.Errs[i] = nil, duplicatePlan(r.Plan.ID)
			continue
		}
		staged[r.Plan.ID] = struct{}{}
	}
	return b
}

// Publish inserts what staging accepted, in input order, in one critical
// section with one generation bump (none when nothing went in). It cannot fail
// for a caller that serialises staging and publishing against every other
// mutation, as the store does under its mutex; without that a plan staged
// twice, or loaded in between, is refused here by the same duplicate rule:
// b.Errs gets the refusal and Publish returns it. A batch publishes once.
func (e *Engine) Publish(b *Staged) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	var refused []error
	loaded := false
	for i, r := range b.results {
		if r == nil {
			continue
		}
		if err := e.insertLocked(r); err != nil {
			b.Errs[i] = err
			refused = append(refused, err)
			continue
		}
		loaded = true
	}
	b.results = nil
	if loaded {
		e.generation.Add(1)
	}
	return errors.Join(refused...)
}

// Parallel runs task(0) … task(n-1) on the engine's worker pool and returns
// when all of them have: at most WithWorkers tasks run at a time, handed out
// in index order, and with one worker (or one task) they run on the calling
// goroutine, none spawned. It is the engine's one pool: batch loads prepare
// their plans on it, store recovery decodes its log records on it, and scans
// fan out over it through forEachPlan, which adds the context check — so one
// setting bounds all three. A task that panics stops its worker, and the
// others take no further task; once all have stopped, Parallel panics on the
// calling goroutine with the first panic and its worker's stack, where a
// recover of the caller's, such as net/http's per-request one, reaches it.
func (e *Engine) Parallel(n int, task func(i int)) {
	workers := min(e.workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			task(i)
		}
		return
	}
	var next atomic.Int64
	var panicked atomic.Value // the first task panic, as text with its stack
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, fmt.Sprintf("%v\n\n%s", r, debug.Stack()))
					next.Store(int64(n))
				}
			}()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				task(i)
			}
		}()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p)
	}
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

// ReadExplainDir reads every explain file (*.txt, *.exfmt, *.exp) in dir, in
// os.ReadDir order, and returns the file names and their texts. A file that
// cannot be read ends the listing: the files before it come back with the
// error, which names the file.
func ReadExplainDir(dir string) (names, texts []string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	for _, ent := range entries {
		if ext := filepath.Ext(ent.Name()); ent.IsDir() || ext != ".txt" && ext != ".exfmt" && ext != ".exp" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			return names, texts, fmt.Errorf("core: %s: %w", ent.Name(), err)
		}
		names = append(names, ent.Name())
		texts = append(texts, string(data))
	}
	return names, texts, nil
}

// LoadDir registers the explain files of dir (ReadExplainDir) as one
// LoadTextBatch: parsed and transformed on the pool, one generation bump. It
// returns the number of plans registered and the first failing file's error in
// that order, naming the file; files after a failing one are still
// registered, files after one that cannot be read are not.
func (e *Engine) LoadDir(dir string) (int, error) {
	names, texts, readErr := ReadExplainDir(dir)
	_, errs := e.LoadTextBatch(texts)
	n := 0
	var first error
	for i, err := range errs {
		if err == nil {
			n++
		} else if first == nil {
			first = fmt.Errorf("core: %s: %w", names[i], err)
		}
	}
	if first == nil {
		first = readErr
	}
	return n, first
}

// RemovePlan unloads the plan with the given ID, releasing its transformed
// graph. It reports whether the plan was loaded. Matches in flight keep
// their own snapshot of the plan list, so removal never disturbs a running
// scan.
func (e *Engine) RemovePlan(id string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	r, ok := e.byID[id]
	if !ok {
		return false
	}
	delete(e.byID, id)
	for i := range e.plans {
		if e.plans[i] == r {
			// The three-index slice caps the head at its length, so the
			// append copies into a new array (and after removing the last
			// plan, the next load does): snapshots keep what they listed.
			e.plans = append(e.plans[:i:i], e.plans[i+1:]...)
			break
		}
	}
	e.generation.Add(1)
	return true
}

// Generation returns the engine's data generation: a monotonic counter
// bumped by every plan load and removal. The server's response-cache keys
// embed it, so a mutation orphans every cached response instead of racing
// an invalidation. A value that is stable across a scan proves the scan saw
// exactly that plan set.
func (e *Engine) Generation() uint64 { return e.generation.Load() }

// snapshot returns the current plan list for one scan to iterate; see the
// plans field for why the shared slice is safe to read after the unlock.
func (e *Engine) snapshot() []*transform.Result {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.plans
}

// NumPlans reports how many plans are loaded.
func (e *Engine) NumPlans() int { return len(e.snapshot()) }

// Plans returns the loaded plans in load order.
func (e *Engine) Plans() []*qep.Plan {
	plans := e.snapshot()
	out := make([]*qep.Plan, len(plans))
	for i, r := range plans {
		out[i] = r.Plan
	}
	return out
}

// Plan returns the loaded plan with the given ID, or nil.
func (e *Engine) Plan(id string) *qep.Plan {
	if r := e.Result(id); r != nil {
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
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.byID[id]
}

// FindPattern compiles the problem pattern and matches it against every
// loaded plan (Algorithm 3). Matches are returned in plan load order.
func (e *Engine) FindPattern(ctx context.Context, p *pattern.Pattern) ([]transform.Match, error) {
	c, err := pattern.Compile(p)
	if err != nil {
		return nil, err
	}
	return e.FindCompiled(ctx, c)
}

// FindCompiled matches an already-compiled pattern: it scans the query
// Compile parsed, without a round trip through its text.
func (e *Engine) FindCompiled(ctx context.Context, c *pattern.Compiled) ([]transform.Match, error) {
	return e.find(ctx, c.Parsed, c.Columns)
}

// FindSPARQL matches a parsed SPARQL query against every loaded plan; every
// projected column is a column of the matches. Whoever holds text parses it
// (sparql.Parse), as a pattern's author compiles it for FindCompiled.
func (e *Engine) FindSPARQL(ctx context.Context, q *sparql.Query) ([]transform.Match, error) {
	return e.find(ctx, q, transform.NewColumns(q.Projection()))
}

// find matches one parsed query, whose column table is cols, against every
// loaded plan, bounded by ctx. Cancellation is cooperative at every layer: the
// worker-pool fan-out stops dispatching plans, each running SPARQL evaluation
// returns from its binding loops and closure walks within a bounded number of
// iterations, and the pool drains without leaking goroutines. The returned
// error then wraps ctx.Err().
func (e *Engine) find(ctx context.Context, q *sparql.Query, cols *transform.Columns) ([]transform.Match, error) {
	plans := e.snapshot()
	if e.instr.Search != nil {
		defer func(start time.Time) { e.instr.Search(time.Since(start), len(plans)) }(time.Now())
	}

	type chunk struct {
		res *sparql.Results
		err error
	}
	results := make([]chunk, len(plans))
	ferr := e.forEachPlan(ctx, plans, func(i int, r *transform.Result) {
		res, err := e.execTimed(ctx, q, r)
		if err != nil {
			err = fmt.Errorf("core: plan %s: %w", r.Plan.ID, err)
		}
		results[i] = chunk{res: res, err: err}
	})

	rows := 0
	for _, c := range results {
		if c.err != nil {
			return nil, c.err
		}
		if c.res != nil {
			rows += c.res.Len()
		}
	}
	if ferr != nil {
		return nil, ferr
	}
	out := make([]transform.Match, 0, rows)
	for i, c := range results {
		out = transform.AppendMatches(out, plans[i], cols, c.res.Rows)
	}
	return out, nil
}

// execTimed evaluates one (query, plan) pair, reporting the evaluation
// latency to the PlanMatch hook. With no hook installed the only overhead
// is one nil check. Every pair of every scan comes through here: whether the
// plan's vocabulary can match at all is the evaluator's question (the
// required-constant bail-out in sparql's evalCtx.exec), not the engine's.
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
// (Algorithm 5): each entry's saved query is matched, occurrences are
// de-transformed, recommendation templates are adapted to the plan's context
// through the handler tags, and the results are ranked by statistical
// confidence. Reports come back in plan load order. The scan is bounded by
// ctx the way find is.
func (e *Engine) RunKB(ctx context.Context, k *kb.KnowledgeBase) ([]PlanReport, error) {
	entries := k.Entries()
	plans := e.snapshot()
	if e.instr.KBScan != nil {
		defer func(start time.Time) { e.instr.KBScan(time.Since(start), len(plans), len(entries)) }(time.Now())
	}

	reports := make([]PlanReport, len(plans))
	errs := make([]error, len(plans))
	ferr := e.forEachPlan(ctx, plans, func(i int, r *transform.Result) {
		reports[i], errs[i] = e.planReport(ctx, entries, r)
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

// planReport matches every knowledge-base entry against one plan and
// assembles the ranked recommendation list. An entry's query and column table
// are the ones kb.Add built; nothing is resolved or copied per scan.
func (e *Engine) planReport(ctx context.Context, entries []*kb.Entry, r *transform.Result) (PlanReport, error) {
	report := PlanReport{Plan: r.Plan}
	for _, entry := range entries {
		res, err := e.execTimed(ctx, entry.Compiled().Parsed, r)
		if err != nil {
			return report, fmt.Errorf("core: plan %s, entry %s: %w", r.Plan.ID, entry.Name, err)
		}
		if res.Len() == 0 {
			continue
		}
		occs := transform.AppendMatches(make([]transform.Match, 0, res.Len()), r, entry.Compiled().Columns, res.Rows)
		report.Recommendations = append(report.Recommendations, entry.Recommend(occs)...)
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
