package sparql

import (
	"context"
	"sync/atomic"

	"optimatch/internal/rdf"
)

// ExecOptions tunes query evaluation. The zero value is the default
// configuration.
type ExecOptions struct {
	// Ctx, when non-nil, bounds the evaluation: the evaluator polls it
	// cooperatively inside every binding loop, closure BFS and projection
	// pass (every cancelStride iterations, so the overhead without
	// cancellation is one pointer check per iteration) and returns
	// ctx.Err() as soon as cancellation is observed. A nil Ctx (or one
	// that can never be cancelled) costs nothing.
	Ctx context.Context
	// DisableReorder turns off the estimate-based join order for basic graph
	// patterns; patterns evaluate in textual order. Used by the ablation
	// benchmarks.
	DisableReorder bool

	// Stats, when non-nil, tallies executions, required-constant bail-outs
	// and path-closure work. The same EvalStats may be shared by concurrent
	// evaluations (the counters are atomic); nil costs nothing on the hot
	// path.
	Stats *EvalStats
}

// cancelStride is how many loop iterations pass between two polls of the
// context's done channel. The channel poll is a few nanoseconds, but the
// binding loops run tens of millions of iterations on pathological queries,
// so amortizing it keeps the measured overhead of cancellation support under
// the noise floor of a knowledge-base scan (the kb_scan_cold workload of
// bench/) while still bounding the reaction latency to a few hundred cheap
// iterations.
const cancelStride = 256

// canceller is the cooperative cancellation checkpoint shared by every loop
// of one evaluation (binding extension, closure BFS, aggregation and
// projection). A nil *canceller is valid and means "never cancelled", so the
// common ExecOptions-without-Ctx path pays a single nil check per iteration.
// Not safe for concurrent use — one canceller lives per evaluation, like the
// pathEnv it travels with.
type canceller struct {
	done <-chan struct{}
	ctx  context.Context
	err  error // sticky: first observed cancellation error
	n    int   // iterations until the next channel poll
}

// newCanceller returns a checkpoint for ctx, or nil when ctx can never be
// cancelled (nil context or no done channel).
func newCanceller(ctx context.Context) *canceller {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	return &canceller{done: ctx.Done(), ctx: ctx, n: cancelStride}
}

// check polls the context every cancelStride calls and returns its error
// once cancellation has been observed (sticky thereafter).
func (c *canceller) check() error {
	if c == nil {
		return nil
	}
	if c.err != nil {
		return c.err
	}
	c.n--
	if c.n > 0 {
		return nil
	}
	c.n = cancelStride
	select {
	case <-c.done:
		c.err = c.ctx.Err()
		return c.err
	default:
		return nil
	}
}

// tripped reports a cancellation some earlier check observed, without
// consuming a stride tick. Loops that may produce partial output (closure
// BFS, path emission) use it so a cancellation seen deep in a callback
// surfaces as an error instead of a truncated result.
func (c *canceller) tripped() error {
	if c == nil {
		return nil
	}
	return c.err
}

// EvalStats counts executions, required-constant bail-outs, join work and
// path-closure work. The zero value is ready to use; all fields are atomic
// so one instance can be shared by every worker of an engine.
type EvalStats struct {
	executions      atomic.Int64
	constantBailout atomic.Int64
	joinRows        atomic.Int64
	matchRows       atomic.Int64

	pathMemoHits    atomic.Int64
	pathMemoMisses  atomic.Int64
	pathBFSSteps    atomic.Int64
	pathBitsetBytes atomic.Int64
}

// EvalSnapshot is a point-in-time copy of EvalStats.
type EvalSnapshot struct {
	// Specialized counts every execution (the name predates the removal of
	// the second evaluator and stays for the benchmark module).
	Specialized int64
	// Fallback is always 0; kept because the benchmark module reads it.
	Fallback int64
	// ConstantBailouts counts executions that skipped WHERE evaluation
	// entirely because a required constant was missing from the graph's
	// vocabulary (a subset of Specialized).
	ConstantBailouts int64
	// JoinRows counts the recursion nodes of the depth-first join: one per
	// triple pattern run on one row, whatever number of matches the pattern
	// then finds there.
	JoinRows int64
	// MatchRows counts the matches those runs tried to bind into the row, the
	// ones a filter or a repeated variable then refused included: the work
	// JoinRows cannot see, e.g. a last step that scans a predicate to keep one
	// row.
	MatchRows int64
	// Path aggregates the path-closure acceleration counters.
	Path PathSnapshot
}

// PathSnapshot is a point-in-time copy of the path-acceleration counters.
type PathSnapshot struct {
	// CSRBuilds is always 0 (closures walk the graph's one index; nothing is
	// built per predicate); kept because the benchmark module reads it.
	CSRBuilds int64
	// MemoHits counts closures replayed from a per-evaluation memo.
	MemoHits int64
	// MemoMisses counts closures that ran a fresh BFS.
	MemoMisses int64
	// BFSSteps counts edges traversed by closure BFS walks.
	BFSSteps int64
	// BitsetBytes counts the bytes of visited bitset evaluations brought into
	// use: each bitset once per evaluation that uses it, freshly allocated or
	// taken over from the pooled scratch alike.
	BitsetBytes int64
}

// Snapshot returns the current counter values.
func (s *EvalStats) Snapshot() EvalSnapshot {
	return EvalSnapshot{
		Specialized:      s.executions.Load(),
		ConstantBailouts: s.constantBailout.Load(),
		JoinRows:         s.joinRows.Load(),
		MatchRows:        s.matchRows.Load(),
		Path: PathSnapshot{
			MemoHits:    s.pathMemoHits.Load(),
			MemoMisses:  s.pathMemoMisses.Load(),
			BFSSteps:    s.pathBFSSteps.Load(),
			BitsetBytes: s.pathBitsetBytes.Load(),
		},
	}
}

// addEval folds one evaluation's join and path counters into the shared
// stats.
func (s *EvalStats) addEval(p PathStats, joinRows, matchRows int64) {
	if joinRows != 0 {
		s.joinRows.Add(joinRows)
	}
	if matchRows != 0 {
		s.matchRows.Add(matchRows)
	}
	if p == (PathStats{}) {
		return
	}
	s.pathMemoHits.Add(p.MemoHits)
	s.pathMemoMisses.Add(p.MemoMisses)
	s.pathBFSSteps.Add(p.BFSSteps)
	s.pathBitsetBytes.Add(p.BitsetBytes)
}

// Results is a solution table: one row per solution, one column per
// projected variable. A zero rdf.Term in a cell means the variable is
// unbound in that solution (possible under OPTIONAL).
type Results struct {
	Vars []string
	Rows [][]rdf.Term
}

// Len reports the number of solutions.
func (r *Results) Len() int { return len(r.Rows) }

// Column returns the index of the named result column, or -1.
func (r *Results) Column(name string) int {
	for i, v := range r.Vars {
		if v == name {
			return i
		}
	}
	return -1
}

// Get returns the binding of column name in row i (zero Term when unbound or
// the column does not exist).
func (r *Results) Get(i int, name string) rdf.Term {
	return r.At(i, r.Column(name))
}

// At returns the binding at row i, column c (zero Term when out of range).
// Callers iterating whole result sets should resolve each column index once
// with Column and use At per cell, instead of paying Get's per-cell scan of
// the variable list.
func (r *Results) At(i, c int) rdf.Term {
	if c < 0 || c >= len(r.Vars) || i < 0 || i >= len(r.Rows) {
		return rdf.Term{}
	}
	return r.Rows[i][c]
}

// Exec evaluates the query against g with default options.
func (q *Query) Exec(g *rdf.Graph) (*Results, error) {
	return q.ExecOpts(g, ExecOptions{})
}

// ExecOpts evaluates the query against g.
//
// The query's compiled program (see compile.go) is evaluated on a pooled
// evalCtx: every constant term the query mentions is resolved to g's dense
// dictionary ID exactly once, WHERE evaluation is skipped altogether when a
// required constant is absent from g's vocabulary, and pattern matching runs
// in ID space (see specialize.go); terms materialize once, in the projection
// tail.
func (q *Query) ExecOpts(g *rdf.Graph, opts ExecOptions) (*Results, error) {
	p := q.Analysis().prog
	if p.aggErr != nil {
		return nil, p.aggErr
	}
	if opts.Ctx != nil {
		if err := opts.Ctx.Err(); err != nil {
			return nil, err
		}
	}
	ec := acquireEvalCtx(g, p, opts)
	res, err := ec.exec(q)
	if opts.Stats != nil {
		opts.Stats.executions.Add(1)
		opts.Stats.addEval(ec.env.stats, ec.joinRows, ec.matchRows)
	}
	ec.release()
	return res, err
}

// exec runs the WHERE clause and the result tail: group, compute, then sort,
// dedup, window and materialize.
func (ec *evalCtx) exec(q *Query) (*Results, error) {
	p := ec.prog
	// Required-constant bail-out: when the graph's vocabulary misses a term
	// every match must contain, the WHERE clause is known to produce zero
	// solutions without being evaluated. The tail still runs so aggregates
	// over the empty solution set keep their one-row result.
	required := true
	for _, n := range p.required {
		required = required && ec.consts[n] != rdf.NoID
	}
	out := ec.pushTable()
	if required {
		mode := emitAll
		if p.earlyDistinct {
			mode = emitDistinct
		}
		ec.evalGroup(p.root, ec.zero, out, mode)
	} else if ec.opts.Stats != nil {
		ec.opts.Stats.constantBailout.Add(1)
	}
	table := ec.tabs[out]
	if p.grouped {
		table = ec.group(table)
	}
	ec.compute(table)
	// A cancellation stops the join, the path walks and the two passes above
	// without an error return path of their own; surface it here so truncated
	// results never masquerade as complete ones.
	if err := ec.cancel.tripped(); err != nil {
		return nil, err
	}
	return ec.projectIDs(q, table)
}
