package sparql

import (
	"math/bits"
	"slices"
	"sync"

	"optimatch/internal/rdf"
)

// This file implements WHERE-clause evaluation over a compiled program (see
// compile.go). Matching runs entirely in the target graph's ID space: the
// query's constants are resolved to dense dictionary IDs once per evaluation,
// and a solution is a run of rdf.IDs instead of rdf.Terms, so binding a
// variable stores a machine word, comparing bindings never hashes strings,
// and the GC sees no pointers inside solution rows. Terms the evaluation
// synthesizes — BIND results, aggregate values, computed columns — may not
// exist in the graph; they live in a per-evaluation side table addressed by IDs
// with the top bit set.
//
// A block of triple patterns is ordered first — by the greedy selectivity
// heuristic, which reads only the query and the graph's statistics, never the
// rows — and then run depth-first on one binding row: each step binds its
// variables in place, applies the filters whose variables it completed,
// recurses, and restores. Only rows that survive the whole block are copied
// out, into a flat table (width = slots) that the group's other elements
// consume seed row by seed row. Level-at-a-time evaluation that preserves seed
// order visits the same rows in the same order, so the row sequence is the
// one the reference evaluator produces for the same join order. Every buffer
// an evaluation needs lives on its evalCtx, and evalCtxs are pooled, so a
// (query, graph) pair that matches nothing allocates next to nothing.

// extraIDBit marks IDs addressing the per-evaluation side table of terms
// that are not in the graph's dictionary. Graph dictionaries are per-plan
// and orders of magnitude smaller than 2^31 entries, so the bit is free.
const extraIDBit rdf.ID = 1 << 31

// evalCtx is the state of one evaluation of one query against one graph. Not
// safe for concurrent use.
type evalCtx struct {
	g    *rdf.Graph
	prog *program
	opts ExecOptions

	// cancel is the cooperative cancellation checkpoint for this
	// evaluation (nil when ExecOptions.Ctx cannot be cancelled; else it
	// points at cancelBuf). The same pointer is shared with env so closure
	// BFS walks poll it too.
	cancel    *canceller
	cancelBuf canceller

	// env is the property-path environment shared by every path evaluation
	// of this execution: it owns the closure memo and the pooled BFS
	// buffers, and resolves predicate IRIs through consts.
	env pathEnv

	// consts holds the dense ID in the target graph of every constant of
	// the query, by const number (NoID when absent).
	consts []rdf.ID

	// rowBuf backs row, the one binding row the depth-first join works on,
	// and zero, the all-unbound seed of the root group.
	rowBuf    []rdf.ID
	row, zero []rdf.ID
	// view is the row the generic expression evaluator reads (lookupVar).
	view []rdf.ID

	// steps is the step arena (one entry per triple pattern of the query,
	// each block owning a fixed range) and plans the per-block plan table.
	steps []stepRun
	plans []blockPlan
	run   blockRun

	// tabs is the stack of row tables: a group pushes the tables its elements
	// hand rows through and pops them when it is done, nested groups push
	// theirs above. Tables are addressed by index because the stack may be
	// reallocated while a group is running.
	tabs [][]rdf.ID

	// seen and keyBuf dedup projected rows for DISTINCT; pairSeen dedups the
	// pairs of a property path with both ends unbound and, once the WHERE
	// clause is done, the (accumulator, value) pairs of DISTINCT aggregates.
	seen     map[string]struct{}
	keyBuf   []byte
	pairSeen map[[2]rdf.ID]struct{}

	// groups numbers the GROUP BY key tuples in order of first appearance;
	// accs holds the aggregate accumulators, one run of len(prog.aggs) per
	// group.
	groups map[string]int32
	accs   []aggAcc

	// floats memoizes numeric parsing per term ID: FILTER comparisons over
	// cardinalities and costs re-visit the same few literals for every row.
	// An entry counts only while its epoch is the evaluation's, so the table
	// needs no clearing between evaluations.
	floats []cachedFloat
	epoch  uint32

	// extra and extraIDs hold terms synthesized during evaluation (BIND
	// results, aggregate values, computed columns) that the graph's dictionary
	// does not contain.
	extra    []rdf.Term
	extraIDs map[rdf.Term]rdf.ID

	// joinRows counts the binding extensions attempted (recursion nodes of
	// the depth-first join), folded into ExecOptions.Stats at the end.
	joinRows int64
}

// stepRun is one triple pattern prepared for one evaluation: constants
// resolved, position in the join order decided.
type stepRun struct {
	pat           *patProg
	sid, oid, pid rdf.ID  // resolved constants, NoID in variable positions
	dead          bool    // a constant is absent from the graph: no matches
	base          float64 // cost before the bound-variable adjustments
	filters       uint64  // the group's filters to apply once this step has bound its variables
}

// blockPlan records for which entry state a block's steps are currently
// ordered, and the state the block leaves behind.
type blockPlan struct {
	valid                bool
	bound, applied       uint64
	outBound, outApplied uint64
}

// blockRun is the block the depth-first join is currently running.
type blockRun struct {
	steps   []stepRun
	filters []filterProg
	// final: the block is the last element of its group, so its leaves apply
	// the group's remaining filters (those not in applied) and emit to the
	// group's own output table; otherwise the rows go to table out as they
	// are.
	final    bool
	applied  uint64
	distinct bool
	out      int
}

type cachedFloat struct {
	f     float64
	epoch uint32
	ok    bool
}

// maxPooledWords and maxPooledKeys bound what a pooled evalCtx may keep
// alive between evaluations: one huge ad-hoc result must not pin its tables,
// nor make every later clear() of a dedup set walk its buckets.
const (
	maxPooledWords = 1 << 16
	maxPooledKeys  = 1 << 12
)

var evalCtxPool = sync.Pool{New: func() any { return new(evalCtx) }}

// acquireEvalCtx readies a pooled evalCtx for one evaluation of program p
// against g: it sizes the row, the step arena and the plan table for p and
// resolves every constant against g's dictionary.
func acquireEvalCtx(g *rdf.Graph, p *program, opts ExecOptions) *evalCtx {
	ec := evalCtxPool.Get().(*evalCtx)
	ec.g, ec.prog, ec.opts = g, p, opts
	if c := newCanceller(opts.Ctx); c != nil {
		ec.cancelBuf = *c
		ec.cancel = &ec.cancelBuf
	}
	ec.consts = slices.Grow(ec.consts[:0], len(p.consts))
	dict := g.Dict()
	for _, t := range p.consts {
		ec.consts = append(ec.consts, dict.Lookup(t))
	}
	ec.env.g, ec.env.cancel = g, ec.cancel
	ec.env.predConst, ec.env.consts = p.predConst, ec.consts
	ec.env.stale = len(ec.env.visitedPool)

	ec.rowBuf = slices.Grow(ec.rowBuf[:0], 2*p.width)[:2*p.width]
	clear(ec.rowBuf)
	ec.row, ec.zero = ec.rowBuf[:p.width], ec.rowBuf[p.width:]
	ec.steps = slices.Grow(ec.steps[:0], p.nPats)[:p.nPats]
	ec.plans = slices.Grow(ec.plans[:0], p.nBlks)[:p.nBlks]
	clear(ec.plans)

	if ec.epoch++; ec.epoch == 0 {
		clear(ec.floats)
		ec.epoch = 1
	}
	return ec
}

// release returns ec to the pool, dropping every reference to the
// evaluation's graph, query and context and whatever grew past the pooling
// bounds.
func (ec *evalCtx) release() {
	ec.g, ec.prog, ec.opts = nil, nil, ExecOptions{}
	ec.cancel, ec.cancelBuf = nil, canceller{}
	env := &ec.env
	env.g, env.cancel, env.predConst, env.consts = nil, nil, nil, nil
	env.stats = PathStats{}
	env.memo = resetMap(env.memo)
	env.visitedPool = dropOversized(env.visitedPool)
	env.idPool = dropOversized(env.idPool)
	ec.view = nil
	clear(ec.steps)
	ec.run = blockRun{}
	ec.popTables(0)
	ec.seen = resetMap(ec.seen)
	ec.pairSeen = resetMap(ec.pairSeen)
	ec.groups = resetMap(ec.groups)
	clear(ec.accs)
	if ec.accs = ec.accs[:0]; cap(ec.accs) > maxPooledKeys {
		ec.accs = nil
	}
	if len(ec.floats) > maxPooledWords {
		ec.floats = nil
	}
	clear(ec.extra)
	ec.extra = ec.extra[:0]
	clear(ec.extraIDs)
	ec.joinRows = 0
	evalCtxPool.Put(ec)
}

// resetMap empties a pooled map, or drops it when it grew past the pooling
// bound.
func resetMap[K comparable, V any](m map[K]V) map[K]V {
	if len(m) > maxPooledKeys {
		return nil
	}
	clear(m)
	return m
}

// dropOversized removes from a pooled buffer stack the buffers that grew past
// the pooling bound.
func dropOversized[T any](pool [][]T) [][]T {
	return slices.DeleteFunc(pool, func(b []T) bool { return cap(b) > maxPooledWords })
}

// lookupVar makes the evaluation the bindingView of the generic expression
// evaluator, over the row in ec.view.
func (ec *evalCtx) lookupVar(name string) (rdf.Term, bool) {
	i, ok := ec.prog.varIndex[name]
	if !ok {
		return rdf.Term{}, false
	}
	id := ec.view[i]
	if id == rdf.NoID {
		return rdf.Term{}, false
	}
	return ec.term(id), true
}

// floatOf is Term.Float for the term behind id, memoized per evaluation for
// graph terms.
func (ec *evalCtx) floatOf(id rdf.ID) (float64, bool) {
	if id&extraIDBit != 0 {
		return ec.term(id).Float()
	}
	if int(id) >= len(ec.floats) {
		ec.floats = append(ec.floats, make([]cachedFloat, int(ec.g.MaxID())+1-len(ec.floats))...)
	}
	c := &ec.floats[id]
	if c.epoch != ec.epoch {
		c.f, c.ok = ec.g.Dict().Term(id).Float()
		c.epoch = ec.epoch
	}
	return c.f, c.ok
}

// term converts an ID-space binding back to a term.
func (ec *evalCtx) term(id rdf.ID) rdf.Term {
	switch {
	case id == rdf.NoID:
		return rdf.Term{}
	case id&extraIDBit != 0:
		return ec.extra[id&^extraIDBit]
	default:
		return ec.g.Dict().Term(id)
	}
}

// intern maps a term produced during evaluation to an ID: the graph's own
// ID when the dictionary knows the term, a side-table ID otherwise. Side-
// table IDs never collide with graph IDs, so an ID equality test is exactly
// a term equality test.
func (ec *evalCtx) intern(t rdf.Term) rdf.ID {
	if t.Zero() {
		return rdf.NoID
	}
	if id := ec.g.Dict().Lookup(t); id != rdf.NoID {
		return id
	}
	if id, ok := ec.extraIDs[t]; ok {
		return id
	}
	if ec.extraIDs == nil {
		ec.extraIDs = make(map[rdf.Term]rdf.ID)
	}
	id := extraIDBit | rdf.ID(len(ec.extra))
	ec.extra = append(ec.extra, t)
	ec.extraIDs[t] = id
	return id
}

// pushTable opens an empty row table on top of the stack, reusing the
// capacity a table popped there earlier left behind.
func (ec *evalCtx) pushTable() int {
	n := len(ec.tabs)
	if n < cap(ec.tabs) {
		ec.tabs = ec.tabs[:n+1]
		ec.tabs[n] = ec.tabs[n][:0]
	} else {
		ec.tabs = append(ec.tabs, nil)
	}
	return n
}

// popTables closes every table from base up.
func (ec *evalCtx) popTables(base int) {
	for i := base; i < len(ec.tabs); i++ {
		if cap(ec.tabs[i]) > maxPooledWords {
			ec.tabs[i] = nil
		}
	}
	ec.tabs = ec.tabs[:base]
}

// boundMask is the bitmask of the slots bound in row.
func boundMask(row []rdf.ID) uint64 {
	var m uint64
	for i, id := range row[:min(len(row), 64)] {
		if id != rdf.NoID {
			m |= 1 << uint(i)
		}
	}
	return m
}

// evalGroup evaluates a group seeded with the rows of in and appends the
// solutions to table out: full-width rows, or — when distinct is set, for the
// root group of a query whose tail allows it — projected rows no two of which
// are equal. in is only read. A cancellation stops the evaluation wherever it
// is; the caller finds it in ec.cancel.
func (ec *evalCtx) evalGroup(gp *groupProg, in []rdf.ID, out int, distinct bool) {
	if len(in) == 0 || ec.cancel.tripped() != nil {
		return
	}
	w := ec.prog.width
	// Variables bound in every seed row are statically available.
	bound := ^uint64(0)
	for r := 0; r < len(in); r += w {
		bound &= boundMask(in[r : r+w])
	}
	var applied uint64 // the group's filters already applied, by index

	// Elements hand their rows on through two tables used in turn.
	base := len(ec.tabs)
	defer ec.popTables(base)
	pair, k := [2]int{-1, -1}, 0

	cur := in
	for i := range gp.elems {
		el := &gp.elems[i]
		if el.kind == elemBlock && i == len(gp.elems)-1 {
			ec.runBlock(el.block, gp, bound, applied, cur, out, true, distinct)
			return
		}
		if pair[k] < 0 {
			pair[k] = ec.pushTable()
		}
		next := pair[k]
		ec.tabs[next] = ec.tabs[next][:0]
		k ^= 1
		switch el.kind {
		case elemBlock:
			pl := ec.runBlock(el.block, gp, bound, applied, cur, next, false, false)
			bound, applied = pl.outBound, pl.outApplied
		case elemOptional:
			for r := 0; r < len(cur); r += w {
				before := len(ec.tabs[next])
				ec.evalGroup(el.groups[0], cur[r:r+w], next, false)
				if len(ec.tabs[next]) == before {
					ec.tabs[next] = append(ec.tabs[next], cur[r:r+w]...)
				}
			}
		case elemUnion:
			for r := 0; r < len(cur); r += w {
				for _, branch := range el.groups {
					ec.evalGroup(branch, cur[r:r+w], next, false)
				}
			}
		case elemGroup:
			ec.evalGroup(el.groups[0], cur, next, false)
		case elemExists:
			res := ec.pushTable()
			for r := 0; r < len(cur); r += w {
				ec.tabs[res] = ec.tabs[res][:0]
				ec.evalGroup(el.groups[0], cur[r:r+w], res, false)
				if (len(ec.tabs[res]) > 0) != el.not {
					ec.tabs[next] = append(ec.tabs[next], cur[r:r+w]...)
				}
			}
			ec.popTables(res)
		case elemBind:
			for r := 0; r < len(cur); r += w {
				ec.view = cur[r : r+w]
				v, err := el.expr.Eval(ec)
				t := append(ec.tabs[next], cur[r:r+w]...)
				if err == nil {
					t[len(t)-w+el.slot] = ec.intern(v)
				}
				ec.tabs[next] = t
			}
		}
		if el.kind == elemUnion || el.kind == elemGroup || el.kind == elemBind {
			bound |= el.binds
			applied = ec.applyEagerFilters(gp, bound, applied, next)
		}
		cur = ec.tabs[next]
		if len(cur) == 0 || ec.cancel.tripped() != nil {
			return
		}
	}
	// The group did not end in a block: its remaining filters run here;
	// unbound variables make a filter false (SPARQL error-as-false).
	for r := 0; r < len(cur); r += w {
		ec.emit(gp.filters, applied, cur[r:r+w], out, distinct)
	}
}

// applyEagerFilters applies, in place, the eager filters whose variables have
// just become statically bound.
func (ec *evalCtx) applyEagerFilters(gp *groupProg, bound, applied uint64, table int) uint64 {
	w, t := ec.prog.width, ec.tabs[table]
	for i := range gp.filters {
		f := &gp.filters[i]
		if !f.eager || applied&(1<<uint(i)) != 0 || f.vars&^bound != 0 {
			continue
		}
		applied |= 1 << uint(i)
		n := 0
		for r := 0; r < len(t); r += w {
			if f.keep(ec, t[r:r+w]) {
				n += copy(t[n:n+w], t[r:r+w])
			}
		}
		t = t[:n]
	}
	ec.tabs[table] = t
	return applied
}

// emit sends one solution of a group to its output once the group's filters
// not yet applied have passed it.
func (ec *evalCtx) emit(filters []filterProg, applied uint64, row []rdf.ID, out int, distinct bool) {
	for i := range filters {
		if i < 64 && applied&(1<<uint(i)) != 0 {
			continue
		}
		if !filters[i].keep(ec, row) {
			return
		}
	}
	if !distinct {
		ec.tabs[out] = append(ec.tabs[out], row...)
		return
	}
	slots := ec.prog.projSlots
	if ec.firstSeen(row, slots) {
		t := ec.tabs[out]
		for _, slot := range slots {
			t = append(t, row[slot])
		}
		ec.tabs[out] = t
	}
}

// firstSeen reports whether the projection of row onto cols has not been
// seen before in this evaluation. Dictionary interning makes an ID tuple an
// exact stand-in for a term tuple.
func (ec *evalCtx) firstSeen(row []rdf.ID, cols []int) bool {
	key := ec.keyBuf[:0]
	for _, c := range cols {
		key = appendID(key, row[c])
	}
	ec.keyBuf = key
	if _, dup := ec.seen[string(key)]; dup {
		return false
	}
	if ec.seen == nil {
		ec.seen = make(map[string]struct{})
	}
	ec.seen[string(key)] = struct{}{}
	return true
}

// appendID appends id's four bytes to a map key under construction.
func appendID(key []byte, id rdf.ID) []byte {
	return append(key, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
}

// runBlock orders the block for the given entry state and runs it
// depth-first from every seed row of in.
func (ec *evalCtx) runBlock(b *blockProg, gp *groupProg, bound, applied uint64, in []rdf.ID, out int, final, distinct bool) *blockPlan {
	pl := ec.planBlock(b, gp, bound, applied)
	ec.run = blockRun{
		steps:    ec.steps[b.off : b.off+len(b.pats)],
		filters:  gp.filters,
		final:    final,
		applied:  pl.outApplied,
		distinct: distinct,
		out:      out,
	}
	w := ec.prog.width
	for r := 0; r < len(in); r += w {
		copy(ec.row, in[r:r+w])
		if !ec.descend(0) {
			break
		}
	}
	return pl
}

// planBlock resolves the block's constants and chooses its join order: the
// greedy selectivity heuristic (unless disabled) picks, step by step, the
// cheapest remaining pattern given what is statically bound, and each step
// is handed the eager filters whose variables it completes. The order is a
// function of the query, the graph's statistics and the entry state only —
// never of the rows — so a block entered again in the same state (an
// OPTIONAL leg, once per seed row) keeps its plan.
func (ec *evalCtx) planBlock(b *blockProg, gp *groupProg, bound, applied uint64) *blockPlan {
	pl := &ec.plans[b.id]
	if pl.valid && pl.bound == bound && pl.applied == applied {
		return pl
	}
	pl.valid, pl.bound, pl.applied = true, bound, applied
	steps := ec.steps[b.off : b.off+len(b.pats)]
	for i := range b.pats {
		steps[i] = ec.prepareStep(&b.pats[i])
	}
	for k := range steps {
		if !ec.opts.DisableReorder {
			best, bestCost := k, steps[k].cost(bound)
			for i := k + 1; i < len(steps); i++ {
				if c := steps[i].cost(bound); c < bestCost {
					best, bestCost = i, c
				}
			}
			// Move the choice to position k, keeping the rest in textual
			// order: ties go to the earlier pattern at every step.
			chosen := steps[best]
			copy(steps[k+1:best+1], steps[k:best])
			steps[k] = chosen
		}
		st := &steps[k]
		bound |= st.pat.binds()
		for i := range gp.filters {
			f := &gp.filters[i]
			if f.eager && applied&(1<<uint(i)) == 0 && f.vars&^bound == 0 {
				applied |= 1 << uint(i)
				st.filters |= 1 << uint(i)
			}
		}
	}
	pl.outBound, pl.outApplied = bound, applied
	return pl
}

// prepareStep resolves a pattern's constants and takes the count its cost
// starts from: the triples matching the pattern's constants (the predicate's
// total when it has none), all O(1) on the graph's indexes.
func (ec *evalCtx) prepareStep(p *patProg) stepRun {
	st := stepRun{pat: p}
	if p.sConst >= 0 {
		st.sid = ec.consts[p.sConst]
		st.dead = st.dead || st.sid == rdf.NoID
	}
	if p.oConst >= 0 {
		st.oid = ec.consts[p.oConst]
		st.dead = st.dead || st.oid == rdf.NoID
	}
	if p.pConst >= 0 {
		st.pid = ec.consts[p.pConst]
		st.dead = st.dead || st.pid == rdf.NoID
	}
	switch {
	case st.dead:
	case p.kind == patPath:
		st.base = float64(ec.g.Len())
	default:
		st.base = float64(ec.g.Count(st.sid, st.pid, st.oid))
	}
	return st
}

// cost estimates the result size of the step given which variables are
// statically bound. Lower is better.
func (st *stepRun) cost(bound uint64) float64 {
	if st.dead {
		return 0 // constant absent: zero results, run it first
	}
	p := st.pat
	sVar := p.sSlot >= 0 && bound&slotBit(p.sSlot) != 0
	oVar := p.oSlot >= 0 && bound&slotBit(p.oSlot) != 0
	base := st.base
	switch p.kind {
	case patPredVar:
		if bound&slotBit(p.pSlot) == 0 {
			base *= 1.5
		}
	case patPath:
		// Complex property path: expensive unless an endpoint is anchored.
		if sVar || p.sSlot < 0 || oVar || p.oSlot < 0 {
			base /= 4
		} else {
			base *= 4
		}
	}
	// Bound variables narrow the match at execution time even though the
	// static estimate cannot see the concrete value.
	if sVar {
		base /= 8
	}
	if oVar {
		base /= 8
	}
	return base
}

// descend runs step d of the current block on ec.row and, through extend,
// every step after it. It reports false when the evaluation was cancelled.
func (ec *evalCtx) descend(d int) bool {
	r := &ec.run
	if d == len(r.steps) {
		if r.final {
			ec.emit(r.filters, r.applied, ec.row, r.out, r.distinct)
		} else {
			ec.tabs[r.out] = append(ec.tabs[r.out], ec.row...)
		}
		return true
	}
	if ec.cancel.check() != nil {
		return false
	}
	ec.joinRows++
	st := &r.steps[d]
	if st.dead {
		return true
	}
	p, row := st.pat, ec.row

	// A variable the row already binds constrains the match; one it does not
	// is bound by extend and unbound again below.
	sid, oid, pid := st.sid, st.oid, st.pid
	sFree, oFree, pFree := false, false, false
	if p.sSlot >= 0 {
		if sid = row[p.sSlot]; sid&extraIDBit != 0 {
			return true // synthesized term, not in this graph
		}
		sFree = sid == rdf.NoID
	}
	if p.oSlot >= 0 {
		if oid = row[p.oSlot]; oid&extraIDBit != 0 {
			return true
		}
		oFree = oid == rdf.NoID
	}
	if p.pSlot >= 0 {
		if pid = row[p.pSlot]; pid&extraIDBit != 0 {
			return true
		}
		pFree = pid == rdf.NoID
	}

	live := true
	switch p.kind {
	case patSimple:
		ec.g.Match(sid, pid, oid, func(ms, _, mo rdf.ID) bool {
			live = ec.extend(d, ms, mo, rdf.NoID)
			return live
		})
	case patPredVar:
		ec.g.Match(sid, pid, oid, func(ms, mp, mo rdf.ID) bool {
			live = ec.extend(d, ms, mo, mp)
			return live
		})
	default:
		pairs := ec.pathPairs(p.path, sid, oid)
		for i := 0; i < len(pairs) && live; i += 2 {
			live = ec.extend(d, pairs[i], pairs[i+1], rdf.NoID)
		}
		ec.env.putIDs(pairs)
	}

	if sFree {
		row[p.sSlot] = rdf.NoID
	}
	if oFree {
		row[p.oSlot] = rdf.NoID
	}
	if pFree {
		row[p.pSlot] = rdf.NoID
	}
	return live
}

// extend binds one match of step d into ec.row, applies the filters the step
// completed, and descends.
func (ec *evalCtx) extend(d int, ms, mo, mp rdf.ID) bool {
	st := &ec.run.steps[d]
	p, row := st.pat, ec.row
	if p.sSlot >= 0 {
		if p.sSlot == p.oSlot && ms != mo {
			return true // ?x p ?x
		}
		row[p.sSlot] = ms
	}
	if p.oSlot >= 0 {
		row[p.oSlot] = mo
	}
	if p.pSlot >= 0 {
		row[p.pSlot] = mp
	}
	for f := st.filters; f != 0; f &= f - 1 {
		if !ec.run.filters[bits.TrailingZeros64(f)].keep(ec, row) {
			return true
		}
	}
	return ec.descend(d + 1)
}

// pathPairs collects the distinct (s, o) pairs the property path connects
// under the given endpoint bindings, in emission order, into a buffer of the
// path environment's stack pool (the caller returns it with putIDs). The
// pairs are complete before the join descends, so the walk's own pooled
// buffers are back on the stack by then, and the steps below may run paths —
// and hold pair buffers — of their own.
func (ec *evalCtx) pathPairs(p Path, sid, oid rdf.ID) []rdf.ID {
	env := &ec.env
	pairs := env.getIDs()
	switch {
	case sid != rdf.NoID && oid != rdf.NoID:
		// Every pair is (sid, oid).
		evalPath(env, p, sid, oid, func(ms, mo rdf.ID) bool {
			if len(pairs) == 0 {
				pairs = append(pairs, ms, mo)
			}
			return true
		})
	case sid != rdf.NoID || oid != rdf.NoID:
		// One end is shared by every pair: dedup the other on a bitset.
		seen := env.getVisited()
		evalPath(env, p, sid, oid, func(ms, mo rdf.ID) bool {
			free := mo
			if sid == rdf.NoID {
				free = ms
			}
			if !bitGet(seen, free) {
				bitSet(seen, free)
				pairs = append(pairs, ms, mo)
			}
			return true
		})
		env.putVisited(seen, pairs)
	default:
		if ec.pairSeen == nil {
			ec.pairSeen = make(map[[2]rdf.ID]struct{})
		}
		clear(ec.pairSeen)
		evalPath(env, p, sid, oid, func(ms, mo rdf.ID) bool {
			key := [2]rdf.ID{ms, mo}
			if _, dup := ec.pairSeen[key]; !dup {
				ec.pairSeen[key] = struct{}{}
				pairs = append(pairs, ms, mo)
			}
			return true
		})
	}
	return pairs
}

// compute evaluates the computed columns of every row of table into their
// slots, in place: a value is interned like a BIND result, a failed evaluation
// leaves the cell unbound. A cancellation stops the pass wherever it is; the
// caller finds it in ec.cancel.
func (ec *evalCtx) compute(table []rdf.ID) {
	p := ec.prog
	if len(p.computed) == 0 {
		return
	}
	for r, w := 0, p.width; r < len(table) && ec.cancel.check() == nil; r += w {
		ec.view = table[r : r+w]
		for _, col := range p.computed {
			if v, err := col.expr.Eval(ec); err == nil {
				ec.view[col.slot] = ec.intern(v)
			}
		}
	}
}

// projectIDs is the end of every query: it applies ORDER BY, SELECT, DISTINCT,
// OFFSET and LIMIT to the ID rows of table — the WHERE rows or the groups,
// computed columns filled in, so every sort key and every projected column is
// a slot. The sort is stable, and terms materialize only for sort keys and for
// the rows that survive DISTINCT and the window.
//
// With the program's earlyDistinct the rows arrive projected and already
// deduplicated (see evalCtx.emit), so what remains is the sort and the
// window. Deduplicating first is exact there: every sort key is a projected
// column, so equal projections tie on all keys, a stable sort keeps tied rows
// in arrival order, and the first occurrence of each projection therefore
// lands where sort-then-dedup would have kept it.
func (ec *evalCtx) projectIDs(q *Query, table []rdf.ID) (*Results, error) {
	p := ec.prog
	w, cols, orderCols, dedup := p.width, p.projSlots, p.orderSlots, q.Distinct
	if p.earlyDistinct {
		w, cols, orderCols, dedup = len(p.projSlots), p.projCols, p.orderCols, false
	}
	n := len(table) / w
	at := func(i int) []rdf.ID { return table[i*w : (i+1)*w] }

	// order[i] is the table row at result position i.
	var order []int32
	if k := len(orderCols); k > 0 && n > 1 {
		keys := make([]rdf.Term, n*k)
		order = make([]int32, n)
		for i := range order {
			order[i] = int32(i)
			for j, c := range orderCols {
				keys[i*k+j] = ec.term(at(i)[c])
			}
		}
		slices.SortStableFunc(order, func(a, b int32) int {
			for j := range orderCols {
				c := keys[int(a)*k+j].Compare(keys[int(b)*k+j])
				if q.OrderBy[j].Desc {
					c = -c
				}
				if c != 0 {
					return c
				}
			}
			return 0
		})
	}

	res := &Results{Vars: slices.Clone(p.projVars)}
	var cells []rdf.Term
	if !dedup {
		// The row count is known: the window over n.
		rows := max(n-q.Offset, 0)
		if q.Limit >= 0 {
			rows = min(rows, q.Limit)
		}
		if rows > 0 {
			cells, res.Rows = make([]rdf.Term, 0, rows*len(cols)), make([][]rdf.Term, 0, rows)
		}
	}
	kept := 0
	for i := 0; i < n; i++ {
		if err := ec.cancel.check(); err != nil {
			return nil, err
		}
		row := at(i)
		if order != nil {
			row = at(int(order[i]))
		}
		if dedup && !ec.firstSeen(row, cols) {
			continue
		}
		if kept++; kept <= q.Offset {
			continue
		}
		if q.Limit >= 0 && kept-q.Offset > q.Limit {
			break
		}
		for _, c := range cols {
			cells = append(cells, ec.term(row[c]))
		}
		res.Rows = append(res.Rows, nil)
	}
	pc := len(cols)
	for i := range res.Rows {
		res.Rows[i] = cells[i*pc : (i+1)*pc : (i+1)*pc]
	}
	return res, nil
}
