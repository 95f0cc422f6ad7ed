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
// A block of triple patterns is ordered first — greedily by estimated rows
// out, which reads only the query and the graph's statistics, never the
// rows — and then run depth-first on one binding row: each step binds its
// variables in place, applies the filters whose variables it completed,
// recurses, and restores. Only rows that survive the whole block are copied
// out, into a flat table (width = slots) that the group's other elements
// consume seed row by seed row — top-down, which answers as SPARQL's
// bottom-up algebra does on every query Parse accepts (compile.go). A nested
// loop join in the same order visits the same rows in the same order. Where the
// answer cannot tell two rows apart — below the last step that binds a
// projected variable of a DISTINCT query, inside an EXISTS — the recursion
// stops at the first one (see blockRun.tail). Every buffer an evaluation needs
// lives on its evalCtx, and evalCtxs are pooled, so a (query, graph) pair that
// matches nothing allocates next to nothing.

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

	// extra and extraIDs hold terms synthesized during evaluation (BIND
	// results, aggregate values, computed columns) that the graph's dictionary
	// does not contain.
	extra    []rdf.Term
	extraIDs map[rdf.Term]rdf.ID

	// joinRows counts the recursion nodes of the depth-first join (descend:
	// one triple pattern run on one row), matchRows the matches they tried to
	// bind (extend); both are folded into ExecOptions.Stats at the end.
	// actuals, nil unless Explain asked for it, splits the two by triple
	// pattern: one entry per pattern of the query, at the pattern's place in
	// the step arena.
	joinRows, matchRows int64
	actuals             []stepActual
}

// stepActual is what one triple pattern did in one evaluation.
type stepActual struct{ descends, extends int64 }

// stepRun is one triple pattern prepared for one evaluation: constants
// resolved, position in the join order decided.
type stepRun struct {
	pat           *patProg
	no            int    // the pattern's textual position in its block
	sid, oid, pid rdf.ID // resolved constants, NoID in variable positions
	dead          bool   // a constant is absent from the graph: no matches

	// What cost reads (see there): the triples matching the constants, what a
	// bound subject or object variable divides them by, and what the filters
	// on a free object keep of them.
	count      float64
	perS, perO float64
	objSel     float64

	est     float64 // the estimate the step was placed with
	filters uint64  // the group's filters to apply once this step has bound its variables
}

// blockPlan records for which entry state a block's steps are currently
// ordered, and the state the block leaves behind.
type blockPlan struct {
	valid                bool
	bound, applied       uint64
	outBound, outApplied uint64
	tail                 int // blockRun.tail of the block's last run, for Explain
}

// blockRun is the block the depth-first join is currently running.
type blockRun struct {
	steps   []stepRun
	off     int // the block's place in the step arena
	filters []filterProg
	// final: the block is the last element of its group, so its leaves apply
	// the group's remaining filters (those not in applied) and emit to the
	// group's own output table; otherwise the rows go to table out as they
	// are.
	final    bool
	applied  uint64
	distinct bool
	out      int
	// tail is the depth from which one witness is enough: the steps from
	// there on bind nothing the group's output can show, so once a leaf below
	// has passed the group's remaining filters — found — they stop, and step
	// tail-1 goes on with its next match. 0 moves on to the next seed row, -1
	// (the first solution is all that was asked for) ends the block, and
	// len(steps) means every leaf counts.
	tail  int
	found bool
}

// emitMode is what a group's caller wants of its solutions.
type emitMode uint8

const (
	emitAll      emitMode = iota // every solution, full width
	emitDistinct                 // projected rows, no two equal: the root group of an earlyDistinct program
	emitFirst                    // the first solution ends the group: EXISTS asks nothing more
)

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
	clear(ec.extra)
	ec.extra = ec.extra[:0]
	clear(ec.extraIDs)
	ec.joinRows, ec.matchRows, ec.actuals = 0, 0, nil
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

// floatOf is Term.Float for the term behind id: a load from the graph's
// numeric column for graph terms.
func (ec *evalCtx) floatOf(id rdf.ID) (float64, bool) {
	if id&extraIDBit != 0 {
		return ec.term(id).Float()
	}
	return ec.g.Float(id)
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
// solutions to table out, as mode says: full-width rows, projected rows no two
// of which are equal, or the first full-width row and no more. in is only
// read. A cancellation stops the evaluation wherever it is; the caller finds
// it in ec.cancel.
func (ec *evalCtx) evalGroup(gp *groupProg, in []rdf.ID, out int, mode emitMode) {
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
			ec.runBlock(el.block, gp, bound, applied, cur, out, true, mode)
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
			pl := ec.runBlock(el.block, gp, bound, applied, cur, next, false, emitAll)
			bound, applied = pl.outBound, pl.outApplied
		case elemOptional:
			for r := 0; r < len(cur); r += w {
				before := len(ec.tabs[next])
				ec.evalGroup(el.groups[0], cur[r:r+w], next, emitAll)
				if len(ec.tabs[next]) == before {
					ec.tabs[next] = append(ec.tabs[next], cur[r:r+w]...)
				}
			}
		case elemUnion:
			for r := 0; r < len(cur); r += w {
				for _, branch := range el.groups {
					ec.evalGroup(branch, cur[r:r+w], next, emitAll)
				}
			}
		case elemGroup:
			ec.evalGroup(el.groups[0], cur, next, emitAll)
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
		if el.kind == elemUnion || el.kind == elemGroup {
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
		if ec.emit(gp.filters, applied, cur[r:r+w], out, mode == emitDistinct) && mode == emitFirst {
			return
		}
	}
}

// exists reports whether group gp has a solution seeded with row. It may be
// called from inside a block's recursion — an EXISTS is a step's filter, and
// row then is the binding row itself — so it seeds the group with a copy and
// puts the block being run and its row back as they were.
func (ec *evalCtx) exists(gp *groupProg, row []rdf.ID) bool {
	run := ec.run
	seed := ec.pushTable()
	ec.tabs[seed] = append(ec.tabs[seed], row...)
	res := ec.pushTable()
	ec.evalGroup(gp, ec.tabs[seed], res, emitFirst)
	found := len(ec.tabs[res]) > 0
	if &row[0] == &ec.row[0] {
		copy(row, ec.tabs[seed])
	}
	ec.popTables(seed)
	ec.run = run
	return found
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
// not yet applied have passed it, and reports whether they did — a row
// DISTINCT has seen before passes like a new one.
func (ec *evalCtx) emit(filters []filterProg, applied uint64, row []rdf.ID, out int, distinct bool) bool {
	for i := range filters {
		if i < 64 && applied&(1<<uint(i)) != 0 {
			continue
		}
		if !filters[i].keep(ec, row) {
			return false
		}
	}
	if !distinct {
		ec.tabs[out] = append(ec.tabs[out], row...)
		return true
	}
	slots := ec.prog.projSlots
	if ec.firstSeen(row, slots) {
		t := ec.tabs[out]
		for _, slot := range slots {
			t = append(t, row[slot])
		}
		ec.tabs[out] = t
	}
	return true
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
func (ec *evalCtx) runBlock(b *blockProg, gp *groupProg, bound, applied uint64, in []rdf.ID, out int, final bool, mode emitMode) *blockPlan {
	pl := ec.planBlock(b, gp, bound, applied)
	steps := ec.steps[b.off : b.off+len(b.pats)]
	pl.tail = len(steps)
	switch {
	case !final:
	case mode == emitFirst:
		pl.tail = -1
	case mode == emitDistinct:
		pl.tail = witnessTail(steps, ec.prog.projected, bound)
	}
	ec.run = blockRun{
		steps:    steps,
		off:      b.off,
		filters:  gp.filters,
		final:    final,
		applied:  pl.outApplied,
		distinct: mode == emitDistinct,
		out:      out,
		tail:     pl.tail,
	}
	w := ec.prog.width
	for r := 0; r < len(in); r += w {
		copy(ec.row, in[r:r+w])
		if ec.descend(0) {
			continue
		}
		// Stopped: by a cancellation, or by a witness that ends this seed row
		// (tail 0) or the block (tail -1).
		if !ec.run.found || pl.tail < 0 {
			break
		}
		ec.run.found = false
	}
	return pl
}

// witnessTail returns the depth after which no step of an ordered block binds
// a projected slot: the rows below one prefix of that length all project
// alike, and DISTINCT keeps the first. A step binds a slot it mentions unless
// the slot is bound in every seed row (bound) or mentioned by an earlier step;
// slots past 63, which bound cannot track, count as bound by every step that
// mentions them — the tail then only starts later than it might.
func witnessTail(steps []stepRun, projected []bool, bound uint64) int {
	binds := func(slot int) bool { return slot >= 0 && projected[slot] && bound&slotBit(slot) == 0 }
	tail := 0
	for k := range steps {
		if p := steps[k].pat; binds(p.sSlot) || binds(p.oSlot) || binds(p.pSlot) {
			tail = k + 1
		}
		bound |= steps[k].pat.mask
	}
	return tail
}

// planBlock resolves the block's constants and chooses its join order: step by
// step (unless reordering is disabled) the remaining pattern with the fewest
// estimated rows out given what is statically bound, ties to the textually
// earlier one; each step is handed the eager filters whose variables it
// completes. The order is a function of the query, the graph's statistics and
// the entry state only — never of the rows — so a block entered again in the
// same state (an OPTIONAL leg, once per seed row) keeps its plan.
func (ec *evalCtx) planBlock(b *blockProg, gp *groupProg, bound, applied uint64) *blockPlan {
	pl := &ec.plans[b.id]
	if pl.valid && pl.bound == bound && pl.applied == applied {
		return pl
	}
	pl.valid, pl.bound, pl.applied = true, bound, applied
	steps := ec.steps[b.off : b.off+len(b.pats)]
	for i := range b.pats {
		ec.prepareStep(&steps[i], b, i, gp.filters)
		steps[i].est = steps[i].cost(bound)
	}
	for k := range steps {
		if !ec.opts.DisableReorder {
			best := k
			for i := k + 1; i < len(steps); i++ {
				if steps[i].est < steps[best].est {
					best = i
				}
			}
			// Move the choice to position k, keeping the rest in textual
			// order: ties go to the earlier pattern at every step.
			chosen := steps[best]
			copy(steps[k+1:best+1], steps[k:best])
			steps[k] = chosen
		}
		st := &steps[k]
		// Only the patterns that share a variable the step has just bound
		// have a new estimate.
		fresh := st.pat.mask &^ bound
		bound |= fresh
		for i := k + 1; i < len(steps) && fresh != 0; i++ {
			if steps[i].pat.mask&fresh != 0 {
				steps[i].est = steps[i].cost(bound)
			}
		}
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

// Defaults of the estimate, where the graph has no statistic to read.
const (
	// unknownFanout is what a bound subject or object variable divides a
	// pattern's count by when the predicate is a variable or a path.
	unknownFanout = 8
	// filterKeeps is the share of a predicate's triples an eager ?o-op-number
	// filter on the pattern's free object is taken to keep when the constant
	// lies inside the predicate's numeric range. It is the same for every
	// constant on purpose: entries that differ only in a threshold get the same
	// join order on the same graph.
	filterKeeps = 1.0 / 3
)

// prepareStep resolves the constants of the block's i-th pattern and reads
// what its estimate needs, in O(1) on the index's offsets plus one binary
// search over the predicates: the exact count of the triples matching the
// constants (the graph's size for a path), the predicate's distinct subjects
// and objects, and its numeric range against the filters on the object.
func (ec *evalCtx) prepareStep(st *stepRun, b *blockProg, i int, filters []filterProg) {
	p := &b.pats[i]
	*st = stepRun{pat: p, no: i, perS: unknownFanout, perO: unknownFanout, objSel: 1}
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
		return
	case p.kind == patPath:
		st.count = float64(ec.g.Len())
		return
	}
	st.count = float64(ec.g.Count(st.sid, st.pid, st.oid))
	if p.kind != patSimple {
		return
	}
	ps := ec.g.PredStats(st.pid)
	if ps == nil {
		return
	}
	st.perS, st.perO = float64(ps.Subjects), float64(ps.Objects)
	for i := range filters {
		if f := &filters[i]; f.eager && f.cmpSlot == p.oSlot && f.cmpSlot != p.sSlot {
			st.objSel *= f.keeps(ps)
		}
	}
}

// keeps estimates the share of a predicate's triples whose object passes the
// ?o-op-number filter: none when the predicate's numeric objects all lie on
// the failing side of the constant, filterKeeps otherwise.
func (f *filterProg) keeps(ps *rdf.PredStats) float64 {
	c, none := f.cmpConst, false
	switch f.cmpOp {
	case OpLt:
		none = ps.Min >= c
	case OpLe:
		none = ps.Min > c
	case OpGt:
		none = ps.Max <= c
	case OpGe:
		none = ps.Max < c
	case OpEq:
		none = c < ps.Min || c > ps.Max
	}
	if none && ps.Min <= ps.Max { // no numeric object: no range to hold c against
		return 0
	}
	return filterKeeps
}

// cost estimates the rows the step puts out per row it is run on, given which
// variables are statically bound. Lower is better.
//
//	constant predicate: the exact count of the triples matching the pattern's
//	    constants, ÷ the predicate's distinct subjects for a bound subject
//	    variable, ÷ its distinct objects for a bound object variable, × what
//	    the filters on a free object keep (filterProg.keeps)
//	variable predicate: the count, × 1.5 while the predicate is unbound, ÷
//	    unknownFanout per bound subject or object variable
//	path: the graph's size, ÷ 4 with an end anchored and × 4 without, ÷
//	    unknownFanout per bound subject or object variable
func (st *stepRun) cost(bound uint64) float64 {
	if st.dead {
		return 0 // constant absent: zero results, run it first
	}
	p := st.pat
	sVar := p.sSlot >= 0 && bound&slotBit(p.sSlot) != 0
	oVar := p.oSlot >= 0 && bound&slotBit(p.oSlot) != 0
	est := st.count
	switch p.kind {
	case patPredVar:
		if bound&slotBit(p.pSlot) == 0 {
			est *= 1.5
		}
	case patPath:
		// Complex property path: expensive unless an endpoint is anchored.
		if sVar || p.sSlot < 0 || oVar || p.oSlot < 0 {
			est /= 4
		} else {
			est *= 4
		}
	}
	// A bound variable narrows the match to one of the predicate's subjects
	// (objects), whichever the row holds.
	if sVar {
		est /= st.perS
	}
	if oVar {
		est /= st.perO
	} else {
		est *= st.objSel
	}
	return est
}

// descend runs step d of the current block on ec.row and, through extend,
// every step after it. It reports false when the recursion is to stop: the
// evaluation was cancelled, or a witness was found (see blockRun.tail).
func (ec *evalCtx) descend(d int) bool {
	r := &ec.run
	if d == len(r.steps) {
		if !r.final {
			ec.tabs[r.out] = append(ec.tabs[r.out], ec.row...)
			return true
		}
		if ec.emit(r.filters, r.applied, ec.row, r.out, r.distinct) && r.tail < d {
			r.found = true
			return false
		}
		return true
	}
	if ec.cancel.check() != nil {
		return false
	}
	st := &r.steps[d]
	ec.joinRows++
	if ec.actuals != nil {
		ec.actuals[r.off+st.no].descends++
	}
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
// completed, and descends. It reports whether step d is to go on with its next
// match.
func (ec *evalCtx) extend(d int, ms, mo, mp rdf.ID) bool {
	r := &ec.run
	st := &r.steps[d]
	ec.matchRows++
	if ec.actuals != nil {
		ec.actuals[r.off+st.no].extends++
	}
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
		if !r.filters[bits.TrailingZeros64(f)].keep(ec, row) {
			return true
		}
	}
	if ec.descend(d + 1) {
		return true
	}
	// A witness below ends the steps of the tail; the last step before them
	// takes it for what it is — this match is done — and goes on.
	if r.found && d+1 == r.tail {
		r.found = false
		return true
	}
	return false
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
//
// No more than MaxRows rows materialize: the row past them sets Truncated
// and ends the pass, and the cut answer comes back with ErrRowCeiling.
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
		if rows = min(rows, MaxRows); rows > 0 {
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
		if kept-q.Offset > MaxRows {
			res.Truncated = true
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
	if res.Truncated {
		return res, ErrRowCeiling
	}
	return res, nil
}
