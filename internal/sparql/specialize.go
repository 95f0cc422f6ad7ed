package sparql

import (
	"fmt"
	"sort"
	"strings"

	"optimatch/internal/rdf"
)

// This file implements WHERE-clause evaluation. Matching runs entirely in
// the target graph's ID space: the query's constants were resolved to dense
// dictionary IDs when the evalCtx was built, and a solution is a []rdf.ID
// instead of a []rdf.Term, so extending a solution copies machine words
// instead of term structs, comparing bindings never hashes strings, and the
// GC sees no pointers inside solution rows. Terms synthesized by BIND (which
// may not exist in the graph) live in a per-evaluation side table addressed
// by IDs with the top bit set. Solutions are converted back to terms once,
// after the WHERE clause has finished — and only for the rows that survive
// DISTINCT and LIMIT/OFFSET when the projection is plain variables.

// extraIDBit marks IDs addressing the per-evaluation side table of terms
// that are not in the graph's dictionary. Graph dictionaries are per-plan
// and orders of magnitude smaller than 2^31 entries, so the bit is free.
const extraIDBit rdf.ID = 1 << 31

// isol is a solution in ID space: one graph dictionary ID (or side-table
// ID) per variable slot, rdf.NoID meaning unbound.
type isol []rdf.ID

type cachedFloat struct {
	f  float64
	ok bool
}

// floatOf is Term.Float for the term behind id, memoized per evaluation.
func (ec *evalCtx) floatOf(id rdf.ID) (float64, bool) {
	if v, hit := ec.floats[id]; hit {
		return v.f, v.ok
	}
	f, ok := ec.term(id).Float()
	if ec.floats == nil {
		ec.floats = make(map[rdf.ID]cachedFloat)
	}
	ec.floats[id] = cachedFloat{f, ok}
	return f, ok
}

// constID resolves a constant term through the pre-resolved table, falling
// back to the dictionary for terms the static analysis did not see (hand-
// assembled queries only).
func (ec *evalCtx) constID(t rdf.Term) rdf.ID {
	if id, ok := ec.constIDs[t]; ok {
		return id
	}
	return ec.g.Dict().Lookup(t)
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

// specView adapts an ID-space solution to the expression evaluator.
type specView struct {
	ec  *evalCtx
	sol isol
}

func (v specView) lookupVar(name string) (rdf.Term, bool) {
	i, ok := v.ec.varIndex[name]
	if !ok || i >= len(v.sol) {
		return rdf.Term{}, false
	}
	id := v.sol[i]
	if id == rdf.NoID {
		return rdf.Term{}, false
	}
	return v.ec.term(id), true
}

// projectIDs applies SELECT, DISTINCT, ORDER BY, LIMIT and OFFSET directly
// on ID-space solutions, doing what evalCtx.project does step for step (sort
// before dedup, same comparator, same stable order). It handles only
// projections and order keys that are plain variables — the shape of every
// pattern- and knowledge-base-compiled query — and reports false otherwise
// so the caller falls back to the term-space tail. The payoff is that terms
// materialize only for sort keys and for rows that survive DISTINCT and
// LIMIT/OFFSET; dictionary interning makes an ID tuple an exact stand-in
// for a term tuple in the DISTINCT probe.
func (ec *evalCtx) projectIDs(q *Query, sols []isol) (*Results, bool, error) {
	var vars []string
	var slots []int
	slotOf := func(name string) int {
		if i, ok := ec.varIndex[name]; ok {
			return i
		}
		return -1
	}
	if q.Star {
		for i, v := range ec.varNames {
			if !strings.HasPrefix(v, "!") {
				vars = append(vars, v)
				slots = append(slots, i)
			}
		}
	} else {
		for _, item := range q.Select {
			ve, ok := item.Expr.(VarExpr)
			if !ok {
				return nil, false, nil
			}
			vars = append(vars, item.Alias)
			slots = append(slots, slotOf(ve.Name))
		}
	}
	orderSlots := make([]int, len(q.OrderBy))
	for j, key := range q.OrderBy {
		ve, ok := key.Expr.(VarExpr)
		if !ok {
			return nil, false, nil
		}
		orderSlots[j] = slotOf(ve.Name)
	}

	at := func(s isol, slot int) rdf.ID {
		if slot >= 0 && slot < len(s) {
			return s[slot]
		}
		return rdf.NoID
	}

	if len(orderSlots) > 0 {
		type keyed struct {
			sol  isol
			keys []rdf.Term
		}
		ks := make([]keyed, len(sols))
		for i, s := range sols {
			keys := make([]rdf.Term, len(orderSlots))
			for j, slot := range orderSlots {
				if id := at(s, slot); id != rdf.NoID {
					keys[j] = ec.term(id)
				}
			}
			ks[i] = keyed{sol: s, keys: keys}
		}
		sort.SliceStable(ks, func(a, b int) bool {
			for j := range orderSlots {
				c := ks[a].keys[j].Compare(ks[b].keys[j])
				if q.OrderBy[j].Desc {
					c = -c
				}
				if c != 0 {
					return c < 0
				}
			}
			return false
		})
		for i := range ks {
			sols[i] = ks[i].sol
		}
	}

	idRows := make([]isol, 0, len(sols))
	var seen map[string]bool
	var keyBuf []byte
	if q.Distinct {
		seen = make(map[string]bool, len(sols))
	}
	for _, s := range sols {
		if err := ec.cancel.check(); err != nil {
			return nil, true, err
		}
		if q.Distinct {
			keyBuf = keyBuf[:0]
			for _, slot := range slots {
				id := at(s, slot)
				keyBuf = append(keyBuf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
			}
			if seen[string(keyBuf)] {
				continue
			}
			seen[string(keyBuf)] = true
		}
		row := make(isol, len(slots))
		for i, slot := range slots {
			row[i] = at(s, slot)
		}
		idRows = append(idRows, row)
	}

	if q.Offset > 0 {
		if q.Offset >= len(idRows) {
			idRows = nil
		} else {
			idRows = idRows[q.Offset:]
		}
	}
	if q.Limit >= 0 && q.Limit < len(idRows) {
		idRows = idRows[:q.Limit]
	}

	res := &Results{Vars: vars}
	if len(idRows) > 0 {
		res.Rows = make([][]rdf.Term, len(idRows))
		for i, r := range idRows {
			row := make([]rdf.Term, len(r))
			for j, id := range r {
				if id != rdf.NoID {
					row[j] = ec.term(id)
				}
			}
			res.Rows[i] = row
		}
	}
	return res, true, nil
}

// toTermSolutions converts ID-space solutions to term space for the shared
// projection/aggregation tail, padding rows to the final slot count.
func (ec *evalCtx) toTermSolutions(in []isol) []solution {
	out := make([]solution, len(in))
	for i, s := range in {
		ts := make(solution, len(ec.varNames))
		for j, id := range s {
			if id != rdf.NoID {
				ts[j] = ec.term(id)
			}
		}
		out[i] = ts
	}
	return out
}

// evalGroupIDs evaluates a group pattern seeded with the given solutions.
func (ec *evalCtx) evalGroupIDs(g *GroupPattern, seed []isol) ([]isol, error) {
	if len(seed) == 0 {
		return nil, nil
	}
	// Variables bound in every seed solution are statically available.
	bound := make(boundSet)
	for name, idx := range ec.varIndex {
		all := true
		for _, s := range seed {
			if idx >= len(s) || s[idx] == rdf.NoID {
				all = false
				break
			}
		}
		if all {
			bound[name] = true
		}
	}

	// Collect top-level filters; everything else evaluates in order with
	// consecutive triple patterns grouped into reorderable BGP blocks.
	var filters []*pendingFilter
	for _, el := range g.Elems {
		if f, ok := el.(FilterElem); ok {
			filters = append(filters, &pendingFilter{
				expr:  f.Expr,
				vars:  exprVars(f.Expr),
				eager: filterIsEager(f.Expr),
			})
		}
	}

	sols := seed
	var err error
	i := 0
	for i < len(g.Elems) {
		switch el := g.Elems[i].(type) {
		case FilterElem:
			i++ // collected above
		case TriplePattern:
			// Gather the maximal run of triple patterns (skipping filters,
			// which are group-scoped anyway).
			var block []TriplePattern
			for i < len(g.Elems) {
				if tp, ok := g.Elems[i].(TriplePattern); ok {
					block = append(block, tp)
					i++
					continue
				}
				if _, ok := g.Elems[i].(FilterElem); ok {
					i++
					continue
				}
				break
			}
			sols, err = ec.evalBGPIDs(block, sols, bound, filters)
			if err != nil {
				return nil, err
			}
		case OptionalElem:
			i++
			sols, err = ec.evalOptionalIDs(el, sols)
			if err != nil {
				return nil, err
			}
		case UnionElem:
			i++
			sols, err = ec.evalUnionIDs(el, sols)
			if err != nil {
				return nil, err
			}
			// Vars bound in every branch become statically bound.
			branchBound := ec.groupBoundVars(el.Branches[0])
			for _, b := range el.Branches[1:] {
				next := ec.groupBoundVars(b)
				for v := range branchBound {
					if !next[v] {
						delete(branchBound, v)
					}
				}
			}
			for v := range branchBound {
				bound[v] = true
			}
			sols = ec.applyReadyFiltersIDs(filters, bound, sols)
		case GroupElem:
			i++
			sols, err = ec.evalGroupIDs(el.Group, sols)
			if err != nil {
				return nil, err
			}
			for v := range ec.groupBoundVars(el.Group) {
				bound[v] = true
			}
			sols = ec.applyReadyFiltersIDs(filters, bound, sols)
		case FilterExistsElem:
			i++
			out := sols[:0]
			for _, s := range sols {
				res, eerr := ec.evalGroupIDs(el.Group, []isol{append(isol(nil), s...)})
				if eerr != nil {
					return nil, eerr
				}
				if (len(res) > 0) != el.Not {
					out = append(out, s)
				}
			}
			sols = out
		case BindElem:
			i++
			slot := ec.slot(el.Var)
			out := sols[:0]
			for _, s := range sols {
				v, verr := el.Expr.Eval(specView{ec, s})
				ns := append(isol(nil), s...)
				if verr == nil {
					if len(ns) <= slot {
						grown := make(isol, len(ec.varNames))
						copy(grown, ns)
						ns = grown
					}
					ns[slot] = ec.intern(v)
				}
				out = append(out, ns)
			}
			sols = out
			bound[el.Var] = true
			sols = ec.applyReadyFiltersIDs(filters, bound, sols)
		default:
			return nil, fmt.Errorf("sparql: unknown pattern element %T", el)
		}
	}

	// Apply any filters not yet applied; unbound variables make the filter
	// false (SPARQL error-as-false), dropping the solution.
	for _, f := range filters {
		if f.applied {
			continue
		}
		sols = ec.filterSolutionsIDs(f.expr, sols)
		f.applied = true
	}
	return sols, nil
}

func (ec *evalCtx) applyReadyFiltersIDs(filters []*pendingFilter, bound boundSet, sols []isol) []isol {
	for _, f := range filters {
		if f.applied || !f.eager || !bound.hasAll(f.vars) {
			continue
		}
		sols = ec.filterSolutionsIDs(f.expr, sols)
		f.applied = true
	}
	return sols
}

func (ec *evalCtx) filterSolutionsIDs(expr Expression, sols []isol) []isol {
	keep, fast := ec.fastFilter(expr)
	if !fast {
		keep = ec.genericFilter(expr)
	}
	out := sols[:0]
	for _, s := range sols {
		if keep(s) {
			out = append(out, s)
		}
	}
	return out
}

// genericFilter evaluates the expression through the shared evaluator; an
// evaluation error drops the row.
func (ec *evalCtx) genericFilter(expr Expression) func(isol) bool {
	return func(s isol) bool {
		ok, err := ebv(expr, specView{ec, s})
		return err == nil && ok
	}
}

// fastFilter compiles the two filter shapes that dominate pattern and
// knowledge-base queries — a variable compared against a numeric constant
// (FILTER(?card > 1000)) and variable (in)equality (FILTER(?a != ?b)) —
// into closures over ID-space solutions with memoized numeric parsing.
// Rows the closure cannot decide exactly fall back to the generic evaluator
// per row, so the semantics of CmpExpr.Eval are preserved bit for bit.
func (ec *evalCtx) fastFilter(expr Expression) (func(isol) bool, bool) {
	cmp, ok := expr.(CmpExpr)
	if !ok {
		return nil, false
	}

	// ?a op ?b, equality only (ordering mixes numeric and lexical compares;
	// leave it to the generic path).
	if lv, lok := cmp.L.(VarExpr); lok {
		if rv, rok := cmp.R.(VarExpr); rok && (cmp.Op == OpEq || cmp.Op == OpNeq) {
			li, liok := ec.varIndex[lv.Name]
			ri, riok := ec.varIndex[rv.Name]
			if !liok || !riok {
				return nil, false
			}
			return func(s isol) bool {
				lid, rid := s[li], s[ri]
				if lid == rdf.NoID || rid == rdf.NoID {
					return false // comparing an unbound var errors: row dropped
				}
				// Mirror CmpExpr.Eval: numeric comparison when both sides
				// parse as numbers, term value equality otherwise. Distinct
				// IDs are distinct terms (intern checks the dictionary
				// before the side table), so termValueEqual only runs on
				// distinct terms.
				lf, lnum := ec.floatOf(lid)
				rf, rnum := ec.floatOf(rid)
				var eq bool
				if lnum && rnum {
					eq = lf == rf
				} else {
					eq = lid == rid || termValueEqual(ec.term(lid), ec.term(rid))
				}
				return eq == (cmp.Op == OpEq)
			}, true
		}
	}

	// Numeric comparison: both sides compile to float evaluators
	// (variables, numeric literals, arithmetic over them). Rows where a
	// side is unbound or non-numeric re-evaluate generically, so error and
	// lexical-fallback semantics stay identical.
	lf, lok := ec.compileNumeric(cmp.L)
	rf, rok := ec.compileNumeric(cmp.R)
	if !lok || !rok {
		return nil, false
	}
	generic := ec.genericFilter(expr)
	return func(s isol) bool {
		l, ok := lf(s)
		if !ok {
			return generic(s)
		}
		r, ok := rf(s)
		if !ok {
			return generic(s)
		}
		return cmpFloat(cmp.Op, l, r)
	}, true
}

// numFn evaluates a numeric sub-expression against an ID-space solution.
// The bool result is false when the row needs the generic evaluator (an
// unbound variable, a non-numeric binding, division by zero).
type numFn func(s isol) (float64, bool)

// compileNumeric compiles the numeric expression fragment the FILTER
// grammar of patterns produces: variables, numeric literals, unary minus
// and the four arithmetic operators. ArithExpr evaluates in float64 and
// renders through rdf.Float, whose round-trip formatting makes computing
// directly on float64 exact.
func (ec *evalCtx) compileNumeric(e Expression) (numFn, bool) {
	switch e := e.(type) {
	case LitExpr:
		f, ok := e.Term.Float()
		if !ok {
			return nil, false
		}
		return func(isol) (float64, bool) { return f, true }, true
	case VarExpr:
		slot, ok := ec.varIndex[e.Name]
		if !ok {
			return nil, false
		}
		return func(s isol) (float64, bool) {
			id := s[slot]
			if id == rdf.NoID {
				return 0, false
			}
			return ec.floatOf(id)
		}, true
	case NegExpr:
		inner, ok := ec.compileNumeric(e.Inner)
		if !ok {
			return nil, false
		}
		return func(s isol) (float64, bool) {
			v, ok := inner(s)
			return -v, ok
		}, true
	case ArithExpr:
		l, lok := ec.compileNumeric(e.L)
		r, rok := ec.compileNumeric(e.R)
		if !lok || !rok {
			return nil, false
		}
		op := e.Op
		if op != '+' && op != '-' && op != '*' && op != '/' {
			return nil, false
		}
		return func(s isol) (float64, bool) {
			lv, ok := l(s)
			if !ok {
				return 0, false
			}
			rv, ok := r(s)
			if !ok {
				return 0, false
			}
			switch op {
			case '+':
				return lv + rv, true
			case '-':
				return lv - rv, true
			case '*':
				return lv * rv, true
			default:
				if rv == 0 {
					return 0, false // division by zero errors in ArithExpr
				}
				return lv / rv, true
			}
		}, true
	}
	return nil, false
}

func (ec *evalCtx) evalOptionalIDs(el OptionalElem, sols []isol) ([]isol, error) {
	var out []isol
	for _, s := range sols {
		res, err := ec.evalGroupIDs(el.Group, []isol{append(isol(nil), s...)})
		if err != nil {
			return nil, err
		}
		if len(res) > 0 {
			out = append(out, res...)
		} else {
			out = append(out, s)
		}
	}
	return out, nil
}

func (ec *evalCtx) evalUnionIDs(el UnionElem, sols []isol) ([]isol, error) {
	var out []isol
	for _, s := range sols {
		for _, branch := range el.Branches {
			res, err := ec.evalGroupIDs(branch, []isol{append(isol(nil), s...)})
			if err != nil {
				return nil, err
			}
			out = append(out, res...)
		}
	}
	return out, nil
}

// evalBGPIDs evaluates a block of triple patterns, reordering them greedily
// by estimated selectivity (unless disabled) and applying eager filters as
// soon as their variables become bound.
func (ec *evalCtx) evalBGPIDs(block []TriplePattern, sols []isol, bound boundSet, filters []*pendingFilter) ([]isol, error) {
	remaining := make([]TriplePattern, len(block))
	copy(remaining, block)

	for len(remaining) > 0 {
		idx := 0
		if !ec.opts.DisableReorder {
			best := ec.patternCostIDs(remaining[0], bound)
			for i := 1; i < len(remaining); i++ {
				if c := ec.patternCostIDs(remaining[i], bound); c < best {
					best = c
					idx = i
				}
			}
		}
		tp := remaining[idx]
		remaining = append(remaining[:idx], remaining[idx+1:]...)

		var err error
		sols, err = ec.extendTripleIDs(tp, sols)
		if err != nil {
			return nil, err
		}
		if tp.S.IsVar() {
			bound[tp.S.Var] = true
		}
		if tp.O.IsVar() {
			bound[tp.O.Var] = true
		}
		if pv, ok := tp.P.(predVarPath); ok {
			bound[pv.name] = true
		}
		sols = ec.applyReadyFiltersIDs(filters, bound, sols)
		if len(sols) == 0 {
			return nil, nil
		}
	}
	return sols, nil
}

// predCount memoizes the unbounded per-predicate triple count, the one
// Count combination that iterates an index bucket.
func (ec *evalCtx) predCount(pid rdf.ID) int {
	if n, ok := ec.predCard[pid]; ok {
		return n
	}
	if ec.predCard == nil {
		ec.predCard = make(map[rdf.ID]int)
	}
	n := ec.g.Count(rdf.NoID, pid, rdf.NoID)
	ec.predCard[pid] = n
	return n
}

// patternCostIDs estimates the result size of a triple pattern given which
// variables are statically bound. Lower is better.
func (ec *evalCtx) patternCostIDs(tp TriplePattern, bound boundSet) float64 {
	var sid, oid rdf.ID
	sBound := !tp.S.IsVar() || bound[tp.S.Var]
	oBound := !tp.O.IsVar() || bound[tp.O.Var]
	if !tp.S.IsVar() {
		sid = ec.constID(tp.S.Term)
		if sid == rdf.NoID {
			return 0 // constant absent: zero results, run it first
		}
	}
	if !tp.O.IsVar() {
		oid = ec.constID(tp.O.Term)
		if oid == rdf.NoID {
			return 0
		}
	}
	var base float64
	switch p := tp.P.(type) {
	case PredPath:
		pid := ec.constID(rdf.IRI(p.IRI))
		if pid == rdf.NoID {
			return 0
		}
		if sid == rdf.NoID && oid == rdf.NoID {
			base = float64(ec.predCount(pid))
		} else {
			base = float64(ec.g.Count(sid, pid, oid))
		}
	case predVarPath:
		base = float64(ec.g.Count(sid, rdf.NoID, oid))
		if !bound[p.name] {
			base *= 1.5
		}
	default:
		// Complex property path: expensive unless an endpoint is anchored.
		base = float64(ec.g.Len())
		if sBound || oBound {
			base /= 4
		} else {
			base *= 4
		}
	}
	// Bound variables narrow the match at execution time even though the
	// static estimate cannot see the concrete value.
	if sBound && tp.S.IsVar() {
		base /= 8
	}
	if oBound && tp.O.IsVar() {
		base /= 8
	}
	return base
}

// extendTripleIDs extends each solution with every match of tp. Bound
// variables are already graph IDs, so no dictionary lookups happen per
// solution, and emitted bindings are stored without materializing terms.
func (ec *evalCtx) extendTripleIDs(tp TriplePattern, sols []isol) ([]isol, error) {
	g := ec.g

	sSlot, oSlot := -1, -1
	if tp.S.IsVar() {
		sSlot = ec.slot(tp.S.Var)
	}
	if tp.O.IsVar() {
		oSlot = ec.slot(tp.O.Var)
	}
	pSlot := -1
	if pv, ok := tp.P.(predVarPath); ok {
		pSlot = ec.slot(pv.name)
	}

	var constS, constO rdf.ID
	if !tp.S.IsVar() {
		constS = ec.constID(tp.S.Term)
		if constS == rdf.NoID {
			return nil, nil
		}
	}
	if !tp.O.IsVar() {
		constO = ec.constID(tp.O.Term)
		if constO == rdf.NoID {
			return nil, nil
		}
	}
	var constP rdf.ID
	pp, simple := tp.P.(PredPath)
	if simple {
		constP = ec.constID(rdf.IRI(pp.IRI))
		if constP == rdf.NoID {
			return nil, nil
		}
	}

	var out []isol
	for _, s := range sols {
		if err := ec.cancel.check(); err != nil {
			return nil, err
		}
		sid, oid := constS, constO
		if sSlot >= 0 && s[sSlot] != rdf.NoID {
			sid = s[sSlot]
			if sid&extraIDBit != 0 {
				continue // synthesized term, not in this graph
			}
		}
		if oSlot >= 0 && s[oSlot] != rdf.NoID {
			oid = s[oSlot]
			if oid&extraIDBit != 0 {
				continue
			}
		}
		sameVar := tp.S.IsVar() && tp.O.IsVar() && tp.S.Var == tp.O.Var

		emit := func(ms, mo, mp rdf.ID) {
			if sameVar && ms != mo {
				return
			}
			ns := append(isol(nil), s...)
			if sSlot >= 0 {
				ns[sSlot] = ms
			}
			if oSlot >= 0 {
				ns[oSlot] = mo
			}
			if pSlot >= 0 {
				ns[pSlot] = mp
			}
			out = append(out, ns)
		}

		switch {
		case pSlot >= 0:
			pid := rdf.NoID
			if s[pSlot] != rdf.NoID {
				pid = s[pSlot]
				if pid&extraIDBit != 0 {
					continue
				}
			}
			g.Match(sid, pid, oid, func(ms, mp, mo rdf.ID) bool {
				emit(ms, mo, mp)
				return true
			})
		case simple:
			g.Match(sid, constP, oid, func(ms, _, mo rdf.ID) bool {
				emit(ms, mo, rdf.NoID)
				return true
			})
		default:
			seen := make(map[[2]rdf.ID]bool)
			evalPath(&ec.env, tp.P, sid, oid, func(ms, mo rdf.ID) bool {
				key := [2]rdf.ID{ms, mo}
				if seen[key] {
					return true
				}
				seen[key] = true
				emit(ms, mo, rdf.NoID)
				return true
			})
		}
	}
	return out, nil
}
