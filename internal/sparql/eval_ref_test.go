package sparql

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"optimatch/internal/rdf"
)

// This file holds the reference WHERE evaluator the ID-space evaluator is
// differentially tested against (FuzzEvalEquivalence, TestEvalEquivalence
// and the prefilter soundness test in soundness_test.go). It works in term
// space — a solution is a []rdf.Term and every bound variable is re-resolved
// against the dictionary per row — and it is deliberately plain: triple
// patterns join in textual order, there is no cost model, no required-constant
// bail-out, no compiled filters and no cancellation. It shares the variable
// slot table and the projection/aggregation tail (project, evalGrouped) with
// the evaluator under test; closures go through evalPath, whose own oracle is
// refEval in path_test.go.

// execReference evaluates q against g with the reference evaluator.
func execReference(q *Query, g *rdf.Graph) (*Results, error) {
	grouped, err := q.checkAggregation()
	if err != nil {
		return nil, err
	}
	ctx := acquireEvalCtx(g, q.Analysis().prog, ExecOptions{})
	sols, err := ctx.refEvalGroup(q.Where, []solution{ctx.emptySolution()})
	if err != nil {
		return nil, err
	}
	if grouped {
		return ctx.evalGrouped(q, sols)
	}
	return ctx.project(q, sols)
}

// slot is v's position in a solution.
func (ctx *evalCtx) slot(v string) int { return ctx.prog.varIndex[v] }

// boundSet tracks statically-bound variables during group evaluation.
type boundSet map[string]bool

func (b boundSet) hasAll(vars []string) bool {
	for _, v := range vars {
		if !b[v] {
			return false
		}
	}
	return true
}

// pendingFilter is a group-level filter awaiting application.
type pendingFilter struct {
	expr    Expression
	vars    []string
	eager   bool // safe to apply as soon as vars are statically bound
	applied bool
}

// groupBoundVars computes the variables a group binds in every solution it
// produces (conservatively: triple patterns and BINDs; OPTIONAL binds
// nothing; UNION binds the intersection of its branches).
func (ctx *evalCtx) groupBoundVars(g *GroupPattern) boundSet {
	out := make(boundSet)
	for _, el := range g.Elems {
		switch el := el.(type) {
		case TriplePattern:
			if el.S.IsVar() {
				out[el.S.Var] = true
			}
			if el.O.IsVar() {
				out[el.O.Var] = true
			}
			if pv, ok := el.P.(predVarPath); ok {
				out[pv.name] = true
			}
		case BindElem:
			out[el.Var] = true
		case GroupElem:
			for v := range ctx.groupBoundVars(el.Group) {
				out[v] = true
			}
		case UnionElem:
			common := ctx.groupBoundVars(el.Branches[0])
			for _, b := range el.Branches[1:] {
				next := ctx.groupBoundVars(b)
				for v := range common {
					if !next[v] {
						delete(common, v)
					}
				}
			}
			for v := range common {
				out[v] = true
			}
		}
	}
	return out
}

// refEvalGroup evaluates a group pattern seeded with the given solutions.
func (ctx *evalCtx) refEvalGroup(g *GroupPattern, seed []solution) ([]solution, error) {
	if len(seed) == 0 {
		return nil, nil
	}
	// Variables bound in every seed solution are statically available.
	bound := make(boundSet)
	for name, idx := range ctx.prog.varIndex {
		all := true
		for _, s := range seed {
			if s[idx].Zero() {
				all = false
				break
			}
		}
		if all {
			bound[name] = true
		}
	}

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
			sols = ctx.evalBGP(block, sols, bound, filters)
		case OptionalElem:
			i++
			sols, err = ctx.evalOptional(el, sols)
			if err != nil {
				return nil, err
			}
		case UnionElem:
			i++
			sols, err = ctx.evalUnion(el, sols)
			if err != nil {
				return nil, err
			}
			branchBound := ctx.groupBoundVars(el.Branches[0])
			for _, b := range el.Branches[1:] {
				next := ctx.groupBoundVars(b)
				for v := range branchBound {
					if !next[v] {
						delete(branchBound, v)
					}
				}
			}
			for v := range branchBound {
				bound[v] = true
			}
			sols = ctx.applyReadyFilters(filters, bound, sols)
		case GroupElem:
			i++
			sols, err = ctx.refEvalGroup(el.Group, sols)
			if err != nil {
				return nil, err
			}
			for v := range ctx.groupBoundVars(el.Group) {
				bound[v] = true
			}
			sols = ctx.applyReadyFilters(filters, bound, sols)
		case FilterExistsElem:
			i++
			out := sols[:0]
			for _, s := range sols {
				res, eerr := ctx.refEvalGroup(el.Group, []solution{append(solution(nil), s...)})
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
			slot := ctx.slot(el.Var)
			out := sols[:0]
			for _, s := range sols {
				v, verr := el.Expr.Eval(solView{ctx, s})
				ns := append(solution(nil), s...)
				if verr == nil {
					ns[slot] = v
				}
				out = append(out, ns)
			}
			sols = out
			bound[el.Var] = true
			sols = ctx.applyReadyFilters(filters, bound, sols)
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
		sols = ctx.filterSolutions(f.expr, sols)
		f.applied = true
	}
	return sols, nil
}

func (ctx *evalCtx) applyReadyFilters(filters []*pendingFilter, bound boundSet, sols []solution) []solution {
	for _, f := range filters {
		if f.applied || !f.eager || !bound.hasAll(f.vars) {
			continue
		}
		sols = ctx.filterSolutions(f.expr, sols)
		f.applied = true
	}
	return sols
}

func (ctx *evalCtx) filterSolutions(expr Expression, sols []solution) []solution {
	out := sols[:0]
	for _, s := range sols {
		ok, err := ebv(expr, solView{ctx, s})
		if err == nil && ok {
			out = append(out, s)
		}
	}
	return out
}

func (ctx *evalCtx) evalOptional(el OptionalElem, sols []solution) ([]solution, error) {
	var out []solution
	for _, s := range sols {
		res, err := ctx.refEvalGroup(el.Group, []solution{append(solution(nil), s...)})
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

func (ctx *evalCtx) evalUnion(el UnionElem, sols []solution) ([]solution, error) {
	var out []solution
	for _, s := range sols {
		for _, branch := range el.Branches {
			res, err := ctx.refEvalGroup(branch, []solution{append(solution(nil), s...)})
			if err != nil {
				return nil, err
			}
			out = append(out, res...)
		}
	}
	return out, nil
}

// evalBGP joins a block of triple patterns in textual order, applying eager
// filters as soon as their variables become bound.
func (ctx *evalCtx) evalBGP(block []TriplePattern, sols []solution, bound boundSet, filters []*pendingFilter) []solution {
	for _, tp := range block {
		sols = ctx.extendTriple(tp, sols)
		if tp.S.IsVar() {
			bound[tp.S.Var] = true
		}
		if tp.O.IsVar() {
			bound[tp.O.Var] = true
		}
		if pv, ok := tp.P.(predVarPath); ok {
			bound[pv.name] = true
		}
		sols = ctx.applyReadyFilters(filters, bound, sols)
	}
	return sols
}

// extendTriple extends each solution with every match of tp.
func (ctx *evalCtx) extendTriple(tp TriplePattern, sols []solution) []solution {
	g := ctx.g
	dict := g.Dict()

	sSlot, oSlot, pSlot := -1, -1, -1
	if tp.S.IsVar() {
		sSlot = ctx.slot(tp.S.Var)
	}
	if tp.O.IsVar() {
		oSlot = ctx.slot(tp.O.Var)
	}
	if pv, ok := tp.P.(predVarPath); ok {
		pSlot = ctx.slot(pv.name)
	}

	var constS, constO rdf.ID
	if !tp.S.IsVar() {
		constS = dict.Lookup(tp.S.Term)
		if constS == rdf.NoID {
			return nil
		}
	}
	if !tp.O.IsVar() {
		constO = dict.Lookup(tp.O.Term)
		if constO == rdf.NoID {
			return nil
		}
	}

	var out []solution
	for _, s := range sols {
		sid, oid := constS, constO
		if sSlot >= 0 && !s[sSlot].Zero() {
			sid = dict.Lookup(s[sSlot])
			if sid == rdf.NoID {
				continue // bound to a term not in this graph
			}
		}
		if oSlot >= 0 && !s[oSlot].Zero() {
			oid = dict.Lookup(s[oSlot])
			if oid == rdf.NoID {
				continue
			}
		}
		sameVar := tp.S.IsVar() && tp.O.IsVar() && tp.S.Var == tp.O.Var

		emit := func(ms, mo rdf.ID, mp rdf.ID) {
			if sameVar && ms != mo {
				return
			}
			ns := append(solution(nil), s...)
			if sSlot >= 0 {
				ns[sSlot] = dict.Term(ms)
			}
			if oSlot >= 0 {
				ns[oSlot] = dict.Term(mo)
			}
			if pSlot >= 0 {
				ns[pSlot] = dict.Term(mp)
			}
			out = append(out, ns)
		}

		if pSlot >= 0 {
			pid := rdf.NoID
			if !s[pSlot].Zero() {
				pid = dict.Lookup(s[pSlot])
				if pid == rdf.NoID {
					continue
				}
			}
			g.Match(sid, pid, oid, func(ms, mp, mo rdf.ID) bool {
				emit(ms, mo, mp)
				return true
			})
			continue
		}
		seen := make(map[[2]rdf.ID]bool)
		evalPath(&ctx.env, tp.P, sid, oid, func(ms, mo rdf.ID) bool {
			key := [2]rdf.ID{ms, mo}
			if seen[key] {
				return true
			}
			seen[key] = true
			emit(ms, mo, rdf.NoID)
			return true
		})
	}
	return out
}

// rowStrings renders result rows one string per row, in result order.
func rowStrings(r *Results) []string {
	out := make([]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		s := ""
		for _, t := range row {
			s += t.String() + "\x1f"
		}
		out = append(out, s)
	}
	return out
}

// totallyOrdered reports whether q's ORDER BY pins the row sequence of res
// (q's un-LIMITed result): every key is a plain projected variable, and no
// two adjacent rows tie on all keys unless they are the same row. Anything
// else leaves the order of tied rows to the join order, which the reference
// does not share with the evaluator under test.
func totallyOrdered(q *Query, res *Results) bool {
	if len(q.OrderBy) == 0 {
		return false
	}
	cols := make([]int, len(q.OrderBy))
	for i, key := range q.OrderBy {
		ve, ok := key.Expr.(VarExpr)
		if !ok {
			return false
		}
		cols[i] = -1
		if q.Star {
			cols[i] = res.Column(ve.Name)
		}
		for j, item := range q.Select {
			if sel, ok := item.Expr.(VarExpr); ok && sel == ve && item.Alias == ve.Name {
				cols[i] = j
			}
		}
		if cols[i] < 0 {
			return false
		}
	}
	for i := 1; i < len(res.Rows); i++ {
		tied := true
		for _, c := range cols {
			tied = tied && res.Rows[i-1][c].Compare(res.Rows[i][c]) == 0
		}
		if tied && !reflect.DeepEqual(res.Rows[i-1], res.Rows[i]) {
			return false
		}
	}
	return true
}

// requireEquivalent runs q through ExecOpts (with and without join
// reordering) and through execReference and fails unless all agree on the
// error, the column list and the rows. Rows compare as a sorted multiset,
// with LIMIT/OFFSET lifted, unless the ORDER BY is total on this graph (see
// totallyOrdered); then the row sequence must match exactly, and so must the
// LIMIT/OFFSET window. It reports whether the exact comparison ran.
func requireEquivalent(t *testing.T, q *Query, g *rdf.Graph) (exact bool) {
	t.Helper()
	compare := func(q *Query, exact bool) *Results {
		want, wantErr := execReference(q, g)
		for _, opts := range []ExecOptions{{}, {DisableReorder: true}} {
			got, err := q.ExecOpts(g, opts)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%+v: error %v, reference error %v", opts, err, wantErr)
			}
			if err != nil {
				continue
			}
			if !reflect.DeepEqual(got.Vars, want.Vars) {
				t.Fatalf("%+v: vars %v, reference %v", opts, got.Vars, want.Vars)
			}
			gotRows, wantRows := rowStrings(got), rowStrings(want)
			if !exact {
				sort.Strings(gotRows)
				sort.Strings(wantRows)
			}
			if !reflect.DeepEqual(gotRows, wantRows) {
				t.Fatalf("%+v (exact order: %v): rows diverge\n got: %q\nwant: %q", opts, exact, gotRows, wantRows)
			}
		}
		return want
	}
	full := *q
	full.Limit, full.Offset = -1, 0
	want := compare(&full, false)
	if want == nil || !totallyOrdered(&full, want) {
		return false
	}
	compare(&full, true)
	if q.Limit >= 0 || q.Offset > 0 {
		compare(q, true)
	}
	return true
}

// refSeedQueries are the hand-written equivalence cases over the plan
// vocabulary of evalTestGraph: the table of TestEvalEquivalence and the
// fixed queries FuzzEvalEquivalence runs over fuzzed graphs. ordered marks
// the queries whose ORDER BY is total on evalTestGraph.
var refSeedQueries = []struct {
	text    string
	ordered bool
}{
	{`SELECT ?pop WHERE { ?pop pred:hasPopType "TBSCAN" }`, false},
	{`SELECT ?pop ?t WHERE { ?pop pred:hasPopType ?t } ORDER BY ?t ?pop`, true},
	{`SELECT ?type WHERE {
	   ?pop pred:hasPopType ?type .
	   ?pop pred:hasEstimateCardinality ?card .
	   FILTER(?card > 100)
	 } ORDER BY ?type`, true},
	{`SELECT ?pop ?jt WHERE {
	   ?pop pred:hasPopType ?t .
	   OPTIONAL { ?pop pred:hasJoinType ?jt }
	 } ORDER BY ?pop`, true},
	{`SELECT ?pop WHERE {
	   { ?pop pred:hasPopType "TBSCAN" } UNION { ?pop pred:hasPopType "IXSCAN" }
	 } ORDER BY ?pop`, true},
	{`SELECT ?a ?b WHERE { ?a pred:hasChildPop+ ?b } ORDER BY ?a ?b`, true},
	{`SELECT ?a ?b WHERE { ?a (pred:hasOuterInputStream|pred:hasInnerInputStream)/pred:hasInnerInputStream ?b } ORDER BY ?a ?b`, true},
	{`SELECT ?pop WHERE {
	   ?pop pred:hasPopType ?t .
	   FILTER EXISTS { ?pop pred:hasEstimateCardinality ?c }
	 } ORDER BY ?pop`, true},
	{`SELECT ?t (COUNT(?pop) AS ?n) WHERE { ?pop pred:hasPopType ?t } GROUP BY ?t ORDER BY ?t`, true},
	{`SELECT ?pop ?double WHERE {
	   ?pop pred:hasEstimateCardinality ?c .
	   BIND(?c * 2 AS ?double)
	 } ORDER BY ?pop`, true},
	{`SELECT ?pop WHERE { ?pop pred:hasPopType "NO_SUCH_TYPE" }`, false},
	{`SELECT (COUNT(?pop) AS ?n) WHERE { ?pop pred:hasPopType "NO_SUCH_TYPE" }`, false},
}

// TestEvalEquivalence pins ExecOpts to the reference evaluator on a
// spread of hand-written queries — row for row where the query orders its
// result.
func TestEvalEquivalence(t *testing.T) {
	g := evalTestGraph()
	for _, c := range refSeedQueries {
		q, err := Parse(predPrefix + c.text)
		if err != nil {
			t.Fatalf("Parse(%s): %v", c.text, err)
		}
		if exact := requireEquivalent(t, q, g); exact != c.ordered {
			t.Errorf("%s: compared in exact order = %v, want %v", c.text, exact, c.ordered)
		}
	}
}
