package sparql

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"optimatch/internal/rdf"
)

// This file holds the reference WHERE evaluator the ID-space evaluator is
// differentially tested against (FuzzEvalEquivalence, TestEvalEquivalence
// and the required-constant soundness test in soundness_test.go). It works in term
// space — a solution is a []rdf.Term and every bound variable is re-resolved
// against the dictionary per row — and it is deliberately plain: triple
// patterns join in textual order, there is no cost model, no required-constant
// bail-out, no compiled filters and no cancellation. Its result tail
// (refProject, refEvalGrouped and what they call, at the end of this file) is
// the term-space tail production ran before it got its compiled one, moved
// here: it evaluates the query's own expressions per row and per group and
// shares with the evaluator under test only Expression.Eval, Term.Compare and
// the helpers that read query text (checkAggregation, walkExpr, aggKey). The
// variable slot table is shared too; closures go through evalPath, whose own
// oracle is refEval in path_test.go.

// execReference evaluates q against g with the reference evaluator.
func execReference(q *Query, g *rdf.Graph) (*Results, error) {
	ctx, sols, err := refSolutions(q, g)
	if err != nil {
		return nil, err
	}
	return ctx.refTail(q, sols), nil
}

// refSolutions evaluates q's WHERE clause.
func refSolutions(q *Query, g *rdf.Graph) (*evalCtx, []solution, error) {
	if _, err := q.checkAggregation(); err != nil {
		return nil, nil, err
	}
	ctx := acquireEvalCtx(g, q.Analysis().prog, ExecOptions{})
	sols, err := ctx.refEvalGroup(q.Where, []solution{ctx.emptySolution()})
	return ctx, sols, err
}

// refTail turns the WHERE clause's solutions into q's result. sols is only
// read.
func (ctx *evalCtx) refTail(q *Query, sols []solution) *Results {
	if grouped, _ := q.checkAggregation(); grouped {
		return ctx.refEvalGrouped(q, sols)
	}
	return ctx.refProject(q, sols)
}

// solution is a variable assignment in term space, indexed by the program's
// variable slots. A zero Term means unbound.
type solution []rdf.Term

func (ctx *evalCtx) emptySolution() solution {
	return make(solution, len(ctx.prog.vars))
}

// solView adapts a solution to the expression evaluator's bindingView.
type solView struct {
	ec  *evalCtx
	sol solution
}

func (v solView) lookupVar(name string) (rdf.Term, bool) {
	i, ok := v.ec.prog.varIndex[name]
	if !ok {
		return rdf.Term{}, false
	}
	t := v.sol[i]
	if t.Zero() {
		return rdf.Term{}, false
	}
	return t, true
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

// totallyOrdered reports whether q's ORDER BY pins the row sequence of q's
// un-LIMITed result on g: the reference tail must produce the same sequence
// from the same solutions arriving back to front. Its sort being stable, two
// rows that tie on every key trade places then — as do two groups, and the
// solutions a group reads its ungrouped variables from — so the sequences
// agree only where no tie is left for the join order to break. The keys may
// be anything: aliases, expressions, variables not projected.
func totallyOrdered(q *Query, g *rdf.Graph) bool {
	if len(q.OrderBy) == 0 {
		return false
	}
	ctx, sols, err := refSolutions(q, g)
	if err != nil {
		return false
	}
	forth := rowStrings(ctx.refTail(q, sols))
	slices.Reverse(sols)
	return reflect.DeepEqual(forth, rowStrings(ctx.refTail(q, sols)))
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
	if want == nil || !totallyOrdered(&full, g) {
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

	// The witness-only tail of a DISTINCT join (blockRun.tail). An unprojected
	// cross product whose filter turns down some witnesses before it takes
	// one:
	{`SELECT DISTINCT ?pop WHERE {
	   ?pop pred:hasPopType ?t .
	   ?pop pred:hasEstimateCardinality ?c .
	   ?other pred:hasEstimateCardinality ?oc .
	   FILTER(?c > 2 * ?oc)
	 } ORDER BY ?pop`, true},
	// a filter that waits for the leaf (BOUND) turns them down there — the
	// first for pop 2, the first two for pop 5:
	{`SELECT DISTINCT ?pop WHERE {
	   ?pop pred:hasEstimateCardinality ?c .
	   ?other pred:hasEstimateCardinality ?oc .
	   FILTER(BOUND(?oc) && ?c * 2 < ?oc)
	 } ORDER BY ?pop`, true},
	// the projected variable comes in with the seed row, the whole last block
	// is tail:
	{`SELECT DISTINCT ?pop WHERE {
	   { ?pop pred:hasPopType ?t }
	   ?a pred:hasChildPop ?b .
	   ?b pred:hasEstimateCardinality ?c .
	   FILTER(?c > 100)
	 } ORDER BY ?pop`, true},
	// it is bound by the last pattern as written, no tail in that order:
	{`SELECT DISTINCT ?c WHERE { ?a pred:hasChildPop ?b . ?b pred:hasEstimateCardinality ?c } ORDER BY ?c`, true},
	// a BIND that fails (?n is never bound) names it as its target and leaves
	// it to the last block to bind:
	{`SELECT DISTINCT ?n ?x WHERE { BIND(?n + 1 AS ?x) ?a pred:hasPopType ?x } ORDER BY ?n ?x`, true},
	// its slot is past the 64 a bitmask tracks:
	{`SELECT DISTINCT ?pop WHERE { ` + wideOptional + ` ?pop pred:hasPopType ?t . ?x pred:hasChildPop ?y } ORDER BY ?pop`, true},
	// one of two is bound under an OPTIONAL, in some seed rows only:
	{`SELECT DISTINCT ?pop ?jt WHERE {
	   ?pop pred:hasPopType ?t .
	   OPTIONAL { ?pop pred:hasJoinType ?jt }
	   ?pop pred:hasChildPop ?c .
	   ?c pred:hasEstimateCardinality ?n
	 } ORDER BY ?pop ?jt`, true},

	// FILTER [NOT] EXISTS run as a filter (compiler.hoistExists). Sharing one
	// variable bound early, inside a block it would otherwise split:
	{`SELECT ?pop ?c WHERE {
	   ?pop pred:hasPopType ?t .
	   ?pop pred:hasChildPop ?c .
	   FILTER NOT EXISTS { ?pop pred:hasJoinType ?j }
	   ?c pred:hasEstimateCardinality ?n .
	 } ORDER BY ?pop ?c`, true},
	// one EXISTS nested in another, both hoisted:
	{`SELECT ?a ?b WHERE {
	   ?a pred:hasChildPop ?b .
	   FILTER EXISTS { ?b pred:hasChildPop ?c . FILTER NOT EXISTS { ?c pred:hasChildPop ?d } }
	   ?a pred:hasPopType ?t .
	 } ORDER BY ?a ?b`, true},
	// a hoisted group of two elements — its second block is seeded from a
	// table, over the binding row the enclosing recursion is working on — and
	// a projected variable only it binds, which must come out unbound:
	{`SELECT ?pop ?c ?e WHERE {
	   ?pop pred:hasPopType ?t .
	   ?pop pred:hasChildPop ?c .
	   FILTER EXISTS { { ?pop pred:hasEstimateCardinality ?e } ?c pred:hasPopType ?ct }
	   ?c pred:hasEstimateCardinality ?n .
	 } ORDER BY ?pop ?c`, true},
	// and the ones that must stay where they are written: ?t is bound by a
	// later pattern — the one the estimates run first (no operator lacks a
	// type, so no row passes; run as a filter, with ?t bound to NLJOIN, every
	// child would),
	{`SELECT ?b ?t WHERE {
	   ?a pred:hasChildPop ?b .
	   FILTER NOT EXISTS { ?b pred:hasPopType ?t }
	   <http://optimatch/qep/pop/2> pred:hasPopType ?t .
	 } ORDER BY ?b`, true},
	// ?c is bound only under an OPTIONAL (the join keeps its two children: none
	// estimates 19.12 rows; with ?c unbound, one estimates something),
	{`SELECT ?a ?c ?b WHERE {
	   ?a pred:hasPopType ?t .
	   OPTIONAL { ?a pred:hasEstimateCardinality ?c }
	   FILTER NOT EXISTS { ?a pred:hasChildPop ?k . ?k pred:hasEstimateCardinality ?c }
	   ?a pred:hasChildPop ?b .
	 } ORDER BY ?a ?b`, true},
	// ?x is bound early but assigned again by a BIND before the EXISTS reads
	// it (no operator has a lower-case type: no row passes; run as a filter on
	// the first pattern, with the type as the graph spells it, all would),
	{`SELECT ?c ?x WHERE {
	   ?c pred:hasPopType ?x .
	   BIND(LCASE(?x) AS ?x)
	   FILTER EXISTS { ?b pred:hasPopType ?x }
	   ?c pred:hasChildPop ?k .
	 } ORDER BY ?c ?k`, true},
	// ?n, bound later, is read by nothing but a BIND expression of the group.
	{`SELECT ?a ?n WHERE {
	   ?a pred:hasPopType ?t .
	   FILTER EXISTS { BIND(?n * 1 AS ?m) ?x pred:hasEstimateCardinality ?m }
	   ?a pred:hasEstimateCardinality ?n .
	 } ORDER BY ?a`, true},
}

// wideOptional is an OPTIONAL that matches nothing and mentions 64 variables:
// written first in a WHERE clause it takes slots 0-63, and every variable
// after it gets a slot no bitmask tracks.
var wideOptional = func() string {
	s := "OPTIONAL { "
	for i := 0; i < 64; i += 2 {
		s += fmt.Sprintf("?wide%d pred:hasNoSuchPredicate ?wide%d . ", i, i+1)
	}
	return s + "}"
}()

// TestEvalEquivalence pins ExecOpts to the reference evaluator on a
// spread of hand-written queries — row for row where the query orders its
// result.
func TestEvalEquivalence(t *testing.T) {
	g := evalTestGraph()
	for i, c := range refSeedQueries {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			q, err := Parse(predPrefix + c.text)
			if err != nil {
				t.Fatalf("Parse(%s): %v", c.text, err)
			}
			if exact := requireEquivalent(t, q, g); exact != c.ordered {
				t.Errorf("%s: compared in exact order = %v, want %v", c.text, exact, c.ordered)
			}
		})
	}
}

// The reference result tail. It works on term-space solutions and on the
// query's own expression trees: aggregates are computed per group into a map
// and substituted into each expression as literals, group keys and DISTINCT
// sets are rendered strings.

// refRow is one row on its way through the reference tail: the solution ORDER
// BY keys are read from (a group's first solution in grouped queries), the
// group's aggregate values, the projected cells and the sort keys.
type refRow struct {
	sol    solution
	values map[string]rdf.Term
	cells  []rdf.Term
	keys   []rdf.Term
}

// orderView is what an ORDER BY key reads: the solution and, under a name the
// WHERE clause does not mention, the first projected column of that name.
type orderView struct {
	solView
	q     *Query
	cells []rdf.Term
}

func (v orderView) lookupVar(name string) (rdf.Term, bool) {
	for _, w := range v.q.Where.Vars() {
		if w == name {
			return v.solView.lookupVar(name)
		}
	}
	for i, item := range v.q.Select {
		if item.Alias == name {
			return v.cells[i], !v.cells[i].Zero()
		}
	}
	return v.solView.lookupVar(name)
}

// refProject applies SELECT and hands the rows to refFinish.
func (ctx *evalCtx) refProject(q *Query, sols []solution) *Results {
	var vars []string
	var exprs []Expression
	if q.Star {
		for _, v := range ctx.prog.vars {
			if !strings.HasPrefix(v, "!") {
				vars = append(vars, v)
				exprs = append(exprs, VarExpr{Name: v})
			}
		}
	} else {
		for _, item := range q.Select {
			vars = append(vars, item.Alias)
			exprs = append(exprs, item.Expr)
		}
	}
	rows := make([]refRow, len(sols))
	for i, s := range sols {
		cells := make([]rdf.Term, len(exprs))
		for j, e := range exprs {
			if v, err := e.Eval(solView{ctx, s}); err == nil {
				cells[j] = v
			}
		}
		rows[i] = refRow{sol: s, cells: cells}
	}
	return ctx.refFinish(q, vars, rows)
}

// refFinish applies ORDER BY, DISTINCT, OFFSET and LIMIT to projected rows.
func (ctx *evalCtx) refFinish(q *Query, vars []string, rows []refRow) *Results {
	if len(q.OrderBy) > 0 {
		for i := range rows {
			rows[i].keys = make([]rdf.Term, len(q.OrderBy))
			for j, ok := range q.OrderBy {
				expr := refSubstituteAggregates(ok.Expr, rows[i].values)
				view := orderView{solView{ctx, rows[i].sol}, q, rows[i].cells}
				if v, err := expr.Eval(view); err == nil {
					rows[i].keys[j] = v
				}
			}
		}
		sort.SliceStable(rows, func(a, b int) bool {
			for j := range q.OrderBy {
				c := rows[a].keys[j].Compare(rows[b].keys[j])
				if q.OrderBy[j].Desc {
					c = -c
				}
				if c != 0 {
					return c < 0
				}
			}
			return false
		})
	}

	res := &Results{Vars: vars}
	seen := make(map[string]bool)
	for _, row := range rows {
		if q.Distinct {
			key := fmt.Sprintf("%#v", row.cells)
			if seen[key] {
				continue
			}
			seen[key] = true
		}
		res.Rows = append(res.Rows, row.cells)
	}
	if q.Offset > 0 {
		if q.Offset >= len(res.Rows) {
			res.Rows = nil
		} else {
			res.Rows = res.Rows[q.Offset:]
		}
	}
	if q.Limit >= 0 && q.Limit < len(res.Rows) {
		res.Rows = res.Rows[:q.Limit]
	}
	return res
}

// refSubstituteAggregates returns a copy of e with every AggExpr replaced by
// the literal its computed value, looked up by the aggregate's key.
func refSubstituteAggregates(e Expression, values map[string]rdf.Term) Expression {
	switch e := e.(type) {
	case AggExpr:
		if v, ok := values[aggKey(e)]; ok {
			return LitExpr{Term: v}
		}
		return e
	case NotExpr:
		return NotExpr{Inner: refSubstituteAggregates(e.Inner, values)}
	case NegExpr:
		return NegExpr{Inner: refSubstituteAggregates(e.Inner, values)}
	case AndExpr:
		return AndExpr{L: refSubstituteAggregates(e.L, values), R: refSubstituteAggregates(e.R, values)}
	case OrExpr:
		return OrExpr{L: refSubstituteAggregates(e.L, values), R: refSubstituteAggregates(e.R, values)}
	case CmpExpr:
		return CmpExpr{Op: e.Op, L: refSubstituteAggregates(e.L, values), R: refSubstituteAggregates(e.R, values)}
	case ArithExpr:
		return ArithExpr{Op: e.Op, L: refSubstituteAggregates(e.L, values), R: refSubstituteAggregates(e.R, values)}
	case CallExpr:
		args := make([]Expression, len(e.Args))
		for i, a := range e.Args {
			args[i] = refSubstituteAggregates(a, values)
		}
		return CallExpr{Name: e.Name, Args: args}
	default:
		return e
	}
}

// refComputeAggregate evaluates one aggregate over a group of solutions.
func refComputeAggregate(ctx *evalCtx, agg AggExpr, group []solution) (rdf.Term, error) {
	if agg.Fn == "COUNT" && agg.Star {
		return rdf.Int(int64(len(group))), nil
	}
	var values []rdf.Term
	var seen map[string]bool
	if agg.Distinct {
		seen = make(map[string]bool)
	}
	for _, s := range group {
		v, err := agg.Arg.Eval(solView{ctx, s})
		if err != nil {
			continue // per SPARQL, error rows are skipped by aggregates
		}
		if agg.Distinct {
			k := v.String()
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		values = append(values, v)
	}
	switch agg.Fn {
	case "COUNT":
		return rdf.Int(int64(len(values))), nil
	case "SUM", "AVG":
		sum := 0.0
		n := 0
		for _, v := range values {
			f, ok := v.Float()
			if !ok {
				return rdf.Term{}, fmt.Errorf("%w: %s over non-numeric value %s", errType, agg.Fn, v)
			}
			sum += f
			n++
		}
		if agg.Fn == "SUM" {
			return rdf.Float(sum), nil
		}
		if n == 0 {
			return rdf.Term{}, fmt.Errorf("%w: AVG over empty group", errType)
		}
		return rdf.Float(sum / float64(n)), nil
	case "MIN", "MAX":
		if len(values) == 0 {
			return rdf.Term{}, fmt.Errorf("%w: %s over empty group", errType, agg.Fn)
		}
		best := values[0]
		for _, v := range values[1:] {
			c := v.Compare(best)
			if (agg.Fn == "MIN" && c < 0) || (agg.Fn == "MAX" && c > 0) {
				best = v
			}
		}
		return best, nil
	default:
		return rdf.Term{}, fmt.Errorf("%w: unknown aggregate %s", errType, agg.Fn)
	}
}

// refGroupSolutions partitions the solutions by the GROUP BY variables. With
// no GROUP BY, all solutions form one group (even an empty one, so that
// COUNT(*) over no matches yields 0).
func refGroupSolutions(ctx *evalCtx, groupBy []string, sols []solution) [][]solution {
	if len(groupBy) == 0 {
		return [][]solution{sols}
	}
	index := make(map[string]int)
	var groups [][]solution
	for _, s := range sols {
		var key strings.Builder
		for _, v := range groupBy {
			key.WriteString(s[ctx.slot(v)].String())
			key.WriteByte('\x1f')
		}
		k := key.String()
		gi, ok := index[k]
		if !ok {
			gi = len(groups)
			index[k] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], s)
	}
	return groups
}

// refEvalGrouped performs grouping, aggregation, HAVING and SELECT for queries
// that use GROUP BY or aggregates (and passed checkAggregation).
func (ctx *evalCtx) refEvalGrouped(q *Query, sols []solution) *Results {
	// Collect every aggregate instance used anywhere.
	aggs := make(map[string]AggExpr)
	collect := func(e Expression) {
		walkExpr(e, func(sub Expression) {
			if agg, ok := sub.(AggExpr); ok {
				aggs[aggKey(agg)] = agg
			}
		})
	}
	var vars []string
	for _, item := range q.Select {
		vars = append(vars, item.Alias)
		collect(item.Expr)
	}
	if q.Having != nil {
		collect(q.Having)
	}
	for _, key := range q.OrderBy {
		collect(key.Expr)
	}

	var rows []refRow
	for _, g := range refGroupSolutions(ctx, q.GroupBy, sols) {
		values := make(map[string]rdf.Term, len(aggs))
		for key, agg := range aggs {
			v, err := refComputeAggregate(ctx, agg, g)
			if err != nil {
				continue // unbound aggregate: projection yields unbound
			}
			values[key] = v
		}
		rep := ctx.emptySolution() // representative solution for grouped vars
		if len(g) > 0 {
			rep = g[0]
		}
		if q.Having != nil {
			ok, err := ebv(refSubstituteAggregates(q.Having, values), solView{ctx, rep})
			if err != nil || !ok {
				continue
			}
		}
		cells := make([]rdf.Term, len(q.Select))
		for i, item := range q.Select {
			expr := refSubstituteAggregates(item.Expr, values)
			if v, err := expr.Eval(solView{ctx, rep}); err == nil {
				cells[i] = v
			}
		}
		rows = append(rows, refRow{sol: rep, values: values, cells: cells})
	}
	return ctx.refFinish(q, vars, rows)
}
