package sparql

import (
	"cmp"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"optimatch/internal/rdf"
)

// This file holds the algebra oracle the ID-space evaluator is differentially
// tested against (FuzzEvalEquivalence, TestEvalEquivalence and the
// required-constant soundness test in soundness_test.go), and the reference
// result tail it feeds. The oracle is SPARQL 1.1's evaluation semantics over
// solution sequences (§18.5), bottom-up: a group is translated as §18.2.2.6
// does — its elements joined left to right, an OPTIONAL as a LeftJoin whose
// condition is the OPTIONAL's own top-level filters, a BIND as an Extend, the
// group's filters applied to its whole result —, every operand is evaluated on
// its own, never seeded with the rows of what precedes it, and EXISTS is
// evaluated by substitution (§18.6). Production runs the same queries
// top-down; Parse refuses the shapes on which the two could differ (the
// compiler's scope check). The oracle reads the graph through its triple listing and
// refEval (path_test.go) only, and the query through the AST, Expression.Eval
// and term comparison: it calls nothing of the compiler, the evaluator or the
// path walker. Its joins are nested loops, left operand outside, and a triple
// pattern lists its matches in insertion order: where production runs every
// step anchored in textual order, the two row sequences agree.
//
// The result tail (refProject, refEvalGrouped and what they call, at the end
// of this file) is the term-space tail production ran before it got its
// compiled one, moved here: it evaluates the query's own expressions per row
// and per group and shares with the evaluator under test only
// Expression.Eval, Term.Compare and the helpers that read query text
// (checkAggregation, walkExpr, aggKey).

// execReference evaluates q against g with the oracle and the reference tail.
func execReference(q *Query, g *rdf.Graph) *Results {
	return refTail(q, refSolutions(q, g))
}

// refSolutions evaluates q's WHERE clause.
func refSolutions(q *Query, g *rdf.Graph) []solution {
	o := &oracle{g: g, triples: g.Triples()}
	return o.group(q.Where, nil)
}

// refTail turns the WHERE clause's solutions into q's result. sols is only
// read.
func refTail(q *Query, sols []solution) *Results {
	if grouped, _ := q.checkAggregation(); grouped {
		return refEvalGrouped(q, sols)
	}
	return refProject(q, sols)
}

// solution is a solution mapping: a variable it has no entry for is unbound.
type solution = mapView

type oracle struct {
	g       *rdf.Graph
	triples []rdf.Triple // the graph's triple listing, in insertion order
}

// group evaluates g. env is what an enclosing EXISTS substitutes: a triple
// match disagreeing with it is none, an expression reads it where the
// solution does not bind.
func (o *oracle) group(g *GroupPattern, env solution) []solution {
	sols, filters := []solution{{}}, []PatternElem(nil)
	for _, el := range g.Elems {
		switch el := el.(type) {
		case FilterElem, FilterExistsElem:
			filters = append(filters, el)
		case TriplePattern:
			sols = join(sols, o.triple(el, env))
		case GroupElem:
			sols = join(sols, o.group(el.Group, env))
		case UnionElem:
			var union []solution
			for _, b := range el.Branches {
				union = append(union, o.group(b, env)...)
			}
			sols = join(sols, union)
		case OptionalElem:
			p, cond := &GroupPattern{}, []PatternElem(nil)
			for _, e := range el.Group.Elems {
				if isFilter(e) {
					cond = append(cond, e)
				} else {
					p.Elems = append(p.Elems, e)
				}
			}
			kept := make([][]solution, len(sols))
			eachMerge(sols, o.group(p, env), func(i int, m solution) {
				if o.keep(cond, m, env) {
					kept[i] = append(kept[i], m)
				}
			})
			var out []solution
			for i, l := range sols {
				if len(kept[i]) == 0 {
					kept[i] = []solution{l}
				}
				out = append(out, kept[i]...)
			}
			sols = out
		case BindElem:
			for i, s := range sols {
				if v, err := el.Expr.Eval(over(env, s)); err == nil {
					sols[i] = maps.Clone(s)
					sols[i][el.Var] = v
				}
			}
		}
	}
	return slices.DeleteFunc(sols, func(s solution) bool { return !o.keep(filters, s, env) })
}

// keep reports whether s passes every filter: a FILTER's expression, an
// EXISTS's group evaluated with s substituted.
func (o *oracle) keep(filters []PatternElem, s, env solution) bool {
	for _, f := range filters {
		switch f := f.(type) {
		case FilterElem:
			if ok, err := ebv(f.Expr, over(env, s)); err != nil || !ok {
				return false
			}
		case FilterExistsElem:
			if (len(o.group(f.Group, over(env, s))) > 0) == f.Not {
				return false
			}
		}
	}
	return true
}

// over is s with env's bindings added; the two agree where both bind.
func over(env, s solution) solution {
	if len(env) == 0 {
		return s
	}
	m := maps.Clone(env)
	maps.Copy(m, s)
	return m
}

// triple evaluates one triple pattern over the triple listing, or a property
// path's relation sorted by ID.
func (o *oracle) triple(tp TriplePattern, env solution) []solution {
	p, candidates := NodeRef{}, o.triples // p: what a candidate's predicate must match
	switch path := tp.P.(type) {
	case PredPath:
		p = TermRef(rdf.IRI(path.IRI))
	case predVarPath:
		p = VarRef(path.name)
	default:
		var ids [][2]rdf.ID
		for k := range refEval(o.g, path) {
			ids = append(ids, k)
		}
		slices.SortFunc(ids, func(a, b [2]rdf.ID) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) })
		candidates = nil
		for _, k := range ids {
			candidates = append(candidates, rdf.Triple{S: o.g.Dict().Term(k[0]), O: o.g.Dict().Term(k[1])})
		}
	}
	var out []solution
	for _, t := range candidates {
		if !tp.S.IsVar() && tp.S.Term != t.S || !p.IsVar() && p.Term != t.P || !tp.O.IsVar() && tp.O.Term != t.O {
			continue
		}
		if sol := (solution{}); bind(sol, env, tp.S, t.S) && bind(sol, env, p, t.P) && bind(sol, env, tp.O, t.O) {
			out = append(out, sol)
		}
	}
	return out
}

// bind binds n to t in sol, unless sol or env binds it otherwise.
func bind(sol, env solution, n NodeRef, t rdf.Term) bool {
	if !n.IsVar() {
		return n.Term == t
	}
	if u, ok := sol[n.Var]; ok { // ?x p ?x
		return u == t
	}
	if u, ok := env[n.Var]; ok && u != t {
		return false
	}
	sol[n.Var] = t
	return true
}

// join is Join(l, r).
func join(l, r []solution) []solution {
	var out []solution
	eachMerge(l, r, func(_ int, m solution) { out = append(out, m) })
	return out
}

// eachMerge calls f(i, μ1 ∪ μ2) for every compatible μ1 = l[i] and μ2 of r,
// in nested-loop order. r is indexed on a variable every solution of both
// sides binds, where there is one: only the μ2 that agree on it can qualify.
func eachMerge(l, r []solution, f func(i int, m solution)) {
	candidates := func(solution) []solution { return r }
	if v, ok := sharedVar(l, r); ok {
		index := map[rdf.Term][]solution{}
		for _, b := range r {
			index[b[v]] = append(index[b[v]], b)
		}
		candidates = func(a solution) []solution { return index[a[v]] }
	}
	for i, a := range l {
	next:
		for _, b := range candidates(a) {
			for v, t := range b {
				if u, ok := a[v]; ok && u != t {
					continue next
				}
			}
			m := maps.Clone(a)
			maps.Copy(m, b)
			f(i, m)
		}
	}
}

// sharedVar returns a variable every solution of l and of r binds.
func sharedVar(l, r []solution) (string, bool) {
	if len(l) == 0 || len(r) == 0 {
		return "", false
	}
	unbound := func(v string) func(solution) bool {
		return func(s solution) bool { _, ok := s[v]; return !ok }
	}
	for v := range r[0] {
		if !slices.ContainsFunc(l, unbound(v)) && !slices.ContainsFunc(r, unbound(v)) {
			return v, true
		}
	}
	return "", false
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
	sols := refSolutions(q, g)
	forth := rowStrings(refTail(q, sols))
	slices.Reverse(sols)
	return reflect.DeepEqual(forth, rowStrings(refTail(q, sols)))
}

// requireEquivalent runs q through ExecOpts (with and without join
// reordering) and through execReference and fails unless all agree on the
// column list and the rows. Rows compare as a sorted multiset,
// with LIMIT/OFFSET lifted, unless the ORDER BY is total on this graph (see
// totallyOrdered); then the row sequence must match exactly, and so must the
// LIMIT/OFFSET window. It reports whether the exact comparison ran.
func requireEquivalent(t *testing.T, q *Query, g *rdf.Graph) (exact bool) {
	t.Helper()
	compare := func(q *Query, exact bool) *Results {
		want := execReference(q, g)
		for _, opts := range []ExecOptions{{}, {DisableReorder: true}} {
			got, err := q.ExecOpts(g, opts)
			if err != nil {
				t.Fatalf("%+v: %v", opts, err)
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
	compare(&full, false)
	if !totallyOrdered(&full, g) {
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

	// FILTER [NOT] EXISTS is a filter of its group (compiler.group), run once
	// the variables it shares with the group are bound, or at the group's end.
	// Sharing one variable bound early, inside a block:
	{`SELECT ?pop ?c WHERE {
	   ?pop pred:hasPopType ?t .
	   ?pop pred:hasChildPop ?c .
	   FILTER NOT EXISTS { ?pop pred:hasJoinType ?j }
	   ?c pred:hasEstimateCardinality ?n .
	 } ORDER BY ?pop ?c`, true},
	// one EXISTS nested in another:
	{`SELECT ?a ?b WHERE {
	   ?a pred:hasChildPop ?b .
	   FILTER EXISTS { ?b pred:hasChildPop ?c . FILTER NOT EXISTS { ?c pred:hasChildPop ?d } }
	   ?a pred:hasPopType ?t .
	 } ORDER BY ?a ?b`, true},
	// a group of two elements — its second block is seeded from a table, over
	// the binding row the enclosing recursion is working on — and a projected
	// variable only it binds, which must come out unbound:
	{`SELECT ?pop ?c ?e WHERE {
	   ?pop pred:hasPopType ?t .
	   ?pop pred:hasChildPop ?c .
	   FILTER EXISTS { { ?pop pred:hasEstimateCardinality ?e } ?c pred:hasPopType ?ct }
	   ?c pred:hasEstimateCardinality ?n .
	 } ORDER BY ?pop ?c`, true},
	// ?t is bound by a later pattern, the one the estimates run first: the
	// filter waits for it (run where it is written, no row passed; probe 2),
	{`SELECT ?b ?t WHERE {
	   ?a pred:hasChildPop ?b .
	   FILTER NOT EXISTS { ?b pred:hasPopType ?t }
	   <http://optimatch/qep/pop/2> pred:hasPopType ?t .
	 } ORDER BY ?b`, true},
	// ?c is bound only under an OPTIONAL, in some rows: it runs at the end,
	{`SELECT ?a ?c ?b WHERE {
	   ?a pred:hasPopType ?t .
	   OPTIONAL { ?a pred:hasEstimateCardinality ?c }
	   FILTER NOT EXISTS { ?a pred:hasChildPop ?k . ?k pred:hasEstimateCardinality ?c }
	   ?a pred:hasChildPop ?b .
	 } ORDER BY ?a ?b`, true},
	// ?n, bound later, is read by nothing but a BIND expression of its group.
	{`SELECT ?a ?n WHERE {
	   ?a pred:hasPopType ?t .
	   FILTER EXISTS { BIND(?n * 1 AS ?m) ?x pred:hasEstimateCardinality ?m }
	   ?a pred:hasEstimateCardinality ?n .
	 } ORDER BY ?a`, true},
	// A BIND that fails binds nothing: the filter on its target waits for the
	// pattern that binds it (taken at its word, the BIND left the filter an
	// unbound ?x to drop the row on; probe 1).
	{`SELECT ?a ?x WHERE { BIND(?n + 1 AS ?x) ?a pred:hasPopType ?x FILTER(?x = "NLJOIN") } ORDER BY ?a`, true},
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

// TestEvalEquivalence pins ExecOpts to the algebra oracle on a
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
	solution
	q     *Query
	cells []rdf.Term
}

func (v orderView) lookupVar(name string) (rdf.Term, bool) {
	for _, w := range v.q.Where.Vars() {
		if w == name {
			return v.solution.lookupVar(name)
		}
	}
	for i, item := range v.q.Select {
		if item.Alias == name {
			return v.cells[i], !v.cells[i].Zero()
		}
	}
	return v.solution.lookupVar(name)
}

// refProject applies SELECT and hands the rows to refFinish. SELECT *
// projects every variable of the query a query can spell (not a [] node's), in
// order of first mention: the WHERE clause's, then the ORDER BY keys'.
func refProject(q *Query, sols []solution) *Results {
	var vars []string
	var exprs []Expression
	if q.Star {
		all := q.Where.Vars()
		for _, key := range q.OrderBy {
			all = append(all, exprVars(key.Expr)...)
		}
		for _, v := range all {
			if !strings.HasPrefix(v, "!") && !slices.Contains(vars, v) {
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
			if v, err := e.Eval(s); err == nil {
				cells[j] = v
			}
		}
		rows[i] = refRow{sol: s, cells: cells}
	}
	return refFinish(q, vars, rows)
}

// refFinish applies ORDER BY, DISTINCT, OFFSET and LIMIT to projected rows.
func refFinish(q *Query, vars []string, rows []refRow) *Results {
	if len(q.OrderBy) > 0 {
		for i := range rows {
			rows[i].keys = make([]rdf.Term, len(q.OrderBy))
			for j, ok := range q.OrderBy {
				expr := refSubstituteAggregates(ok.Expr, rows[i].values)
				view := orderView{rows[i].sol, q, rows[i].cells}
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
func refComputeAggregate(agg AggExpr, group []solution) (rdf.Term, error) {
	if agg.Fn == "COUNT" && agg.Star {
		return rdf.Int(int64(len(group))), nil
	}
	var values []rdf.Term
	var seen map[string]bool
	if agg.Distinct {
		seen = make(map[string]bool)
	}
	for _, s := range group {
		v, err := agg.Arg.Eval(s)
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
func refGroupSolutions(groupBy []string, sols []solution) [][]solution {
	if len(groupBy) == 0 {
		return [][]solution{sols}
	}
	index := make(map[string]int)
	var groups [][]solution
	for _, s := range sols {
		var key strings.Builder
		for _, v := range groupBy {
			key.WriteString(s[v].String())
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
func refEvalGrouped(q *Query, sols []solution) *Results {
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
	for _, g := range refGroupSolutions(q.GroupBy, sols) {
		values := make(map[string]rdf.Term, len(aggs))
		for key, agg := range aggs {
			v, err := refComputeAggregate(agg, g)
			if err != nil {
				continue // unbound aggregate: projection yields unbound
			}
			values[key] = v
		}
		rep := solution{} // representative solution for grouped vars
		if len(g) > 0 {
			rep = g[0]
		}
		if q.Having != nil {
			ok, err := ebv(refSubstituteAggregates(q.Having, values), rep)
			if err != nil || !ok {
				continue
			}
		}
		cells := make([]rdf.Term, len(q.Select))
		for i, item := range q.Select {
			expr := refSubstituteAggregates(item.Expr, values)
			if v, err := expr.Eval(rep); err == nil {
				cells[i] = v
			}
		}
		rows = append(rows, refRow{sol: rep, values: values, cells: cells})
	}
	return refFinish(q, vars, rows)
}
