package sparql

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"optimatch/internal/rdf"
)

// evalTestGraph models the paper's Figure 1 plan fragment as RDF:
//
//	NLJOIN(2) -> outer FETCH(3) -> IXSCAN(4) -> SALES_FACT
//	          -> inner TBSCAN(5) -> CUST_DIM
//
// with reified stream nodes, matching the transformer's encoding.
func evalTestGraph() *rdf.Graph {
	b := rdf.NewBuilder()
	pred := func(n string) rdf.Term { return rdf.IRI("http://optimatch/pred/" + n) }
	pop := func(n int) rdf.Term { return rdf.IRI(fmt.Sprintf("http://optimatch/qep/pop/%d", n)) }
	str := func(n int) rdf.Term { return rdf.IRI(fmt.Sprintf("http://optimatch/qep/stream/%d", n)) }
	base := func(n string) rdf.Term { return rdf.IRI("http://optimatch/qep/obj/" + n) }

	b.Add(pop(2), pred("hasPopType"), rdf.String("NLJOIN"))
	b.Add(pop(3), pred("hasPopType"), rdf.String("FETCH"))
	b.Add(pop(4), pred("hasPopType"), rdf.String("IXSCAN"))
	b.Add(pop(5), pred("hasPopType"), rdf.String("TBSCAN"))

	b.Add(pop(2), pred("hasEstimateCardinality"), rdf.TypedLiteral("19.12", rdf.XSDDouble))
	b.Add(pop(5), pred("hasEstimateCardinality"), rdf.TypedLiteral("4043.0", rdf.XSDDouble))
	b.Add(pop(5), pred("hasTotalCost"), rdf.TypedLiteral("15771", rdf.XSDDouble))
	b.Add(pop(4), pred("hasEstimateCardinality"), rdf.TypedLiteral("1.0E+07", rdf.XSDDouble))

	link := func(parent, streamNode, child rdf.Term, kind string) {
		b.Add(parent, pred(kind), streamNode)
		b.Add(streamNode, pred(kind), child)
		b.Add(child, pred("hasOutputStream"), streamNode)
		b.Add(streamNode, pred("hasOutputStream"), parent)
	}
	link(pop(2), str(1), pop(3), "hasOuterInputStream")
	link(pop(2), str(2), pop(5), "hasInnerInputStream")
	link(pop(3), str(3), pop(4), "hasInputStream")
	link(pop(4), str(4), base("SALES_FACT"), "hasInputStream")
	link(pop(5), str(5), base("CUST_DIM"), "hasInputStream")

	// Direct child closure predicates (derived, as the transformer does).
	child := pred("hasChildPop")
	b.Add(pop(2), child, pop(3))
	b.Add(pop(2), child, pop(5))
	b.Add(pop(3), child, pop(4))

	b.Add(base("SALES_FACT"), pred("isABaseObj"), rdf.Bool(true))
	b.Add(base("CUST_DIM"), pred("isABaseObj"), rdf.Bool(true))
	b.Add(base("CUST_DIM"), pred("hasName"), rdf.String("CUST_DIM"))
	return b.Graph()
}

func execQuery(t *testing.T, g *rdf.Graph, query string) *Results {
	t.Helper()
	q, err := Parse(query)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	res, err := q.Exec(g)
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	return res
}

const predPrefix = "PREFIX pred: <http://optimatch/pred/>\n"

func TestExecSimpleBGP(t *testing.T) {
	g := evalTestGraph()
	res := execQuery(t, g, predPrefix+`SELECT ?pop WHERE { ?pop pred:hasPopType "TBSCAN" }`)
	if res.Len() != 1 {
		t.Fatalf("rows = %d, want 1", res.Len())
	}
	if got := res.Get(0, "pop").Value; got != "http://optimatch/qep/pop/5" {
		t.Errorf("pop = %q", got)
	}
}

func TestExecJoinAcrossPatterns(t *testing.T) {
	g := evalTestGraph()
	// Which pop types have a cardinality > 100? IXSCAN (1e7) and TBSCAN (4043).
	res := execQuery(t, g, predPrefix+`
SELECT ?type WHERE {
  ?pop pred:hasPopType ?type .
  ?pop pred:hasEstimateCardinality ?card .
  FILTER(?card > 100)
} ORDER BY ?type`)
	var got []string
	for i := range res.Rows {
		got = append(got, res.Get(i, "type").Value)
	}
	want := []string{"IXSCAN", "TBSCAN"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("types = %v, want %v", got, want)
	}
}

func TestExecFilterExponentVsDecimal(t *testing.T) {
	g := evalTestGraph()
	// 1.0E+07 must compare numerically: > 9999999 and < 10000001.
	res := execQuery(t, g, predPrefix+`
SELECT ?pop WHERE {
  ?pop pred:hasEstimateCardinality ?c .
  FILTER(?c > 9999999 && ?c < 10000001)
}`)
	if res.Len() != 1 || res.Get(0, "pop").Value != "http://optimatch/qep/pop/4" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestExecReifiedStreamPattern(t *testing.T) {
	// The exact shape Figure 6 generates: NLJOIN with inner TBSCAN through
	// blank-node handlers.
	g := evalTestGraph()
	res := execQuery(t, g, predPrefix+`
SELECT ?pop1 AS ?TOP ?pop3 AS ?SCAN3
WHERE {
  ?pop1 pred:hasPopType "NLJOIN" .
  ?pop1 pred:hasInnerInputStream ?bnodeOfPop3_to_Pop1 .
  ?bnodeOfPop3_to_Pop1 pred:hasInnerInputStream ?pop3 .
  ?pop3 pred:hasOutputStream ?bnodeOfPop3_to_Pop1 .
  ?bnodeOfPop3_to_Pop1 pred:hasOutputStream ?pop1 .
  ?pop3 pred:hasPopType "TBSCAN" .
  ?pop3 pred:hasEstimateCardinality ?internalHandler1 .
  FILTER(?internalHandler1 > 100) .
}
ORDER BY ?pop1`)
	if res.Len() != 1 {
		t.Fatalf("rows = %d, want 1", res.Len())
	}
	if res.Vars[0] != "TOP" || res.Vars[1] != "SCAN3" {
		t.Errorf("vars = %v", res.Vars)
	}
	if res.Get(0, "TOP").Value != "http://optimatch/qep/pop/2" {
		t.Errorf("TOP = %v", res.Get(0, "TOP"))
	}
}

func TestExecPropertyPathPlus(t *testing.T) {
	g := evalTestGraph()
	// All descendants of the NLJOIN via the derived closure predicate.
	res := execQuery(t, g, predPrefix+`
SELECT ?d WHERE {
  ?top pred:hasPopType "NLJOIN" .
  ?top pred:hasChildPop+ ?d .
} ORDER BY ?d`)
	var got []string
	for i := range res.Rows {
		got = append(got, res.Get(i, "d").Value)
	}
	want := []string{
		"http://optimatch/qep/pop/3",
		"http://optimatch/qep/pop/4",
		"http://optimatch/qep/pop/5",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("descendants = %v, want %v", got, want)
	}
}

func TestExecPropertyPathStarIncludesSelf(t *testing.T) {
	g := evalTestGraph()
	res := execQuery(t, g, predPrefix+`
SELECT ?d WHERE {
  ?top pred:hasPopType "NLJOIN" .
  ?top pred:hasChildPop* ?d .
}`)
	if res.Len() != 4 { // self + 3 descendants
		t.Errorf("rows = %d, want 4", res.Len())
	}
}

func TestExecPropertyPathSequenceAndAlt(t *testing.T) {
	g := evalTestGraph()
	// Two-hop reified traversal as a path: outer|inner stream, both hops.
	res := execQuery(t, g, predPrefix+`
SELECT ?child WHERE {
  ?top pred:hasPopType "NLJOIN" .
  ?top (pred:hasOuterInputStream|pred:hasInnerInputStream)/(pred:hasOuterInputStream|pred:hasInnerInputStream) ?child .
} ORDER BY ?child`)
	var got []string
	for i := range res.Rows {
		got = append(got, res.Get(i, "child").Value)
	}
	want := []string{
		"http://optimatch/qep/pop/3",
		"http://optimatch/qep/pop/5",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("children = %v, want %v", got, want)
	}
}

func TestExecInversePath(t *testing.T) {
	g := evalTestGraph()
	res := execQuery(t, g, predPrefix+`
SELECT ?parent WHERE {
  ?c pred:hasPopType "FETCH" .
  ?c ^pred:hasChildPop ?parent .
}`)
	if res.Len() != 1 || res.Get(0, "parent").Value != "http://optimatch/qep/pop/2" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestExecOptional(t *testing.T) {
	g := evalTestGraph()
	res := execQuery(t, g, predPrefix+`
SELECT ?pop ?card WHERE {
  ?pop pred:hasPopType ?t .
  OPTIONAL { ?pop pred:hasEstimateCardinality ?card }
} ORDER BY ?pop`)
	if res.Len() != 4 {
		t.Fatalf("rows = %d, want 4", res.Len())
	}
	unbound := 0
	for i := range res.Rows {
		if res.Get(i, "card").Zero() {
			unbound++
		}
	}
	if unbound != 1 { // FETCH(3) has no cardinality in the fixture
		t.Errorf("unbound cards = %d, want 1", unbound)
	}
}

func TestExecOptionalWithBoundFilter(t *testing.T) {
	g := evalTestGraph()
	res := execQuery(t, g, predPrefix+`
SELECT ?pop WHERE {
  ?pop pred:hasPopType ?t .
  OPTIONAL { ?pop pred:hasEstimateCardinality ?card }
  FILTER(BOUND(?card))
}`)
	if res.Len() != 3 {
		t.Errorf("rows = %d, want 3", res.Len())
	}
}

func TestExecUnion(t *testing.T) {
	g := evalTestGraph()
	res := execQuery(t, g, predPrefix+`
SELECT ?pop WHERE {
  { ?pop pred:hasPopType "TBSCAN" } UNION { ?pop pred:hasPopType "IXSCAN" }
} ORDER BY ?pop`)
	if res.Len() != 2 {
		t.Fatalf("rows = %d, want 2", res.Len())
	}
}

func TestExecDistinct(t *testing.T) {
	g := evalTestGraph()
	res := execQuery(t, g, predPrefix+`
SELECT DISTINCT ?t WHERE {
  { ?pop pred:hasPopType ?t } UNION { ?pop pred:hasPopType ?t }
}`)
	if res.Len() != 4 {
		t.Errorf("distinct rows = %d, want 4", res.Len())
	}
}

func TestExecBind(t *testing.T) {
	g := evalTestGraph()
	res := execQuery(t, g, predPrefix+`
SELECT ?double WHERE {
  ?pop pred:hasPopType "TBSCAN" .
  ?pop pred:hasEstimateCardinality ?c .
  BIND(?c * 2 AS ?double)
}`)
	if res.Len() != 1 {
		t.Fatalf("rows = %d", res.Len())
	}
	if f, _ := res.Get(0, "double").Float(); f != 8086 {
		t.Errorf("double = %v", res.Get(0, "double"))
	}
}

func TestExecSelectStarExcludesInternalVars(t *testing.T) {
	g := evalTestGraph()
	res := execQuery(t, g, predPrefix+`SELECT * WHERE { ?pop pred:hasPopType "NLJOIN" . ?pop pred:hasOuterInputStream [] }`)
	for _, v := range res.Vars {
		if v[0] == '!' {
			t.Errorf("internal var %q leaked into projection", v)
		}
	}
	if res.Len() != 1 {
		t.Errorf("rows = %d", res.Len())
	}
}

func TestExecLimitOffset(t *testing.T) {
	g := evalTestGraph()
	all := execQuery(t, g, predPrefix+`SELECT ?pop WHERE { ?pop pred:hasPopType ?t } ORDER BY ?pop`)
	lim := execQuery(t, g, predPrefix+`SELECT ?pop WHERE { ?pop pred:hasPopType ?t } ORDER BY ?pop LIMIT 2 OFFSET 1`)
	if lim.Len() != 2 {
		t.Fatalf("limited rows = %d", lim.Len())
	}
	if lim.Rows[0][0] != all.Rows[1][0] || lim.Rows[1][0] != all.Rows[2][0] {
		t.Errorf("offset slice wrong: %v vs %v", lim.Rows, all.Rows)
	}
	// Offset beyond result size.
	empty := execQuery(t, g, predPrefix+`SELECT ?pop WHERE { ?pop pred:hasPopType ?t } OFFSET 100`)
	if empty.Len() != 0 {
		t.Errorf("rows = %d, want 0", empty.Len())
	}
}

func TestExecOrderByNumericDesc(t *testing.T) {
	g := evalTestGraph()
	res := execQuery(t, g, predPrefix+`
SELECT ?c WHERE { ?pop pred:hasEstimateCardinality ?c } ORDER BY DESC(?c)`)
	var got []float64
	for i := range res.Rows {
		f, _ := res.Get(i, "c").Float()
		got = append(got, f)
	}
	if !sort.IsSorted(sort.Reverse(sort.Float64Slice(got))) {
		t.Errorf("not descending: %v", got)
	}
	if got[0] != 1e7 {
		t.Errorf("largest = %v", got[0])
	}
}

func TestExecVariablePredicate(t *testing.T) {
	g := evalTestGraph()
	res := execQuery(t, g, predPrefix+`
SELECT ?p ?o WHERE { <http://optimatch/qep/pop/5> ?p ?o } ORDER BY ?p`)
	if res.Len() < 4 {
		t.Errorf("rows = %d, want >= 4 (type, card, cost, streams)", res.Len())
	}
}

// A predicate variable that the query never projects must still get its
// solution slot up front; it used to be allocated mid-evaluation, past the end
// of the rows already built (found by FuzzEvalEquivalence).
func TestExecUnprojectedVariablePredicate(t *testing.T) {
	g := evalTestGraph()
	res := execQuery(t, g, `SELECT ?s WHERE { ?s ?p ?o }`)
	if res.Len() != g.Len() {
		t.Errorf("rows = %d, want one per triple (%d)", res.Len(), g.Len())
	}
	star := execQuery(t, g, `SELECT * WHERE { <http://optimatch/qep/pop/5> ?p ?o }`)
	if !reflect.DeepEqual(star.Vars, []string{"p", "o"}) {
		t.Errorf("SELECT * vars = %v, want [p o]", star.Vars)
	}
}

func TestExecSameVarSubjectObject(t *testing.T) {
	gb := rdf.NewBuilder()
	gb.Add(rdf.IRI("a"), rdf.IRI("p"), rdf.IRI("a"))
	gb.Add(rdf.IRI("a"), rdf.IRI("p"), rdf.IRI("b"))
	g := gb.Graph()
	res := execQuery(t, g, `SELECT ?x WHERE { ?x <p> ?x }`)
	if res.Len() != 1 || res.Get(0, "x").Value != "a" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestExecConstantNotInGraph(t *testing.T) {
	g := evalTestGraph()
	res := execQuery(t, g, predPrefix+`SELECT ?pop WHERE { ?pop pred:hasPopType "MSJOIN" }`)
	if res.Len() != 0 {
		t.Errorf("rows = %d, want 0", res.Len())
	}
	res = execQuery(t, g, predPrefix+`SELECT ?o WHERE { <urn:ghost> pred:hasPopType ?o }`)
	if res.Len() != 0 {
		t.Errorf("rows = %d, want 0", res.Len())
	}
}

func TestExecReorderMatchesNoReorder(t *testing.T) {
	g := evalTestGraph()
	query := predPrefix + `
SELECT ?pop ?t WHERE {
  ?pop pred:hasEstimateCardinality ?c .
  ?pop pred:hasPopType ?t .
  FILTER(?c > 10)
} ORDER BY ?pop`
	q, err := Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	a, err := q.ExecOpts(g, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Re-parse: evaluation mutates no state, but be safe.
	q2, _ := Parse(query)
	b, err := q2.ExecOpts(g, ExecOptions{DisableReorder: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Rows, b.Rows) {
		t.Errorf("reorder changed results:\n%v\nvs\n%v", a.Rows, b.Rows)
	}
}

func TestExecExpressionsInFilters(t *testing.T) {
	g := evalTestGraph()
	cases := []struct {
		filter string
		want   int
	}{
		{`FILTER(?c >= 4043 && ?c <= 4043)`, 1},
		{`FILTER(?c = 4043 || ?c = 19.12)`, 2},
		{`FILTER(!(?c > 100))`, 1},
		{`FILTER(?c * 2 > 8000 && ?c < 10000)`, 1},
		{`FILTER(?c / 2 < 10)`, 1}, // 19.12/2 = 9.56
		{`FILTER(?c - 43 = 4000)`, 1},
		{`FILTER(?c + 1 > 1.0E7)`, 1},
		{`FILTER(ABS(-1 * ?c) = ?c)`, 3},
		{`FILTER(ISLITERAL(?c))`, 3},
		{`FILTER(ISNUMERIC(?c))`, 3},
		{`FILTER(ISIRI(?pop))`, 3},
	}
	for _, c := range cases {
		res := execQuery(t, g, predPrefix+`SELECT ?pop WHERE { ?pop pred:hasEstimateCardinality ?c . `+c.filter+` }`)
		if res.Len() != c.want {
			t.Errorf("%s: rows = %d, want %d", c.filter, res.Len(), c.want)
		}
	}
}

func TestExecStringBuiltins(t *testing.T) {
	g := evalTestGraph()
	cases := []struct {
		filter string
		want   int
	}{
		{`FILTER(CONTAINS(?t, "JOIN"))`, 1},
		{`FILTER(STRSTARTS(?t, "TB"))`, 1},
		{`FILTER(STRENDS(?t, "SCAN"))`, 2},
		{`FILTER(REGEX(?t, "^(IX|TB)SCAN$"))`, 2},
		{`FILTER(REGEX(?t, "nljoin", "i"))`, 1},
		{`FILTER(STRLEN(?t) = 5)`, 1},
		{`FILTER(UCASE(LCASE(?t)) = ?t)`, 4},
		{`FILTER(STR(?t) = "FETCH")`, 1},
	}
	for _, c := range cases {
		res := execQuery(t, g, predPrefix+`SELECT ?pop WHERE { ?pop pred:hasPopType ?t . `+c.filter+` }`)
		if res.Len() != c.want {
			t.Errorf("%s: rows = %d, want %d", c.filter, res.Len(), c.want)
		}
	}
}

func TestExecZeroOrOnePath(t *testing.T) {
	g := evalTestGraph()
	res := execQuery(t, g, predPrefix+`
SELECT ?x WHERE {
  ?top pred:hasPopType "FETCH" .
  ?top pred:hasChildPop? ?x .
} ORDER BY ?x`)
	// FETCH itself (zero) plus IXSCAN (one step).
	if res.Len() != 2 {
		t.Errorf("rows = %d, want 2", res.Len())
	}
}

func TestResultsAccessors(t *testing.T) {
	g := evalTestGraph()
	res := execQuery(t, g, predPrefix+`SELECT ?pop WHERE { ?pop pred:hasPopType "NLJOIN" }`)
	if res.Column("pop") != 0 || res.Column("nope") != -1 {
		t.Error("Column lookup wrong")
	}
	if !res.Get(0, "nope").Zero() {
		t.Error("Get on missing column should be zero")
	}
	if !res.Get(5, "pop").Zero() {
		t.Error("Get out of range should be zero")
	}
}

func TestExecFilterNotExists(t *testing.T) {
	b := rdf.NewBuilder()
	b.Add(rdf.IRI("j1"), rdf.IRI("type"), rdf.String("NLJOIN"))
	b.Add(rdf.IRI("j1"), rdf.IRI("pred"), rdf.String("(A.K = B.K)"))
	b.Add(rdf.IRI("j2"), rdf.IRI("type"), rdf.String("NLJOIN"))
	// j2 has no predicate: a cartesian join.
	g := b.Graph()
	res := execQuery(t, g, `
SELECT ?j WHERE {
  ?j <type> "NLJOIN" .
  FILTER NOT EXISTS { ?j <pred> ?p }
}`)
	if res.Len() != 1 || res.Get(0, "j").Value != "j2" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestExecFilterExists(t *testing.T) {
	b := rdf.NewBuilder()
	b.Add(rdf.IRI("j1"), rdf.IRI("type"), rdf.String("NLJOIN"))
	b.Add(rdf.IRI("j1"), rdf.IRI("pred"), rdf.String("(A.K = B.K)"))
	b.Add(rdf.IRI("j2"), rdf.IRI("type"), rdf.String("NLJOIN"))
	g := b.Graph()
	res := execQuery(t, g, `
SELECT ?j WHERE {
  ?j <type> "NLJOIN" .
  FILTER EXISTS { ?j <pred> ?p } .
}`)
	if res.Len() != 1 || res.Get(0, "j").Value != "j1" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestExecExistsCorrelation(t *testing.T) {
	// EXISTS must be evaluated under the outer bindings (correlated), not
	// independently.
	gb := rdf.NewBuilder()
	gb.Add(rdf.IRI("a"), rdf.IRI("p"), rdf.IRI("x"))
	gb.Add(rdf.IRI("b"), rdf.IRI("p"), rdf.IRI("y"))
	gb.Add(rdf.IRI("x"), rdf.IRI("q"), rdf.Int(1))
	// Only 'a' reaches a q-bearing node.
	g := gb.Graph()
	res := execQuery(t, g, `
SELECT ?s WHERE {
  ?s <p> ?o .
  FILTER EXISTS { ?o <q> ?v }
}`)
	if res.Len() != 1 || res.Get(0, "s").Value != "a" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestParseExistsErrors(t *testing.T) {
	for _, q := range []string{
		`SELECT ?s WHERE { ?s <p> ?o . FILTER NOT { ?s <q> ?v } }`,
		`SELECT ?s WHERE { ?s <p> ?o . FILTER EXISTS ?s }`,
	} {
		if _, err := Parse(q); err == nil {
			t.Errorf("accepted %q", q)
		}
	}
}
