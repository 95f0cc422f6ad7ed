package sparql

import (
	"reflect"
	"strings"
	"testing"

	"optimatch/internal/rdf"
)

func mustParse(t *testing.T, q string) *Query {
	t.Helper()
	parsed, err := Parse(q)
	if err != nil {
		t.Fatalf("Parse(%q): %v", q, err)
	}
	return parsed
}

func TestParsePrologueAndSelect(t *testing.T) {
	q := mustParse(t, `
PREFIX pred: <http://optimatch/pred/>
SELECT ?a ?b
WHERE { ?a pred:hasPopType ?b . }
`)
	if q.Prefixes["pred"] != "http://optimatch/pred/" {
		t.Errorf("prefix = %q", q.Prefixes["pred"])
	}
	if len(q.Select) != 2 || q.Select[0].Alias != "a" || q.Select[1].Alias != "b" {
		t.Errorf("select = %+v", q.Select)
	}
	if len(q.Where.Elems) != 1 {
		t.Fatalf("where elems = %d", len(q.Where.Elems))
	}
	tp, ok := q.Where.Elems[0].(TriplePattern)
	if !ok {
		t.Fatalf("elem type %T", q.Where.Elems[0])
	}
	pp, ok := tp.P.(PredPath)
	if !ok || pp.IRI != "http://optimatch/pred/hasPopType" {
		t.Errorf("predicate = %#v", tp.P)
	}
}

func TestParseSelectAliases(t *testing.T) {
	// The paper's Figure 6 uses the bare `?pop1 AS ?TOP` alias form.
	q := mustParse(t, `SELECT ?pop1 AS ?TOP ?pop2 AS ?ANY2 ?pop4 AS ?BASE4 WHERE { ?pop1 <p> ?pop2 . ?pop2 <p> ?pop4 }`)
	wantAliases := []string{"TOP", "ANY2", "BASE4"}
	var got []string
	for _, s := range q.Select {
		got = append(got, s.Alias)
	}
	if !reflect.DeepEqual(got, wantAliases) {
		t.Errorf("aliases = %v, want %v", got, wantAliases)
	}
}

func TestParseParenthesizedAlias(t *testing.T) {
	q := mustParse(t, `SELECT (?x AS ?y) (?a + 1 AS ?b) WHERE { ?x <p> ?a }`)
	if q.Select[0].Alias != "y" || q.Select[1].Alias != "b" {
		t.Errorf("aliases = %+v", q.Select)
	}
	if _, ok := q.Select[1].Expr.(ArithExpr); !ok {
		t.Errorf("expected arithmetic expr, got %T", q.Select[1].Expr)
	}
}

func TestParseSelectStar(t *testing.T) {
	q := mustParse(t, `SELECT * WHERE { ?s ?p ?o }`)
	if !q.Star {
		t.Error("Star not set")
	}
}

func TestParseDistinctLimitOffsetOrder(t *testing.T) {
	q := mustParse(t, `SELECT DISTINCT ?s WHERE { ?s <p> ?o } ORDER BY DESC(?o) ?s LIMIT 5 OFFSET 2`)
	if !q.Distinct {
		t.Error("DISTINCT not set")
	}
	if q.Limit != 5 || q.Offset != 2 {
		t.Errorf("limit/offset = %d/%d", q.Limit, q.Offset)
	}
	if len(q.OrderBy) != 2 || !q.OrderBy[0].Desc || q.OrderBy[1].Desc {
		t.Errorf("orderBy = %+v", q.OrderBy)
	}
}

func TestParseFilterForms(t *testing.T) {
	q := mustParse(t, `
SELECT ?s WHERE {
  ?s <card> ?c .
  FILTER (?c > 100) .
  FILTER (?c < 1.0E7)
  FILTER REGEX(?s, "JOIN", "i")
}`)
	filters := 0
	for _, el := range q.Where.Elems {
		if _, ok := el.(FilterElem); ok {
			filters++
		}
	}
	if filters != 3 {
		t.Errorf("filters = %d, want 3", filters)
	}
}

func TestParsePropertyPaths(t *testing.T) {
	q := mustParse(t, `PREFIX p: <urn:> SELECT ?a WHERE { ?a (p:x/p:y)+ ?b . ?b ^p:z ?c . ?c p:q|p:r ?d . ?d p:s? ?e }`)
	tps := make([]TriplePattern, 0, 4)
	for _, el := range q.Where.Elems {
		tps = append(tps, el.(TriplePattern))
	}
	if _, ok := tps[0].P.(ModPath); !ok {
		t.Errorf("path 0 = %#v", tps[0].P)
	}
	if mp := tps[0].P.(ModPath); mp.Mod != ModOneOrMore {
		t.Errorf("mod = %c", mp.Mod)
	}
	if _, ok := tps[1].P.(InvPath); !ok {
		t.Errorf("path 1 = %#v", tps[1].P)
	}
	if _, ok := tps[2].P.(AltPath); !ok {
		t.Errorf("path 2 = %#v", tps[2].P)
	}
	if mp, ok := tps[3].P.(ModPath); !ok || mp.Mod != ModZeroOrOne {
		t.Errorf("path 3 = %#v", tps[3].P)
	}
}

func TestParseSemicolonCommaAbbreviations(t *testing.T) {
	q := mustParse(t, `SELECT ?s WHERE { ?s <p> ?a ; <q> ?b , ?c . }`)
	if n := len(q.Where.Elems); n != 3 {
		t.Fatalf("elems = %d, want 3", n)
	}
	for _, el := range q.Where.Elems {
		tp := el.(TriplePattern)
		if tp.S.Var != "s" {
			t.Errorf("subject = %v", tp.S)
		}
	}
}

func TestParseOptionalUnion(t *testing.T) {
	q := mustParse(t, `SELECT ?s WHERE {
  ?s <p> ?o .
  OPTIONAL { ?s <q> ?x }
  { ?s <r> ?y } UNION { ?s <t> ?y }
}`)
	var haveOpt, haveUnion bool
	for _, el := range q.Where.Elems {
		switch el.(type) {
		case OptionalElem:
			haveOpt = true
		case UnionElem:
			haveUnion = true
		}
	}
	if !haveOpt || !haveUnion {
		t.Errorf("haveOpt=%v haveUnion=%v", haveOpt, haveUnion)
	}
}

func TestParseBind(t *testing.T) {
	q := mustParse(t, `SELECT ?t WHERE { ?s <cost> ?c . BIND(?c * 2 AS ?t) }`)
	found := false
	for _, el := range q.Where.Elems {
		if b, ok := el.(BindElem); ok {
			found = true
			if b.Var != "t" {
				t.Errorf("bind var = %q", b.Var)
			}
		}
	}
	if !found {
		t.Error("BIND not parsed")
	}
}

func TestParseLiterals(t *testing.T) {
	q := mustParse(t, `SELECT ?s WHERE {
  ?s <p> "NLJOIN" .
  ?s <q> 100 .
  ?s <r> 0.001 .
  ?s <t> 1.0E7 .
  ?s <u> true .
  ?s <v> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .
  ?s <w> -5 .
}`)
	terms := make([]rdf.Term, 0, 7)
	for _, el := range q.Where.Elems {
		terms = append(terms, el.(TriplePattern).O.Term)
	}
	if terms[0] != rdf.String("NLJOIN") {
		t.Errorf("string literal = %v", terms[0])
	}
	if terms[1].Datatype != rdf.XSDInteger {
		t.Errorf("int literal = %v", terms[1])
	}
	if terms[2].Datatype != rdf.XSDDouble || terms[3].Datatype != rdf.XSDDouble {
		t.Errorf("double literals = %v %v", terms[2], terms[3])
	}
	if v, _ := terms[4].Bool(); !v {
		t.Errorf("bool literal = %v", terms[4])
	}
	if terms[5].Value != "42" || terms[5].Datatype != rdf.XSDInteger {
		t.Errorf("typed literal = %v", terms[5])
	}
	if f, _ := terms[6].Float(); f != -5 {
		t.Errorf("negative literal = %v", terms[6])
	}
}

func TestParseBlankNodes(t *testing.T) {
	q := mustParse(t, `SELECT ?s WHERE { ?s <p> _:b1 . _:b1 <q> ?o . ?s <r> [] }`)
	tp0 := q.Where.Elems[0].(TriplePattern)
	tp1 := q.Where.Elems[1].(TriplePattern)
	if tp0.O.Var == "" || tp0.O.Var != tp1.S.Var {
		t.Errorf("blank node label not shared: %q vs %q", tp0.O.Var, tp1.S.Var)
	}
	tp2 := q.Where.Elems[2].(TriplePattern)
	if tp2.O.Var == "" || !strings.HasPrefix(tp2.O.Var, "!") {
		t.Errorf("anon node = %v", tp2.O)
	}
}

func TestParseAKeyword(t *testing.T) {
	q := mustParse(t, `SELECT ?s WHERE { ?s a <Class> }`)
	tp := q.Where.Elems[0].(TriplePattern)
	if pp, ok := tp.P.(PredPath); !ok || pp.IRI != RDFType {
		t.Errorf("a-predicate = %#v", tp.P)
	}
}

func TestParseKeywordCaseInsensitive(t *testing.T) {
	mustParse(t, `select ?s where { ?s <p> ?o } order by ?s limit 1`)
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`SELECT`,
		`SELECT WHERE { ?s <p> ?o }`,
		`SELECT ?s`,
		`SELECT ?s WHERE { ?s <p> }`,
		`SELECT ?s WHERE { ?s <p> ?o `,
		`SELECT ?s WHERE { ?s unknown:p ?o }`,
		`SELECT ?s WHERE { ?s <p> ?o } LIMIT x`,
		`SELECT ?s WHERE { ?s <p> ?o } ORDER BY`,
		`SELECT ?s WHERE { FILTER }`,
		`SELECT ?s WHERE { ?s <p> ?o } trailing`,
		`PREFIX p <urn:> SELECT ?s WHERE { ?s <p> ?o }`,
		`SELECT ?s WHERE { ?s <p> "unterminated }`,
		`SELECT ?s WHERE { ?s <p> ?o . FILTER(NOSUCHFN(?o)) }`,
		`SELECT ?s WHERE { ?s <p> ?o . FILTER(REGEX(?o)) }`, // arity
		// A variable is a whole predicate, never part of a path.
		`SELECT ?s WHERE { ?s ?p+ ?o }`,
		`SELECT ?s WHERE { ?s ^?p ?o }`,
		`SELECT ?s WHERE { ?s ?p/<q> ?o }`,
		`SELECT ?s WHERE { ?s <q>|?p ?o }`,
		`SELECT ?s WHERE { ?s (?p) ?o }`,
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q): expected error", in)
		}
	}
}

// TestPathString pins the printer's path text: full IRIs, and parentheses
// only where the parser would otherwise build another tree.
func TestPathString(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{`(p:x/p:y)+|^p:z`, `(<urn:x>/<urn:y>)+|^<urn:z>`},
		{`^(^p:x)`, `^(^<urn:x>)`},
		{`(p:x*)+`, `(<urn:x>*)+`},
		{`(^p:x)*`, `(^<urn:x>)*`},
		{`^p:x*`, `^<urn:x>*`},
		{`^(p:x*)`, `^<urn:x>*`},
		{`(p:x/p:y)/p:z`, `(<urn:x>/<urn:y>)/<urn:z>`},
		{`p:x/(p:y/p:z)`, `<urn:x>/(<urn:y>/<urn:z>)`},
		{`(p:x|p:y)/p:z|a`, `(<urn:x>|<urn:y>)/<urn:z>|<` + RDFType + `>`},
		{`p:x|(p:y|p:z)`, `<urn:x>|(<urn:y>|<urn:z>)`},
		{`^(p:x/p:y)?`, `^(<urn:x>/<urn:y>)?`},
	} {
		q := mustParse(t, `PREFIX p: <urn:> SELECT ?a WHERE { ?a `+c.in+` ?b }`)
		if got := pathString(q.Where.Elems[0].(TriplePattern).P); got != c.want {
			t.Errorf("%s prints as %s, want %s", c.in, got, c.want)
		}
	}
}

func TestGroupVars(t *testing.T) {
	q := mustParse(t, `SELECT * WHERE { ?a <p> ?b . OPTIONAL { ?a <q> ?c } { ?a <r> ?d } UNION { ?a <r> ?e } FILTER(?f > 1) BIND(1 AS ?g) }`)
	got := q.Where.Vars()
	want := []string{"a", "b", "c", "d", "e", "f", "g"}
	sortedCopy := func(in []string) []string {
		out := append([]string(nil), in...)
		for i := range out {
			for j := i + 1; j < len(out); j++ {
				if out[j] < out[i] {
					out[i], out[j] = out[j], out[i]
				}
			}
		}
		return out
	}
	if !reflect.DeepEqual(sortedCopy(got), sortedCopy(want)) {
		t.Errorf("Vars = %v, want %v", got, want)
	}
}

// TestNestingBound: every kind of nesting counts on Parse's one depth count,
// the root group as 1. At 63 and at 64 a query parses, answers as the algebra
// oracle does and prints as text that parses again; at 65 Parse refuses it.
func TestNestingBound(t *testing.T) {
	g := evalTestGraph()
	// wrap opens k times around inner and closes as often.
	wrap := func(open, inner, close string, k int) string {
		return strings.Repeat(open, k) + inner + strings.Repeat(close, k)
	}
	// A predicate, like an expression, sits one level inside its group: the
	// innermost group of the first five kinds has a variable one.
	const scan, leaf = "?a pred:hasPopType ?t", "?a ?p ?t"
	// A filter's expression, like a path, starts at depth 2.
	filter := func(expr string) string {
		return "SELECT * WHERE { ?a pred:hasEstimateCardinality ?c FILTER(" + expr + ") }"
	}
	for _, c := range []struct {
		kind  string
		query func(depth int) string
	}{
		{"group", func(d int) string { return "SELECT * WHERE " + wrap("{ ", leaf, " }", d) }},
		{"OPTIONAL", func(d int) string { return "SELECT * WHERE { " + wrap(scan+" OPTIONAL { ", leaf, " }", d-1) + " }" }},
		{"UNION branch", func(d int) string {
			return "SELECT * WHERE { " + scan + " " + wrap("{ ?t ?p ?a } UNION { ", leaf, " }", d-1) + " }"
		}},
		{"EXISTS", func(d int) string {
			return "SELECT * WHERE { " + wrap(scan+" FILTER EXISTS { ", leaf, " }", d-1) + " }"
		}},
		{"NOT EXISTS", func(d int) string {
			return "SELECT * WHERE { " + wrap(scan+" FILTER NOT EXISTS { ", leaf, " }", d-1) + " }"
		}},
		{"( in an expression", func(d int) string { return filter(wrap("(", "?c > 100", ")", d-2)) }},
		{"! chain", func(d int) string { return filter(wrap("!", "?c", "", d-2)) }},
		{"- chain", func(d int) string { return filter(wrap("-", "?c", "", d-2) + " > 100") }},
		{"function argument", func(d int) string { return filter(wrap("FLOOR(", "?c", ")", d-2) + " > 100") }},
		// Counted as the FILTER(ABS(…)) it prints as.
		{"call as the constraint", func(d int) string {
			return "SELECT * WHERE { ?a pred:hasEstimateCardinality ?c FILTER " + wrap("ABS(", "?c", ")", d-2) + " }"
		}},
		{"( in a path", func(d int) string {
			return "SELECT * WHERE { ?a " + wrap("(", "pred:hasOuterInputStream/pred:hasOuterInputStream", ")", d-2) + " ?b }"
		}},
	} {
		for _, depth := range []int{63, 64} {
			q, err := Parse(predPrefix + c.query(depth))
			if err != nil {
				t.Errorf("%s at depth %d: %v", c.kind, depth, err)
				continue
			}
			requireEquivalent(t, q, g)
			if _, err := Parse(q.String()); err != nil {
				t.Errorf("%s at depth %d prints as a query Parse refuses: %v", c.kind, depth, err)
			}
		}
		const want = "sparql: query nests deeper than 64"
		if _, err := Parse(predPrefix + c.query(65)); err == nil || err.Error() != want {
			t.Errorf("%s at depth 65: err = %v, want %s", c.kind, err, want)
		}
	}
}
