package sparql

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"optimatch/internal/rdf"
)

const xsd = "http://www.w3.org/2001/XMLSchema#"

// TestPrintLiterals: a literal prints as a form that lexes back to the same
// term, in the query and in Explain's filter lines. A number is bare only when
// its lexical form is one number token of its own datatype. The first row
// once printed as 5 — stable under a second print, yet another query.
func TestPrintLiterals(t *testing.T) {
	gb := rdf.NewBuilder()
	gb.Add(rdf.IRI("urn:s"), rdf.IRI("urn:p"), rdf.Int(5))
	g := gb.Graph()
	for _, c := range []struct{ lit, want string }{
		{`"5"^^xsd:double`, `"5"^^<` + xsd + `double>`},
		{`"1e3"^^xsd:integer`, `"1e3"^^<` + xsd + `integer>`},
		{`" 7"^^xsd:integer`, `" 7"^^<` + xsd + `integer>`},
		{`"a"^^xsd:string`, `"a"^^<` + xsd + `string>`},
		{`5`, `5`},
		{`1e3`, `1e3`},
		{`"7"^^xsd:integer`, `7`},
		{`"2.50"^^xsd:double`, `2.50`},
		{`'a\"b\\c'`, `"a\"b\\c"`},
		{`true`, `"true"^^<` + xsd + `boolean>`},
	} {
		q := mustParse(t, `PREFIX xsd: <`+xsd+`> SELECT ?s WHERE { ?s <urn:p> ?o . FILTER(?o = `+c.lit+`) }`)
		want := "FILTER(?o = " + c.want + ")"
		printed := q.String()
		if !strings.Contains(printed, want) {
			t.Errorf("%s: query prints as\n%s\nwant it to hold %s", c.lit, printed, want)
		}
		back := mustParse(t, printed)
		if got, orig := back.Where.Elems[1].(FilterElem).Expr.(CmpExpr).R, q.Where.Elems[1].(FilterElem).Expr.(CmpExpr).R; got != orig {
			t.Errorf("%s: reads back as %v, want %v", c.lit, got, orig)
		}
		ex, err := Explain(q, g)
		if err != nil {
			t.Fatal(err)
		}
		if s := ex.String(); !strings.Contains(s, "  "+want) || !strings.HasPrefix(s, printed) {
			t.Errorf("%s: explanation does not open with the query or lacks %s:\n%s", c.lit, want, s)
		}
	}
}

// TestPrintSpellings: the spellings of one query print as one text.
func TestPrintSpellings(t *testing.T) {
	want := mustParse(t, `SELECT ?x WHERE { ?x <urn:p> [] . FILTER(?x != <urn:n>) }`).String()
	for _, in := range []string{
		"PREFIX u: <urn:>\nselect $x where { $x u:p [] . filter($x != u:n) }",
		"# a comment\nSELECT  ?x\tWHERE{?x <urn:p> [ ] # another\n.FILTER (( ?x != <urn:n> ))}",
		"SELECT REDUCED ?x { ?x <urn:p> []; . FILTER(+?x != <urn:n>) }",
	} {
		if got := mustParse(t, in).String(); got != want {
			t.Errorf("%q prints as\n%s\nwant\n%s", in, got, want)
		}
	}
}

// benchDeck is the five raw SPARQL requests of the benchmark's decks, with
// one threshold filled in.
var benchDeck = []string{
	`PREFIX preduri: <http://optimatch/pred/>
PREFIX popuri: <http://optimatch/pop/>
PREFIX arguri: <http://optimatch/arg/>
SELECT ?top ?join WHERE {
  ?top preduri:hasPopType "RETURN" .
  ?top preduri:hasChildPop+ ?join .
  ?join preduri:hasPopType "NLJOIN" .
}`,
	`PREFIX preduri: <http://optimatch/pred/>
SELECT ?anc ?sort WHERE {
  ?anc preduri:hasChildPop+ ?sort .
  ?sort preduri:hasPopType "SORT" .
}`,
	`PREFIX preduri: <http://optimatch/pred/>
SELECT ?pop ?card WHERE {
  ?pop preduri:hasPopClass "JOIN" .
  ?pop preduri:hasEstimateCardinality ?card .
  FILTER(?card > 10000000) .
}`,
	`PREFIX preduri: <http://optimatch/pred/>
SELECT ?pop ?cost ?pred WHERE {
  { ?pop preduri:hasPopType "FILTER" . } UNION { ?pop preduri:hasPopType "GRPBY" . }
  ?pop preduri:hasTotalCost ?cost .
  OPTIONAL { ?pop preduri:hasPredicateText ?pred . }
  FILTER(?cost > 1000) .
}`,
	`PREFIX preduri: <http://optimatch/pred/>
SELECT ?type (COUNT(?pop) AS ?n) WHERE {
  ?pop preduri:hasPopType ?type .
  ?pop preduri:hasIOCost ?io .
  FILTER(?io > 100) .
}
GROUP BY ?type
ORDER BY DESC(?n) ?type
LIMIT 5`,
}

// parseBudget is the heap a parse of n bytes may allocate: the tokens, the
// AST and the compiled program.
func parseBudget(n int) uint64 { return 64<<10 + 512*uint64(n) }

// scopeSeed is a query that opens depth groups with open, binds thousands of
// variables, then repeats elem until the input is full and closes with last:
// the scope check's work must not grow with the variables in scope at each
// repeat, and grows at most maxDepth-fold with depth.
func scopeSeed(open string, depth int, elem, last string) string {
	var b strings.Builder
	b.WriteString("SELECT ?a0 WHERE { " + strings.Repeat(open, depth))
	for i := 0; b.Len() < MaxQueryBytes/2; i++ {
		fmt.Fprintf(&b, "?a%d ?b%d ?c%d . ", i, i, i)
	}
	last += strings.Repeat("}", depth+1)
	for b.Len()+len(elem)+len(last) <= MaxQueryBytes {
		b.WriteString(elem)
	}
	b.WriteString(last)
	return b.String()
}

// constantSeed is a query maxDepth deep — the root, maxDepth-2 groups and a
// predicate — over thousands of distinct constants: 1 000 deep, it cost 3 GB
// when each group copied the constants it requires into the one around it.
func constantSeed() string {
	var b strings.Builder
	b.WriteString("SELECT * WHERE " + strings.Repeat("{ ", maxDepth-1))
	for i := 0; b.Len()+64+maxDepth < MaxQueryBytes; i++ {
		fmt.Fprintf(&b, "<urn:s%d> <urn:p> <urn:o%d> . ", i, i)
	}
	b.WriteString(strings.Repeat("}", maxDepth-1))
	return b.String()
}

// FuzzSPARQL holds the parser to the printer on every input /api/sparql
// could be sent — at most MaxQueryBytes of it, as the route reads: a rejected
// input is an error, never a panic, within a second and a heap budget linear
// in its size; an accepted one prints as text that parses to the same AST
// (prefix table and memoised analysis aside), prints the same again, and
// answers the same rows on a plan graph. On an input of at most 4 KiB, Parse
// refuses for its scope exactly what scopeRefuses does.
func FuzzSPARQL(f *testing.F) {
	lit := `PREFIX xsd: <` + xsd + `> SELECT ?s WHERE { ?s <urn:p> ?o . FILTER(?o = %s) }`
	tooDeep := scopeSeed("{ ", maxDepth-1, "{} ", "")
	if _, err := Parse(tooDeep); err == nil {
		f.Fatalf("a query %d deep parsed", maxDepth+1)
	}
	for _, l := range []string{`"5"^^xsd:double`, `"1e3"^^xsd:integer`, `" 7"^^xsd:integer`, `"a"^^xsd:string`} {
		f.Add(fmt.Sprintf(lit, l))
	}
	for _, q := range benchDeck {
		f.Add(q)
	}
	for _, q := range []string{
		"SELECT $x ?y WHERE { ?x a $y . # a comment\n _:b <urn:p> ?x ; <urn:q> [] , _:b . [] <urn:p> -5 }",
		"SELECT * WHERE { ?a ?p ?b ; ?p ?c }",
		"SELECT * WHERE { ?a ?p ?b . ?b (?p)+|^?p ?c }",
		"SELECT * WHERE { ?a ^(^<urn:p>) ?b . ?b (<urn:p>*)+ ?c . ?c ^<urn:q>?/(<urn:p>|<urn:r>) ?d }",
		predPrefix + `SELECT ?t (COUNT(DISTINCT ?a) AS ?n) (SUM(?c) * 2 AS ?s) WHERE { ?a pred:hasPopType ?t . OPTIONAL { ?a pred:hasEstimateCardinality ?c } }
GROUP BY ?t HAVING(COUNT(*) > 1 && AVG(?c) >= 0) ORDER BY DESC(?n) ASC(-?s) ?t`,
		predPrefix + `SELECT DISTINCT ?a WHERE { ?a pred:hasChildPop ?b . FILTER NOT EXISTS { ?b pred:hasJoinType "INNER" } BIND(STR(?a) AS ?x) FILTER(REGEX(?x, "pop/[0-9]", "i")) } ORDER BY ?a LIMIT 3 OFFSET 1`,
		`SELECT ?a WHERE { { ?a <urn:p> ?b } UNION { ?b <urn:p> ?a } UNION {} FILTER(!BOUND(?b) || -(?b - 1) / 2 < 1 - ?b * 3) }`,
		strings.Repeat("(", 1<<14),
		"SELECT * WHERE { " + strings.Repeat("?a <urn:p> ?b . ", (MaxQueryBytes-64)/16) + "}",
		scopeSeed("", 0, "{} ", ""),
		scopeSeed("", 0, "{} UNION ", "{}"),
		scopeSeed("", 0, "OPTIONAL {} ", ""),
		scopeSeed("", 0, "FILTER EXISTS {} ", ""),
		// maxDepth deep: the root, maxDepth-2 groups opened and elem's. The
		// nested EXISTS cost 1.35 GB at 1 000 deep, when the compiler listed
		// the variables below each one at every EXISTS around it.
		scopeSeed("{ ", maxDepth-2, "{} ", ""),
		scopeSeed("{} UNION { ", maxDepth-2, "{} ", ""),
		scopeSeed("?a0 ?b0 ?c0 OPTIONAL { ", maxDepth-2, "{} ", ""),
		scopeSeed("FILTER EXISTS { ", maxDepth-2, "{} ", ""),
		constantSeed(),
		tooDeep,
	} {
		f.Add(q)
	}
	g := fuzzDecodePlanGraph(fuzzPlanTriples(), fuzzCards)

	f.Fuzz(func(t *testing.T, text string) {
		text = text[:min(len(text), MaxQueryBytes)]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		q, err := Parse(text)
		took := time.Since(start)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > parseBudget(len(text)) {
			t.Errorf("parsing %d bytes allocated %d, budget %d", len(text), alloc, parseBudget(len(text)))
		}
		if took > time.Second {
			t.Errorf("parsing %d bytes took %v", len(text), took)
		}
		// The copying oracle is quadratic: it judges the short inputs.
		if uq, uerr := parseUnchecked(text); uerr == nil && len(text) <= 4<<10 {
			if _, aggErr := uq.checkAggregation(); aggErr == nil {
				if refused := scopeRefuses(uq.Where); (err != nil) != refused {
					t.Fatalf("Parse: %v, refused by copies: %v", err, refused)
				}
			}
		}
		if err != nil {
			return
		}
		printed := q.String()
		back, err := Parse(printed)
		if err != nil {
			t.Fatalf("Parse(String()): %v\n%s", err, printed)
		}
		if again := back.String(); again != printed {
			t.Fatalf("the printed query prints otherwise:\n%s\nvs\n%s", printed, again)
		}
		bare := func(q *Query) Query {
			c := *q
			c.Prefixes, c.analysis = nil, nil
			return c
		}
		if a, b := bare(q), bare(back); !reflect.DeepEqual(a, b) {
			t.Fatalf("the printed query parses to another AST:\n%s\n got: %#v\nwant: %#v", printed, b, a)
		}
		// A query over few patterns has a result the fixture bounds; the
		// deadline bounds its paths.
		if countPatterns(q.Where) <= 4 {
			if got, want, ok := execBoth(back, q, g); ok && got != want {
				t.Fatalf("the printed query answers otherwise:\n%s\n got: %s\nwant: %s", printed, got, want)
			}
		}
	})
}

func countPatterns(g *GroupPattern) int {
	n := 0
	for _, el := range g.Elems {
		switch el := el.(type) {
		case TriplePattern:
			n++
		case OptionalElem:
			n += countPatterns(el.Group)
		case GroupElem:
			n += countPatterns(el.Group)
		case FilterExistsElem:
			n += countPatterns(el.Group)
		case UnionElem:
			for _, b := range el.Branches {
				n += countPatterns(b)
			}
		}
	}
	return n
}

// execBoth renders the answers of a and b on g — columns, rows in order, or
// the error —; ok is false when either ran out of its second.
func execBoth(a, b *Query, g *rdf.Graph) (ra, rb string, ok bool) {
	rows := func(q *Query) (string, bool) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		res, err := q.ExecOpts(g, ExecOptions{Ctx: ctx})
		if err != nil {
			return "error: " + err.Error(), !errors.Is(err, context.DeadlineExceeded)
		}
		return fmt.Sprintf("%q %q", res.Vars, rowStrings(res)), true
	}
	ra, okA := rows(a)
	rb, okB := rows(b)
	return ra, rb, okA && okB
}
