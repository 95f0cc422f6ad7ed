package sparql

import (
	"slices"
	"strings"
	"testing"

	"optimatch/internal/rdf"
)

func mustShape(t *testing.T, text string) (Shape, bool) {
	t.Helper()
	return ShapeOf(mustParse(t, predPrefix+text))
}

// TestShapeKey pins what a shape abstracts: the constant of a root-group
// ordering comparison of a variable with a number, either way round, and
// nothing else.
func TestShapeKey(t *testing.T) {
	const card = `SELECT ?a WHERE { ?a pred:hasEstimateCardinality ?c . `
	for _, tc := range []struct {
		a, b string
		same bool
	}{
		{card + `FILTER(?c > 1000) }`, card + `FILTER(?c > 50) }`, true},
		{card + `FILTER(?c > 1000) }`, card + `FILTER(1.5e+06 < ?c) }`, true},
		{card + `FILTER(?c <= 2) }`, card + `FILTER(2 >= ?c) }`, true},
		{card + `FILTER(?c > 1000) }`, card + `FILTER(?c >= 1000) }`, false},
		{card + `FILTER(?c = 1000) }`, card + `FILTER(?c = 50) }`, false},
		{card + `FILTER(?c > "1000") }`, card + `FILTER(?c > "50") }`, true},
		{card + `FILTER(?c > "abc") }`, card + `FILTER(?c > "abd") }`, false},
		{card + `FILTER(?c * 2 > 1000) }`, card + `FILTER(?c * 2 > 50) }`, false},
		{card + `FILTER(?c > 1000 && ?c < 5000) }`, card + `FILTER(?c > 50 && ?c < 5000) }`, false},
		{card + `OPTIONAL { ?a pred:hasIOCost ?io FILTER(?io > 1000) } }`, card + `OPTIONAL { ?a pred:hasIOCost ?io FILTER(?io > 50) } }`, false},
		{card + `FILTER(?c > 1000) } LIMIT 3`, card + `FILTER(?c > 1000) } LIMIT 4`, false},
	} {
		sa, okA := mustShape(t, tc.a)
		sb, okB := mustShape(t, tc.b)
		if !okA || !okB {
			t.Fatalf("%s / %s: no shape", tc.a, tc.b)
		}
		if same := sa.Key == sb.Key; same != tc.same {
			t.Errorf("%s\n%s\nsame shape = %v, want %v; keys:\n%s\n%s", tc.a, tc.b, same, tc.same, sa.Key, sb.Key)
		}
	}
	for _, grouped := range []string{
		`SELECT ?t (COUNT(?a) AS ?n) WHERE { ?a pred:hasPopType ?t . ?a pred:hasEstimateCardinality ?c . FILTER(?c > 5) } GROUP BY ?t`,
		`SELECT (COUNT(*) AS ?n) WHERE { ?a pred:hasEstimateCardinality ?c . FILTER(?c > 5) }`,
		`SELECT ?a WHERE { ?a pred:hasEstimateCardinality ?c . FILTER(?c > 5) } GROUP BY ?a HAVING(COUNT(*) < 3)`,
	} {
		if s, ok := mustShape(t, grouped); ok || s.Key != "" || s.Contains(s) {
			t.Errorf("%s: a shape %q, want none", grouped, s.Key)
		}
	}
}

// TestShapeContains: a looser threshold contains a tighter one when it is
// looser both as a number and as the literal's spelling.
func TestShapeContains(t *testing.T) {
	shape := func(op, c string) Shape {
		s, ok := mustShape(t, `SELECT ?a WHERE { ?a pred:hasEstimateCardinality ?c . FILTER(?c `+op+` `+c+`) }`)
		if !ok {
			t.Fatal("no shape")
		}
		return s
	}
	for _, tc := range []struct {
		op, x, y string
		want     bool // shape x contains shape y
	}{
		{">", "100", "1000", true},
		{">", "1000", "100", false},
		{">", "150", "1000", false}, // numerically looser, lexically not: "150" > "1000"
		{">", "1000", "1000", true},
		{">", "1000", "1e3", true}, // equal numbers, "1000" < "1e3"
		{">", "1e3", "1000", false},
		{">", "1e+06", "1.5e+06", false},
		{">", "1.5e+06", "1e+06", false},
		{">=", "2", "3", true},
		{"<", "0.001", "0.0005", true},
		{"<", "0.0005", "0.001", false},
		{"<=", "2500", "1000", true},
		{"<", "10", "9", false}, // numerically looser, lexically not: "10" < "9"
	} {
		if got := shape(tc.op, tc.x).Contains(shape(tc.op, tc.y)); got != tc.want {
			t.Errorf("?c %s %s contains ?c %s %s: %v, want %v", tc.op, tc.x, tc.op, tc.y, got, tc.want)
		}
	}
}

// TestContainmentNeedsLexicalOrder is the case the lexical half of Contains
// is for. On a plan whose cardinality cell is the literal "1200z", ?c > 1000
// matches ("1200z" > "1000" as strings) while ?c > 150 does not ("1200z" <
// "150"). Numeric order alone calls the looser-looking 150 a container of
// 1000, and a scan that trusted it would skip a query that has a row.
func TestContainmentNeedsLexicalOrder(t *testing.T) {
	b := rdf.NewBuilder()
	b.Add(rdf.IRI("urn:op"), rdf.IRI(predIRI+"hasEstimateCardinality"), rdf.String("1200z"))
	query := func(c string) *Query {
		return mustParse(t, predPrefix+`SELECT ?a WHERE { ?a pred:hasEstimateCardinality ?c . FILTER(?c > `+c+`) }`)
	}
	x, y := query("150"), query("1000")
	g := b.Graph()
	rx, err := x.Exec(g)
	if err != nil {
		t.Fatal(err)
	}
	ry, err := y.Exec(g)
	if err != nil {
		t.Fatal(err)
	}
	if rx.Len() != 0 || ry.Len() != 1 {
		t.Fatalf("?c > 150 has %d rows, ?c > 1000 %d: want 0 and 1", rx.Len(), ry.Len())
	}
	sx, _ := ShapeOf(x)
	sy, _ := ShapeOf(y)
	numericOnly := sx.Key == sy.Key && sx.thresholds[0].n <= sy.thresholds[0].n
	if !numericOnly {
		t.Fatal("numeric order alone does not call ?c > 150 a container: the case is gone")
	}
	if sx.Contains(sy) {
		t.Error("?c > 150 contains ?c > 1000, yet on this graph only the second has a row")
	}
}

// containCards mixes the cardinality cells a plan has with literals that are
// not numbers, which CmpExpr compares as strings.
var containCards = []string{"0.5", "1200z", "150", "19", "1200", "4043z", "", "1.0E+07"}

// containConsts are the thresholds FuzzContainment tries: spellings whose
// lexical order disagrees with their numeric order included.
var containConsts = []string{"0", "2", "19", "50", "99", "100", "150", "1000", "1200", "1e3", "1.0E+07", "1e+06", "1.5e+06", "019", "2.5", "4043"}

// retuned returns q with the constant of every root-group ordering comparison
// of a variable with a number replaced by one of containConsts, read back from
// its text.
func retuned(t *testing.T, q *Query, pick func(n int) int) *Query {
	t.Helper()
	x := *q
	x.Where = &GroupPattern{Elems: slices.Clone(q.Where.Elems)}
	for i, el := range x.Where.Elems {
		f, ok := el.(FilterElem)
		if !ok {
			continue
		}
		c, ok := f.Expr.(CmpExpr)
		if !ok || c.Op == OpEq || c.Op == OpNeq {
			continue
		}
		number := func(e Expression) bool {
			lit, ok := e.(LitExpr)
			return ok && lit.Term.IsNumeric()
		}
		fresh := LitExpr{Term: numberTerm(containConsts[pick(len(containConsts))])}
		if _, ok := c.L.(VarExpr); ok && number(c.R) {
			c.R = fresh
		} else if _, ok := c.R.(VarExpr); ok && number(c.L) {
			c.L = fresh
		}
		x.Where.Elems[i] = FilterElem{Expr: c}
	}
	back, err := Parse(x.String())
	if err != nil {
		t.Fatalf("Parse(%s): %v", x.String(), err)
	}
	return back
}

// FuzzContainment holds Shape.Contains to the evaluator. A query from
// FuzzEvalEquivalence's generator that Parse accepts and the same query with
// its thresholds retuned run on a plan graph whose cardinality cells are
// sometimes not numbers. The two have one shape key; and whenever one shape
// contains the other, the container's answer is empty only if the contained
// one's is, and, without LIMIT or OFFSET, holds every row of it as often.
//
// Input layout as FuzzEvalEquivalence's, with byte 0 unused; the constants are
// drawn from the whole input, front to back.
func FuzzContainment(f *testing.F) {
	plan := fuzzPlanTriples()
	for _, tail := range fuzzQueryTails {
		f.Add(append(append([]byte{255}, plan...), tail...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		if len(data) > 160 {
			data = data[:160]
		}
		rest := data[1:]
		split := len(rest) - len(rest)/3
		g := fuzzDecodePlanGraph(rest[:split], containCards)
		gen := fuzzQueryGen{buf: rest[split:]}
		text := gen.query()
		y, err := Parse(predPrefix + text)
		if err != nil {
			if !scopeRefusal(err) {
				t.Fatalf("Parse(%s): %v", text, err)
			}
			return // a shape top-down evaluation cannot answer
		}
		x := retuned(t, y, (&fuzzQueryGen{buf: data}).pick)
		sy, okY := ShapeOf(y)
		sx, okX := ShapeOf(x)
		if okX != okY || sx.Key != sy.Key {
			t.Fatalf("retuning the thresholds changed the shape:\n%s\nvs\n%s", sy.Key, sx.Key)
		}
		if !okY {
			return
		}
		if !sy.Contains(sy) {
			t.Fatalf("a shape does not contain itself:\n%s", sy.Key)
		}
		rows := func(q *Query) []string {
			res, err := q.Exec(g)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			return rowStrings(res)
		}
		for _, pair := range [][2]*Query{{x, y}, {y, x}} {
			outer, inner := pair[0], pair[1]
			so, _ := ShapeOf(outer)
			si, _ := ShapeOf(inner)
			if !so.Contains(si) {
				continue
			}
			ro, ri := rows(outer), rows(inner)
			if len(ro) == 0 && len(ri) != 0 {
				t.Fatalf("the container has no row, the contained %d:\n%s\ncontains\n%s", len(ri), outer, inner)
			}
			if inner.Limit >= 0 || inner.Offset != 0 {
				continue
			}
			held := make(map[string]int, len(ro))
			for _, r := range ro {
				held[r]++
			}
			for _, r := range ri {
				if held[r]--; held[r] < 0 {
					t.Fatalf("row %q of\n%s\nis not a row of its container\n%s", strings.TrimRight(r, "\x1f"), inner, outer)
				}
			}
		}
	})
}
