package sparql

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestScope: the six probes — queries on which the evaluator and its former
// top-down reference agreed with each other but not with SPARQL 1.1, each now
// answered as the algebra answers it or refused with a message naming the
// variable and the element —, then the edges of each rule, accepted on one
// side (and answered as the algebra oracle answers) and refused on the other,
// and the benchmark's raw SPARQL decks, which the check must accept (the
// knowledge base's entries are FuzzCompile's to check).
func TestScope(t *testing.T) {
	g := evalTestGraph()
	for _, c := range []struct {
		text    string
		refusal string   // a substring of the error, "" when accepted
		rows    []string // the answer, sorted, where given
	}{
		// Probe 1: a failed BIND binds nothing; probe 2: EXISTS is group-scoped.
		{`SELECT ?a ?x WHERE { BIND(?n + 1 AS ?x) ?a pred:hasPopType ?x FILTER(?x = "NLJOIN") }`, "",
			[]string{`<http://optimatch/qep/pop/2>|"NLJOIN"`}},
		{`SELECT ?b ?t WHERE { ?a pred:hasChildPop ?b . FILTER NOT EXISTS { ?b pred:hasPopType ?t } <http://optimatch/qep/pop/2> pred:hasPopType ?t . }`, "",
			[]string{`<http://optimatch/qep/pop/3>|"NLJOIN"`, `<http://optimatch/qep/pop/4>|"NLJOIN"`, `<http://optimatch/qep/pop/5>|"NLJOIN"`}},
		// Probes 3–6: R3, R2, R1 and R3 for BIND.
		{`SELECT ?a WHERE { ?a pred:hasPopType ?t { FILTER(BOUND(?t)) } }`,
			"sparql: FILTER(BOUND(?t)) uses ?t from outside its group, where nothing binds it in every row", nil},
		{`SELECT ?a ?y ?c WHERE { ?a pred:hasPopType "FETCH" OPTIONAL { ?y pred:hasPopType "TBSCAN" OPTIONAL { ?a pred:hasEstimateCardinality ?c } } }`,
			"sparql: OPTIONAL uses ?a from outside its group, where nothing before it binds it in every row", nil},
		{`SELECT ?c ?x WHERE { ?c pred:hasPopType ?x . BIND(LCASE(?x) AS ?x) }`,
			"sparql: BIND(LCASE(?x) AS ?x) assigns ?x, which is already in scope there", nil},
		{`SELECT ?a WHERE { ?a pred:hasPopType ?t { BIND("FETCH" AS ?t) } }`,
			`sparql: BIND("FETCH" AS ?t) uses ?t from outside its group, where nothing before it binds it in every row`, nil},

		// R1: a FILTER before a BIND puts nothing in scope; inside an EXISTS
		// the filtered row does.
		{`SELECT * WHERE { ?a pred:hasPopType ?t FILTER(?x != "a") BIND(LCASE(?t) AS ?x) }`, "", nil},
		{`SELECT * WHERE { OPTIONAL { ?a pred:hasJoinType ?x } BIND("x" AS ?x) }`, "assigns ?x", nil},
		{`SELECT * WHERE { ?a pred:hasPopType ?x FILTER EXISTS { BIND("FETCH" AS ?x) } }`, "assigns ?x", nil},
		{`SELECT * WHERE { ?a pred:hasPopType ?t FILTER EXISTS { BIND(LCASE(?t) AS ?x) ?b pred:hasPopType ?x } }`, "", nil},
		// R2: a root-group OPTIONAL never; a nested one where the left side
		// binds the seed variable in every row, not only in one UNION branch
		// (a nested group's pattern does).
		{`SELECT * WHERE { OPTIONAL { ?a pred:hasJoinType ?j } ?a pred:hasPopType ?t OPTIONAL { ?c pred:hasChildPop ?a } }`, "", nil},
		{`SELECT * WHERE { ?a pred:hasPopType ?t OPTIONAL { ?a pred:hasChildPop ?b OPTIONAL { ?a pred:hasJoinType ?j } } }`, "", nil},
		{`SELECT * WHERE { ?a pred:hasPopType "FETCH" OPTIONAL { { ?a pred:hasChildPop ?x } UNION { ?y pred:hasPopType "TBSCAN" } OPTIONAL { ?a pred:hasEstimateCardinality ?w } } }`, "OPTIONAL uses ?a", nil},
		{`SELECT * WHERE { ?a pred:hasPopType ?t { ?b pred:hasChildPop ?c OPTIONAL { ?c pred:hasPopType ?t } } }`, "OPTIONAL uses ?t", nil},
		{`SELECT * WHERE { ?a pred:hasPopType ?t { { ?a pred:hasChildPop ?b } OPTIONAL { ?a pred:hasJoinType ?j } } }`, "", nil},
		// R3: an OPTIONAL's own filters read the left row, a UNION branch's and
		// an EXISTS's in one do not; nothing inside an EXISTS is seeded by the
		// row it filters.
		{`SELECT * WHERE { ?a pred:hasPopType ?t OPTIONAL { ?a pred:hasJoinType ?j FILTER(?t = "NLJOIN") } }`, "", nil},
		{`SELECT * WHERE { ?a pred:hasPopType ?t { ?a pred:hasJoinType ?j FILTER(?t = "NLJOIN") } UNION { ?a pred:hasChildPop ?c } }`, "uses ?t", nil},
		{`SELECT * WHERE { ?a pred:hasPopType ?t { ?b pred:hasChildPop ?c FILTER NOT EXISTS { ?a pred:hasChildPop ?c } } }`, "FILTER NOT EXISTS uses ?a", nil},
		{`SELECT * WHERE { ?a pred:hasPopType ?t { ?a pred:hasChildPop ?c FILTER NOT EXISTS { ?a pred:hasChildPop ?c } } }`, "", nil},
		{`SELECT * WHERE { ?a pred:hasPopType ?t FILTER EXISTS { ?a pred:hasChildPop ?c { ?c pred:hasPopType ?u FILTER(?u != ?t) } } }`, "", nil},
		{`SELECT * WHERE { ?a pred:hasPopType ?t FILTER EXISTS { ?a pred:hasChildPop ?c { ?d pred:hasPopType ?u FILTER(?c != ?d) } } }`, "uses ?c", nil},
		{`SELECT * WHERE { ?a pred:hasPopType ?t { BIND(?a AS ?b) } }`, "BIND(?a AS ?b) uses ?a", nil},
		{`SELECT * WHERE { ?a pred:hasPopType ?t { ?a pred:hasChildPop ?c BIND(?a AS ?b) } }`, "", nil},
		// An OPTIONAL binds nothing in every row, nor does the group around
		// it: a filter on what it may bind waits for the pattern after it.
		{`SELECT ?a ?c WHERE { { ?a pred:hasPopType ?t OPTIONAL { ?a pred:hasTotalCost ?c } } ?b pred:hasEstimateCardinality ?c FILTER(?c > 100) }`, "", nil},
		// Each rule on both sides once more with its variables past slot 63.
		{padded(`SELECT * WHERE { ?a pred:hasPopType ?t BIND(LCASE(?t) AS ?x) }`), "", nil},
		{padded(`SELECT * WHERE { ?a pred:hasPopType ?x BIND("x" AS ?x) }`), "BIND(\"x\" AS ?x) assigns ?x", nil},
		{padded(`SELECT * WHERE { ?a pred:hasPopType ?t OPTIONAL { ?a pred:hasChildPop ?b OPTIONAL { ?a pred:hasJoinType ?j } } }`), "", nil},
		{padded(`SELECT * WHERE { ?a pred:hasPopType "FETCH" OPTIONAL { ?y pred:hasPopType "TBSCAN" OPTIONAL { ?a pred:hasEstimateCardinality ?c } } }`), "OPTIONAL uses ?a", nil},
		{padded(`SELECT * WHERE { ?a pred:hasPopType ?t { ?a pred:hasChildPop ?c FILTER NOT EXISTS { ?a pred:hasChildPop ?c } } }`), "", nil},
		{padded(`SELECT * WHERE { ?a pred:hasPopType ?t { ?b pred:hasChildPop ?c FILTER NOT EXISTS { ?a pred:hasChildPop ?c } } }`), "FILTER NOT EXISTS uses ?a", nil},
	} {
		q, err := Parse(predPrefix + c.text)
		if c.refusal != "" || err != nil {
			if err == nil || c.refusal == "" || !strings.Contains(err.Error(), c.refusal) {
				t.Errorf("%s\nerr = %v, want %q", c.text, err, c.refusal)
			}
			continue
		}
		requireEquivalent(t, q, g)
		res, _ := q.Exec(g)
		var rows []string
		for _, r := range rowStrings(res) {
			rows = append(rows, strings.ReplaceAll(strings.TrimSuffix(r, "\x1f"), "\x1f", "|"))
		}
		if sort.Strings(rows); c.rows != nil && !reflect.DeepEqual(rows, c.rows) {
			t.Errorf("%s\nrows %q, want %q", c.text, rows, c.rows)
		}
	}
	for _, text := range benchDeck {
		if _, err := Parse(text); err != nil {
			t.Errorf("%s\n%v", text, err)
		}
	}
}

// padded puts, first in the WHERE clause of text, a FILTER NOT EXISTS whose
// 64 patterns match nothing and take slots 0–63: the query's own variables
// then sit past what a 64-bit mask tracks.
func padded(text string) string {
	var pad strings.Builder
	pad.WriteString("{ FILTER NOT EXISTS { ")
	for i := range 64 {
		fmt.Fprintf(&pad, "?pad%d <urn:pad> <urn:pad> . ", i)
	}
	pad.WriteString("} ")
	return strings.Replace(text, "{", pad.String(), 1)
}

// scopeError is the scope check's verdict on q: compile's error.
func scopeError(q *Query) error {
	_, err := compile(q)
	return err
}

type varSet map[string]bool

// scopeRefuses is R1–R3 as compile.go's header states them, with the seed of
// every nested group copied out: a reference for inputs small enough for the
// copies.
func scopeRefuses(where *GroupPattern) bool {
	_, _, ok := scopeByCopies(where, varSet{}, varSet{}, false)
	return !ok
}

// mentioned lists every variable g names, at any depth, BIND expressions
// included.
func mentioned(g *GroupPattern) []string {
	var out []string
	for _, el := range g.Elems {
		switch el := el.(type) {
		case TriplePattern:
			out = append(out, el.S.Var, el.O.Var)
			if pv, ok := el.P.(predVarPath); ok {
				out = append(out, pv.name)
			}
		case FilterElem:
			out = append(out, exprVars(el.Expr)...)
		case BindElem:
			out = append(append(out, exprVars(el.Expr)...), el.Var)
		case OptionalElem:
			out = append(out, mentioned(el.Group)...)
		case GroupElem:
			out = append(out, mentioned(el.Group)...)
		case FilterExistsElem:
			out = append(out, mentioned(el.Group)...)
		case UnionElem:
			for _, b := range el.Branches {
				out = append(out, mentioned(b)...)
			}
		}
	}
	return out
}

// scopeByCopies checks g, whose rows may arrive seeded with the variables of
// seed and, inside an EXISTS, of the filtered row (outer holds both), and
// returns what g may bind and binds in every row. What an OPTIONAL or EXISTS
// mentions includes what its BIND expressions read.
func scopeByCopies(g *GroupPattern, seed, outer varSet, leftJoin bool) (may, every varSet, ok bool) {
	with := func(s, t varSet) varSet {
		u := maps.Clone(s)
		maps.Copy(u, t)
		return u
	}
	held := func(vars []string, bound varSet) bool {
		return !slices.ContainsFunc(vars, func(v string) bool { return seed[v] && !bound[v] })
	}
	may, every = varSet{}, varSet{}
	for _, el := range g.Elems {
		var m, e varSet
		ok = true
		switch el := el.(type) {
		case TriplePattern:
			m = varSet{el.S.Var: true, el.O.Var: true}
			if pv, isVar := el.P.(predVarPath); isVar {
				m[pv.name] = true
			}
			delete(m, "")
			e = m
		case BindElem:
			ok = held(append(exprVars(el.Expr), el.Var), every) && !may[el.Var] && !outer[el.Var]
			m = varSet{el.Var: true}
		case OptionalElem:
			if ok = held(mentioned(el.Group), every); ok {
				m, _, ok = scopeByCopies(el.Group, with(seed, may), with(outer, may), true)
			}
		case GroupElem:
			m, e, ok = scopeByCopies(el.Group, with(seed, may), with(outer, may), false)
		case UnionElem:
			m = varSet{}
			for i, b := range el.Branches {
				bm, be, bok := scopeByCopies(b, with(seed, may), with(outer, may), false)
				if !bok {
					return nil, nil, false
				}
				if i == 0 {
					e = be
				}
				maps.Copy(m, bm)
				maps.DeleteFunc(e, func(v string, _ bool) bool { return !be[v] })
			}
		}
		if !ok {
			return nil, nil, false
		}
		maps.Copy(may, m)
		maps.Copy(every, e)
	}
	for _, el := range g.Elems {
		switch el := el.(type) {
		case FilterElem:
			ok = leftJoin || held(exprVars(el.Expr), every)
		case FilterExistsElem:
			if ok = leftJoin || held(mentioned(el.Group), every); ok {
				_, _, ok = scopeByCopies(el.Group, varSet{}, with(outer, may), false)
			}
		}
		if !ok {
			return nil, nil, false
		}
	}
	return may, every, true
}

// parseUnchecked parses text as Parse does, short of refusing anything for
// its shape.
func parseUnchecked(text string) (*Query, error) {
	toks, err := lex(text)
	if err != nil {
		return nil, err
	}
	return (&parser{toks: toks}).parseQuery()
}

// scopeTexts is what TestScopeAgainstCopies checks: the random clauses
// first, clauses of them.
func scopeTexts() (texts []string, clauses int) {
	rng := rand.New(rand.NewSource(1))
	v := func() string { return string(rune('a' + rng.Intn(4))) }
	var group func(depth int) string
	group = func(depth int) string {
		var b strings.Builder
		b.WriteString("{ ")
		for n := rng.Intn(4); n > 0; n-- {
			kind := rng.Intn(8)
			if depth == 4 {
				kind = rng.Intn(3)
			}
			switch kind {
			case 0:
				fmt.Fprintf(&b, "?%s <urn:p> ?%s . ", v(), v())
			case 1:
				fmt.Fprintf(&b, "FILTER(?%s) ", v())
			case 2:
				fmt.Fprintf(&b, "BIND(?%s AS ?%s) ", v(), v())
			case 3:
				b.WriteString("OPTIONAL " + group(depth+1) + " ")
			case 4:
				b.WriteString(group(depth+1) + " ")
			case 5:
				b.WriteString(group(depth+1) + " UNION " + group(depth+1) + " ")
				if rng.Intn(2) == 0 {
					b.WriteString("UNION " + group(depth+1) + " ")
				}
			case 6:
				b.WriteString("FILTER EXISTS " + group(depth+1) + " ")
			case 7:
				b.WriteString("FILTER NOT EXISTS " + group(depth+1) + " ")
			}
		}
		b.WriteString("}")
		return b.String()
	}
	for range 20000 {
		texts = append(texts, "SELECT * WHERE "+group(0))
	}
	clauses = len(texts)
	for range 2000 {
		in := make([]byte, 53)
		rng.Read(in)
		texts = append(texts, predPrefix+(&fuzzQueryGen{buf: in}).query())
	}
	for _, c := range refSeedQueries {
		texts = append(texts, predPrefix+c.text)
	}
	return texts, clauses
}

// TestScopeAgainstCopies holds the compiler's scope check — one walk that
// passes each nested group its seed as a slot set and gathers what each group
// binds on its way back — to scopeRefuses, on random WHERE clauses over four
// variables (every element kind, up to five groups deep, UNIONs of two and
// three branches) and on the queries the fuzzers generate. Each random clause
// is checked again padded, its variables past slot 63: the same verdict and
// the same message.
func TestScopeAgainstCopies(t *testing.T) {
	texts, clauses := scopeTexts()
	refused := 0
	verdict := func(text string) error {
		q, err := parseUnchecked(text)
		if err != nil {
			t.Fatalf("%s\n%v", text, err)
		}
		err = scopeError(q)
		if want := scopeRefuses(q.Where); (err != nil) != want {
			t.Fatalf("%s\ncompile: %v, refused by copies: %v", text, err, want)
		}
		return err
	}
	for i, text := range texts {
		err := verdict(text)
		if err != nil {
			refused++
		}
		if i < clauses {
			if perr := verdict(padded(text)); fmt.Sprint(perr) != fmt.Sprint(err) {
				t.Fatalf("%s\nrefused %v, padded %v", text, err, perr)
			}
		}
	}
	t.Logf("%d of %d refused", refused, len(texts))
}
