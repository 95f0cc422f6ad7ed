package sparql

import (
	"math"
	"testing"

	"optimatch/internal/rdf"
)

// TestComputedNumberHasTheGraphsID holds evalCtx.intern's rule — an ID
// equality test is a term equality test — for a number computed during
// evaluation that equals one the graph holds as a value (InternFloat, as
// transform writes every cost and cardinality): intern must return the
// graph's ID, so that a join on the computed variable, DISTINCT and GROUP BY
// agree with the bottom-up oracle, which compares terms.
func TestComputedNumberHasTheGraphsID(t *testing.T) {
	gb := rdf.NewBuilder()
	pred := func(n string) rdf.ID { return gb.Intern(rdf.IRI("http://optimatch/pred/" + n)) }
	pop := func(n string) rdf.ID { return gb.Intern(rdf.IRI("http://optimatch/qep/pop/" + n)) }
	card, cost := pred("hasEstimateCardinality"), pred("hasTotalCost")
	tenth := 0.1 // a variable: the constant 0.1*3 is exactly 0.3
	gb.AddIDs(pop("1"), card, gb.InternFloat(4043))
	gb.AddIDs(pop("2"), card, gb.InternFloat(tenth))
	gb.AddIDs(pop("3"), card, gb.InternFloat(math.Copysign(0, -1)))
	gb.AddIDs(pop("4"), cost, gb.InternFloat(12129))
	gb.AddIDs(pop("5"), cost, gb.InternFloat(0.30000000000000004))
	gb.AddIDs(pop("6"), cost, gb.InternFloat(0))
	g := gb.Graph()

	ec := &evalCtx{g: g}
	for _, c := range []struct {
		computed rdf.Term
		graph    float64
	}{{rdf.Float(4043 * 3), 12129}, {rdf.Float(tenth * 3), 0.30000000000000004}, {rdf.Float(math.Copysign(0, -1) * 3), math.Copysign(0, -1)}} {
		want := g.Dict().Lookup(rdf.Float(c.graph))
		if got := ec.intern(c.computed); want == rdf.NoID || got != want {
			t.Errorf("intern(%v) = %#x, the graph's %v is %d", c.computed, got, rdf.Float(c.graph), want)
		}
	}
	if id := ec.intern(rdf.Float(4044)); id&extraIDBit == 0 {
		t.Errorf("intern of a number the graph lacks = %d, not a side-table ID", id)
	}
	if a, b := ec.intern(rdf.Float(0)), ec.intern(rdf.Float(math.Copysign(0, -1))); a == b {
		t.Errorf("0 and -0 interned alike: %d", a)
	}

	for _, c := range []struct {
		text string
		rows int
	}{
		// ?c joins two costs, 12129 and 0.30000000000000004; -0 is not the
		// term 0.
		{`SELECT ?a ?b WHERE { ?a pred:hasEstimateCardinality ?x . BIND(?x * 3 AS ?c) ?b pred:hasTotalCost ?c }`, 2},
		{`SELECT DISTINCT ?c WHERE { { ?a pred:hasEstimateCardinality ?x . BIND(?x * 3 AS ?c) } UNION { ?b pred:hasTotalCost ?c } }`, 4},
		{`SELECT ?c (COUNT(*) AS ?n) WHERE { { ?a pred:hasEstimateCardinality ?x . BIND(?x * 3 AS ?c) } UNION { ?b pred:hasTotalCost ?c } } GROUP BY ?c`, 4},
	} {
		q, err := Parse(predPrefix + c.text)
		if err != nil {
			t.Fatalf("Parse(%s): %v", c.text, err)
		}
		requireEquivalent(t, q, g)
		res, err := q.Exec(g)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != c.rows {
			t.Errorf("%s: %d rows, want %d: %v", c.text, len(res.Rows), c.rows, res.Rows)
		}
	}
}
