package sparql

import (
	"reflect"
	"testing"

	"optimatch/internal/rdf"
)

// aggTestGraph: operators with types and costs for aggregation queries.
func aggTestGraph() *rdf.Graph {
	b := rdf.NewBuilder()
	add := func(id int, typ string, cost float64) {
		node := rdf.IRI(tfmt("pop", id))
		b.Add(node, rdf.IRI("urn:type"), rdf.String(typ))
		b.Add(node, rdf.IRI("urn:cost"), rdf.Float(cost))
	}
	add(1, "TBSCAN", 100)
	add(2, "TBSCAN", 200)
	add(3, "IXSCAN", 50)
	add(4, "NLJOIN", 500)
	add(5, "NLJOIN", 300)
	add(6, "SORT", 80)
	return b.Graph()
}

func tfmt(prefix string, id int) string {
	return "urn:" + prefix + string(rune('0'+id))
}

func TestAggregateCountStar(t *testing.T) {
	g := aggTestGraph()
	res := execQuery(t, g, `SELECT (COUNT(*) AS ?n) WHERE { ?x <urn:type> ?t }`)
	if res.Len() != 1 {
		t.Fatalf("rows = %d", res.Len())
	}
	if f, _ := res.Get(0, "n").Float(); f != 6 {
		t.Errorf("count = %v", res.Get(0, "n"))
	}
}

func TestAggregateCountEmptyIsZero(t *testing.T) {
	g := aggTestGraph()
	res := execQuery(t, g, `SELECT (COUNT(*) AS ?n) WHERE { ?x <urn:type> "GHOST" }`)
	if res.Len() != 1 {
		t.Fatalf("rows = %d", res.Len())
	}
	if f, _ := res.Get(0, "n").Float(); f != 0 {
		t.Errorf("count over empty = %v", res.Get(0, "n"))
	}
}

func TestAggregateGroupBy(t *testing.T) {
	g := aggTestGraph()
	res := execQuery(t, g, `
SELECT ?t (COUNT(?x) AS ?n) (SUM(?c) AS ?total)
WHERE { ?x <urn:type> ?t . ?x <urn:cost> ?c }
GROUP BY ?t
ORDER BY ?t`)
	if res.Len() != 4 {
		t.Fatalf("groups = %d, want 4\n%v", res.Len(), res.Rows)
	}
	type row struct {
		t     string
		n     float64
		total float64
	}
	var got []row
	for i := 0; i < res.Len(); i++ {
		n, _ := res.Get(i, "n").Float()
		total, _ := res.Get(i, "total").Float()
		got = append(got, row{res.Get(i, "t").Value, n, total})
	}
	want := []row{
		{"IXSCAN", 1, 50},
		{"NLJOIN", 2, 800},
		{"SORT", 1, 80},
		{"TBSCAN", 2, 300},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("groups = %+v, want %+v", got, want)
	}
}

func TestAggregateMinMaxAvg(t *testing.T) {
	g := aggTestGraph()
	res := execQuery(t, g, `
SELECT (MIN(?c) AS ?lo) (MAX(?c) AS ?hi) (AVG(?c) AS ?mean)
WHERE { ?x <urn:cost> ?c }`)
	lo, _ := res.Get(0, "lo").Float()
	hi, _ := res.Get(0, "hi").Float()
	mean, _ := res.Get(0, "mean").Float()
	if lo != 50 || hi != 500 {
		t.Errorf("min/max = %v/%v", lo, hi)
	}
	if mean < 205 || mean > 206 { // 1230/6 = 205
		t.Errorf("avg = %v", mean)
	}
}

func TestAggregateCountDistinct(t *testing.T) {
	g := aggTestGraph()
	res := execQuery(t, g, `SELECT (COUNT(DISTINCT ?t) AS ?n) WHERE { ?x <urn:type> ?t }`)
	if f, _ := res.Get(0, "n").Float(); f != 4 {
		t.Errorf("distinct types = %v", res.Get(0, "n"))
	}
}

func TestAggregateHaving(t *testing.T) {
	g := aggTestGraph()
	res := execQuery(t, g, `
SELECT ?t (COUNT(?x) AS ?n)
WHERE { ?x <urn:type> ?t }
GROUP BY ?t
HAVING (COUNT(?x) > 1)
ORDER BY ?t`)
	if res.Len() != 2 {
		t.Fatalf("groups = %d, want 2: %v", res.Len(), res.Rows)
	}
	if res.Get(0, "t").Value != "NLJOIN" || res.Get(1, "t").Value != "TBSCAN" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestAggregateOrderByAggregate(t *testing.T) {
	g := aggTestGraph()
	res := execQuery(t, g, `
SELECT ?t (SUM(?c) AS ?total)
WHERE { ?x <urn:type> ?t . ?x <urn:cost> ?c }
GROUP BY ?t
ORDER BY DESC(SUM(?c))
LIMIT 2`)
	if res.Len() != 2 {
		t.Fatalf("rows = %d", res.Len())
	}
	if res.Get(0, "t").Value != "NLJOIN" || res.Get(1, "t").Value != "TBSCAN" {
		t.Errorf("top groups = %v", res.Rows)
	}
}

func TestAggregateExpressionsOverAggregates(t *testing.T) {
	g := aggTestGraph()
	res := execQuery(t, g, `
SELECT ?t (SUM(?c) / COUNT(?x) AS ?avgCost)
WHERE { ?x <urn:type> ?t . ?x <urn:cost> ?c }
GROUP BY ?t
ORDER BY ?t`)
	// IXSCAN avg = 50.
	if f, _ := res.Get(0, "avgCost").Float(); f != 50 {
		t.Errorf("avg cost = %v", res.Get(0, "avgCost"))
	}
	// NLJOIN avg = 400.
	if f, _ := res.Get(1, "avgCost").Float(); f != 400 {
		t.Errorf("avg cost = %v", res.Get(1, "avgCost"))
	}
}

func TestAggregateErrors(t *testing.T) {
	bad := []string{
		// Non-grouped variable in SELECT.
		`SELECT ?x (COUNT(?x) AS ?n) WHERE { ?x <urn:type> ?t } GROUP BY ?t`,
		// SELECT * with GROUP BY.
		`SELECT * WHERE { ?x <urn:type> ?t } GROUP BY ?t`,
		// SUM(*) is not a thing.
		`SELECT (SUM(*) AS ?n) WHERE { ?x <urn:type> ?t }`,
		// GROUP BY with no vars.
		`SELECT (COUNT(*) AS ?n) WHERE { ?x <urn:type> ?t } GROUP BY`,
	}
	for _, query := range bad {
		if _, err := Parse(query); err == nil {
			t.Errorf("accepted: %s", query)
		}
	}
}

// An aggregation error depends on the query's shape alone: Parse refuses it,
// so no evaluation, plan table or cache ever sees the query.
func TestAggregateErrorsBeforeEvaluation(t *testing.T) {
	for query, want := range map[string]string{
		`SELECT * WHERE { ?x <urn:child>+ ?y } GROUP BY ?x`:                    "sparql: SELECT * cannot be combined with aggregation",
		`SELECT ?y (COUNT(?x) AS ?n) WHERE { ?x <urn:child>+ ?y } GROUP BY ?x`: "sparql: variable ?y in SELECT is neither aggregated nor in GROUP BY",
	} {
		if q, err := Parse(query); q != nil || err == nil || err.Error() != want {
			t.Errorf("Parse(%s) = %v, %v; want the error %q", query, q, err, want)
		}
	}
}

func TestAggregateSumNonNumericErrors(t *testing.T) {
	g := aggTestGraph()
	// SUM over the type strings: the aggregate errors, the projection
	// leaves ?n unbound rather than failing the query.
	res := execQuery(t, g, `SELECT (SUM(?t) AS ?n) WHERE { ?x <urn:type> ?t }`)
	if res.Len() != 1 {
		t.Fatalf("rows = %d", res.Len())
	}
	if !res.Get(0, "n").Zero() {
		t.Errorf("sum over strings = %v, want unbound", res.Get(0, "n"))
	}
}

func TestAggregateGroupByWithFilter(t *testing.T) {
	g := aggTestGraph()
	res := execQuery(t, g, `
SELECT ?t (COUNT(?x) AS ?n)
WHERE { ?x <urn:type> ?t . ?x <urn:cost> ?c . FILTER(?c >= 100) }
GROUP BY ?t
ORDER BY ?t`)
	// cost >= 100: TBSCAN x2, NLJOIN x2.
	if res.Len() != 2 {
		t.Fatalf("groups = %d: %v", res.Len(), res.Rows)
	}
}

func TestAggregateDistinctProjection(t *testing.T) {
	g := aggTestGraph()
	// DISTINCT over grouped rows is a no-op but must not break.
	res := execQuery(t, g, `
SELECT DISTINCT ?t (COUNT(?x) AS ?n)
WHERE { ?x <urn:type> ?t }
GROUP BY ?t`)
	if res.Len() != 4 {
		t.Errorf("rows = %d", res.Len())
	}
}
