package transform

import (
	"strings"
	"testing"

	"optimatch/internal/qep"
	"optimatch/internal/rdf"
	"optimatch/internal/sparql"
)

// figure1Plan mirrors the fixture in the qep package tests.
func figure1Plan(t *testing.T) *qep.Plan {
	t.Helper()
	p := qep.NewPlan("Q2")
	p.Statement = "SELECT * FROM SALES_FACT F JOIN CUST_DIM C ON F.CUST_ID = C.CUST_ID"
	p.TotalCost = 15782.2

	salesFact := p.AddObject(&qep.BaseObject{Name: "SALES_FACT", Type: "TABLE", Cardinality: 1e7, Columns: []string{"CUST_ID", "SALE_AMT"}})
	custDim := p.AddObject(&qep.BaseObject{Name: "CUST_DIM", Type: "TABLE", Cardinality: 4043, Columns: []string{"CUST_ID", "CUST_NAME"}})

	ret := &qep.Operator{ID: 1, Type: "RETURN", TotalCost: 15782.2, IOCost: 1320, Cardinality: 19.12}
	nl := &qep.Operator{ID: 2, Type: "NLJOIN", TotalCost: 15771, IOCost: 1318, Cardinality: 19.12,
		Args: map[string]string{"FETCHMAX": "IGNORE"}, Predicates: []string{"(Q1.CUST_ID = Q2.CUST_ID)"}}
	fetch := &qep.Operator{ID: 3, Type: "FETCH", TotalCost: 19.12, IOCost: 2, Cardinality: 19.12}
	ix := &qep.Operator{ID: 4, Type: "IXSCAN", TotalCost: 12.3, IOCost: 1, Cardinality: 19.12}
	tb := &qep.Operator{ID: 5, Type: "TBSCAN", TotalCost: 15771, IOCost: 1316, Cardinality: 4043}
	for _, op := range []*qep.Operator{ret, nl, fetch, ix, tb} {
		if err := p.AddOperator(op); err != nil {
			t.Fatal(err)
		}
	}
	p.Link(ret, qep.GeneralStream, nl, nil, 19.12, nil)
	p.Link(nl, qep.OuterStream, fetch, nil, 19.12, []string{"Q2.SALE_AMT", "Q2.CUST_ID"})
	p.Link(nl, qep.InnerStream, tb, nil, 4043, []string{"Q1.CUST_NAME", "Q1.CUST_ID"})
	p.Link(fetch, qep.GeneralStream, ix, nil, 19.12, nil)
	p.Link(ix, qep.GeneralStream, nil, salesFact, 1e7, nil)
	p.Link(tb, qep.GeneralStream, nil, custDim, 4043, nil)
	if err := p.Resolve(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestTransformBasicProperties(t *testing.T) {
	p := figure1Plan(t)
	r := Transform(p)
	g := r.Graph

	nl := r.PopIRI(p.Op(2))
	if got := g.FirstObject(nl, rdf.IRI(PredPopType)); got.Value != "NLJOIN" {
		t.Errorf("hasPopType = %v", got)
	}
	if got := g.FirstObject(nl, rdf.IRI(PredPopClass)); got.Value != "JOIN" {
		t.Errorf("hasPopClass = %v", got)
	}
	if f, _ := g.FirstObject(nl, rdf.IRI(PredTotalCost)).Float(); f != 15771 {
		t.Errorf("hasTotalCost = %v", f)
	}
	if f, _ := g.FirstObject(nl, rdf.IRI(PredCardinality)).Float(); f != 19.12 {
		t.Errorf("cardinality = %v", f)
	}
	if got := g.FirstObject(nl, rdf.IRI(ArgNS+"FETCHMAX")); got.Value != "IGNORE" {
		t.Errorf("arg = %v", got)
	}
	if got := g.FirstObject(nl, rdf.IRI(PredPredicateText)); !strings.Contains(got.Value, "CUST_ID") {
		t.Errorf("predicate text = %v", got)
	}
	if got := g.FirstObject(nl, rdf.IRI(PredJoinType)); got.Value != "INNER" {
		t.Errorf("join type = %v", got)
	}
}

func TestTransformDerivedCostIncrease(t *testing.T) {
	p := figure1Plan(t)
	r := Transform(p)
	fetch := r.PopIRI(p.Op(3))
	f, ok := r.Graph.FirstObject(fetch, rdf.IRI(PredTotalCostIncrease)).Float()
	if !ok {
		t.Fatal("hasTotalCostIncrease missing")
	}
	if want := p.Op(3).SelfCost(); f != want {
		t.Errorf("cost increase = %v, want %v", f, want)
	}
}

func TestTransformReifiedStreams(t *testing.T) {
	p := figure1Plan(t)
	r := Transform(p)
	g := r.Graph
	nl := r.PopIRI(p.Op(2))
	tb := r.PopIRI(p.Op(5))

	// NLJOIN --hasInnerInputStream--> stream --hasInnerInputStream--> TBSCAN
	streams := g.Objects(nl, rdf.IRI(PredInnerInputStream))
	if len(streams) != 1 {
		t.Fatalf("inner streams = %v", streams)
	}
	stream := streams[0]
	if got := g.FirstObject(stream, rdf.IRI(PredInnerInputStream)); got != tb {
		t.Errorf("stream child = %v, want %v", got, tb)
	}
	// Reverse hasOutputStream edges.
	if !g.Has(tb, rdf.IRI(PredOutputStream), stream) {
		t.Error("child hasOutputStream stream edge missing")
	}
	if !g.Has(stream, rdf.IRI(PredOutputStream), nl) {
		t.Error("stream hasOutputStream parent edge missing")
	}
	// Stream carries rows and columns.
	if f, _ := g.FirstObject(stream, rdf.IRI(PredStreamRows)).Float(); f != 4043 {
		t.Errorf("stream rows = %v", f)
	}
	if cols := g.Objects(stream, rdf.IRI(PredStreamColumn)); len(cols) != 2 {
		t.Errorf("stream columns = %v", cols)
	}
}

func TestTransformDerivedChildEdges(t *testing.T) {
	p := figure1Plan(t)
	r := Transform(p)
	g := r.Graph
	nl := r.PopIRI(p.Op(2))
	fetch := r.PopIRI(p.Op(3))
	tb := r.PopIRI(p.Op(5))

	if !g.Has(nl, rdf.IRI(PredChildPop), fetch) || !g.Has(nl, rdf.IRI(PredChildPop), tb) {
		t.Error("hasChildPop edges missing")
	}
	if !g.Has(nl, rdf.IRI(PredOuterChildPop), fetch) {
		t.Error("hasOuterChildPop missing")
	}
	if !g.Has(nl, rdf.IRI(PredInnerChildPop), tb) {
		t.Error("hasInnerChildPop missing")
	}
	if g.Has(nl, rdf.IRI(PredOuterChildPop), tb) {
		t.Error("inner child has outer edge")
	}
}

func TestTransformBaseObjects(t *testing.T) {
	p := figure1Plan(t)
	r := Transform(p)
	g := r.Graph
	cd := r.ObjIRI(p.Objects["CUST_DIM"])
	if v, _ := g.FirstObject(cd, rdf.IRI(PredIsBaseObj)).Bool(); !v {
		t.Error("isABaseObj missing")
	}
	if got := g.FirstObject(cd, rdf.IRI(PredPopType)); got.Value != BaseObjType {
		t.Errorf("object pop type = %v", got)
	}
	if got := g.FirstObject(cd, rdf.IRI(PredName)); got.Value != "CUST_DIM" {
		t.Errorf("hasName = %v", got)
	}
	if cols := g.Objects(cd, rdf.IRI(PredColumn)); len(cols) != 2 {
		t.Errorf("object columns = %v", cols)
	}
	// TBSCAN is linked to CUST_DIM through a reified general stream.
	tb := r.PopIRI(p.Op(5))
	if !g.Has(tb, rdf.IRI(PredChildPop), cd) {
		t.Error("scan -> object child edge missing")
	}
}

func TestTransformPlanResource(t *testing.T) {
	p := figure1Plan(t)
	r := Transform(p)
	g := r.Graph
	plan := r.PlanIRI()
	if got := g.FirstObject(plan, rdf.IRI(PredStatementID)); got.Value != "Q2" {
		t.Errorf("statement id = %v", got)
	}
	if f, _ := g.FirstObject(plan, rdf.IRI(PredNumOperators)).Float(); f != 5 {
		t.Errorf("num operators = %v", f)
	}
	if got := g.FirstObject(plan, rdf.IRI(PredRootPop)); got != r.PopIRI(p.Root) {
		t.Errorf("root pop = %v", got)
	}
}

func TestDetransformation(t *testing.T) {
	p := figure1Plan(t)
	r := Transform(p)
	nlIRI := r.PopIRI(p.Op(2))
	if op := r.Operator(nlIRI); op == nil || op.ID != 2 {
		t.Errorf("Operator() = %v", op)
	}
	if obj := r.Object(r.ObjIRI(p.Objects["CUST_DIM"])); obj == nil || obj.Name != "CUST_DIM" {
		t.Errorf("Object() = %v", obj)
	}
	if r.Operator(rdf.String("x")) != nil || r.Object(rdf.IRI("urn:none")) != nil {
		t.Error("de-transform of non-resources should be nil")
	}
	if got := r.Describe(nlIRI); got != "NLJOIN(2)" {
		t.Errorf("Describe = %q", got)
	}
	if got := r.Describe(r.ObjIRI(p.Objects["CUST_DIM"])); got != "CUST_DIM" {
		t.Errorf("Describe obj = %q", got)
	}
	if got := r.Describe(rdf.IRI("urn:other")); got != "urn:other" {
		t.Errorf("Describe other = %q", got)
	}
}

// TestFigure6QueryAgainstTransformedPlan runs (a faithful rendition of) the
// paper's Figure 6 autogenerated SPARQL against the transformed Figure 1
// plan and checks the expected match.
func TestFigure6QueryAgainstTransformedPlan(t *testing.T) {
	p := figure1Plan(t)
	r := Transform(p)

	query := Prologue + `
SELECT ?pop1 AS ?TOP ?pop2 AS ?ANY2 ?pop4 AS ?BASE4
WHERE {
  ?pop1 preduri:hasPopType "NLJOIN" .
  ?pop1 preduri:hasOuterInputStream ?BNodeOfPop2_to_Pop1 .
  ?BNodeOfPop2_to_Pop1 preduri:hasOuterInputStream ?pop2 .
  ?pop2 preduri:hasOutputStream ?BNodeOfPop2_to_Pop1 .
  ?BNodeOfPop2_to_Pop1 preduri:hasOutputStream ?pop1 .
  ?pop1 preduri:hasInnerInputStream ?BNodeOfPop3_to_Pop1 .
  ?BNodeOfPop3_to_Pop1 preduri:hasInnerInputStream ?pop3 .
  ?pop3 preduri:hasOutputStream ?BNodeOfPop3_to_Pop1 .
  ?BNodeOfPop3_to_Pop1 preduri:hasOutputStream ?pop1 .
  ?pop3 preduri:hasPopType "TBSCAN" .
  ?pop3 preduri:hasEstimateCardinality ?internalHandler1 .
  FILTER(?internalHandler1 > 100) .
  ?pop3 preduri:hasInputStream ?BNodeOfPop4_to_Pop3 .
  ?BNodeOfPop4_to_Pop3 preduri:hasInputStream ?pop4 .
  ?pop4 preduri:hasOutputStream ?BNodeOfPop4_to_Pop3 .
  ?BNodeOfPop4_to_Pop3 preduri:hasOutputStream ?pop3 .
  ?pop4 preduri:isABaseObj ?internalHandler2 .
}
ORDER BY ?pop1`
	q, err := sparql.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Exec(r.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("matches = %d, want 1", res.Len())
	}
	if op := r.Operator(res.Get(0, "TOP")); op == nil || op.Type != "NLJOIN" {
		t.Errorf("TOP = %v", res.Get(0, "TOP"))
	}
	if obj := r.Object(res.Get(0, "BASE4")); obj == nil || obj.Name != "CUST_DIM" {
		t.Errorf("BASE4 = %v", res.Get(0, "BASE4"))
	}
	if op := r.Operator(res.Get(0, "ANY2")); op == nil || op.Type != "FETCH" {
		t.Errorf("ANY2 = %v", res.Get(0, "ANY2"))
	}
}

func TestTransformAll(t *testing.T) {
	p1 := figure1Plan(t)
	p2 := figure1Plan(t)
	p2.ID = "Q3"
	rs := TransformAll([]*qep.Plan{p1, p2})
	if len(rs) != 2 {
		t.Fatalf("results = %d", len(rs))
	}
	if rs[0].Graph.Len() == 0 || rs[1].Graph.Len() == 0 {
		t.Error("empty graphs")
	}
	// Resources are namespaced by plan ID, so the two graphs don't collide.
	if rs[0].PopIRI(p1.Op(2)) == rs[1].PopIRI(p2.Op(2)) {
		t.Error("plan namespaces collide")
	}
}

// A plan's graph iterates as a function of its Add sequence, so Transform
// must produce one sequence per plan — in particular not the map order of an
// operator's arguments. (That the graph is frozen is its type: an rdf.Graph
// has no method that writes.)
func TestTransformIsDeterministicAndFrozen(t *testing.T) {
	p := figure1Plan(t)
	p.Op(2).Args = map[string]string{"FETCHMAX": "IGNORE", "EARLYOUT": "NONE", "JN INPUT": "OUTER", "BITFLTR": "FALSE", "INNERCOL": "1", "OUTERCOL": "2"}
	want := Transform(p).Graph.Triples()
	for i := 0; i < 20; i++ {
		got := Transform(p).Graph.Triples()
		if len(got) != len(want) {
			t.Fatalf("run %d: %d triples, want %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("run %d: triple %d = %v, first run had %v", i, j, got[j], want[j])
			}
		}
	}
}
