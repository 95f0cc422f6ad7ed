package optimatch

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"optimatch/internal/fixtures"
)

// TestPublicAPIEndToEnd drives the whole pipeline through the facade only:
// plan text -> engine -> pattern search -> knowledge-base recommendations.
func TestPublicAPIEndToEnd(t *testing.T) {
	eng := New(WithWorkers(2))

	var buf bytes.Buffer
	if err := WritePlan(&buf, fixtures.Figure1()); err != nil {
		t.Fatal(err)
	}
	plan, err := eng.LoadText(buf.String())
	if err != nil {
		t.Fatal(err)
	}
	if plan.ID != "Q2" {
		t.Fatalf("plan = %s", plan.ID)
	}

	// Render for humans.
	if !strings.Contains(RenderPlan(plan), "NLJOIN") {
		t.Error("rendered plan missing NLJOIN")
	}

	// Canonical pattern search.
	matches, err := eng.FindPattern(context.Background(), PatternA())
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || matches[0].Display(matches[0].Column("BASE4")) != "CUST_DIM" {
		t.Fatalf("matches = %+v", matches)
	}

	// Knowledge-base scan.
	reports, err := eng.RunKB(context.Background(), CanonicalKB())
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || !reports[0].HasRecommendations() {
		t.Fatalf("reports = %+v", reports)
	}
	if s := Summarize(reports); s.PlansMatched != 1 {
		t.Errorf("summary = %+v", s)
	}
}

func TestPublicAPICustomPattern(t *testing.T) {
	b := NewPatternBuilder("expensive-sort-over-join", "sort above any join")
	srt := b.Pop("SORT")
	j := b.Pop(TypeJoin)
	srt.Descendant(j)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c, err := CompilePattern(p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c.Query, "SELECT") {
		t.Error("compiled query malformed")
	}

	// JSON round trip through the facade.
	data, err := p.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ParsePatternJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Name != p.Name {
		t.Error("JSON round trip lost name")
	}
}

func TestPublicAPIClustering(t *testing.T) {
	w, err := GenerateWorkload(WorkloadConfig{Seed: 9, NumPlans: 24, MinOps: 15, MaxOps: 120, InjectA: 6})
	if err != nil {
		t.Fatal(err)
	}
	eng := New()
	if err := eng.LoadPlans(w.Plans); err != nil {
		t.Fatal(err)
	}
	clusters, err := ClusterWorkload(w.Plans, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if clusters.K() != 3 {
		t.Fatalf("K = %d", clusters.K())
	}
	matches, err := eng.FindPattern(context.Background(), PatternA())
	if err != nil {
		t.Fatal(err)
	}
	pc := CorrelateMatches(clusters, "A", matches, len(w.Plans))
	if pc.Overall <= 0 {
		t.Errorf("overall rate = %v", pc.Overall)
	}
	sum := 0.0
	for c, cl := range clusters.Clusters {
		sum += pc.Rate[c] * float64(len(cl.PlanIDs))
	}
	if diff := sum - pc.Overall*float64(len(w.Plans)); diff > 1e-9 || diff < -1e-9 {
		t.Errorf("cluster rates inconsistent with overall: %v", diff)
	}
}

func TestPublicAPIGenericGraph(t *testing.T) {
	b := NewGraphBuilder()
	b.Add(IRI("urn:e1"), IRI("urn:kind"), Lit("REQUEST"))
	b.Add(IRI("urn:e1"), IRI("urn:caused"), IRI("urn:e2"))
	b.Add(IRI("urn:e2"), IRI("urn:kind"), Lit("TIMEOUT"))
	b.Add(IRI("urn:e2"), IRI("urn:latency"), Num(5000))
	b.Add(IRI("urn:e2"), IRI("urn:flag"), BoolTerm(true))
	g := b.Graph()
	_ = Blank("b")

	res, err := Query(g, `SELECT ?r WHERE { ?r <urn:kind> "REQUEST" . ?r <urn:caused>+ ?t . ?t <urn:kind> "TIMEOUT" }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Get(0, "r").Value != "urn:e1" {
		t.Fatalf("rows = %v", res.Rows)
	}
	if _, err := Query(g, "not sparql"); err == nil {
		t.Error("bad query accepted")
	}

	var buf bytes.Buffer
	if err := WriteNTriples(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadNTriples(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Len() != g.Len() {
		t.Errorf("round trip = %d triples, want %d", g2.Len(), g.Len())
	}
}

func TestPublicAPIWorkloadAndKBPersistence(t *testing.T) {
	w, err := GenerateWorkload(WorkloadConfig{Seed: 5, NumPlans: 8, MinOps: 15, MaxOps: 30, InjectA: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng := New()
	if err := eng.LoadPlans(w.Plans); err != nil {
		t.Fatal(err)
	}
	matches, err := eng.FindPattern(context.Background(), PatternA())
	if err != nil {
		t.Fatal(err)
	}
	planSet := map[string]bool{}
	for _, m := range matches {
		planSet[m.Plan().ID] = true
	}
	if len(planSet) != 2 {
		t.Errorf("matched plans = %d, want 2", len(planSet))
	}

	var buf bytes.Buffer
	k := CanonicalKB()
	if err := k.Save(&buf); err != nil {
		t.Fatal(err)
	}
	k2, err := LoadKB(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if k2.Len() != k.Len() {
		t.Error("KB persistence through facade broken")
	}
}
