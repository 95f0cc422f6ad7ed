package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"optimatch/internal/kb"
	"optimatch/internal/pattern"
	"optimatch/internal/sparql"
	"optimatch/internal/transform"
	"optimatch/internal/workload"
)

func generated(t *testing.T, cfg workload.Config) []*transform.Result {
	t.Helper()
	w, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return transform.TransformAll(w.Plans)
}

// renderReports serializes KB reports canonically so two engines can be
// compared byte for byte.
func renderReports(reports []PlanReport) string {
	var b strings.Builder
	for i := range reports {
		fmt.Fprintf(&b, "plan %s: %s\n", reports[i].Plan.ID, reports[i].Message())
		for _, rec := range reports[i].Recommendations {
			fmt.Fprintf(&b, "  [%s %.6f] %s: %s\n",
				rec.Entry.Name, rec.Confidence, rec.Recommendation.Title, rec.Text)
		}
	}
	return b.String()
}

// renderMatches flattens a match list, in order, to a canonical string.
func renderMatches(ms []transform.Match) string {
	var b strings.Builder
	for i := range ms {
		b.WriteString(ms[i].String())
		b.WriteString("\n")
	}
	return b.String()
}

// sortedMatches renders FindSPARQL matches order-independently (for queries
// without a total ORDER BY, within-plan row order is not specified).
func sortedMatches(ms []transform.Match) []string {
	out := make([]string, len(ms))
	for i := range ms {
		out[i] = ms[i].String()
	}
	sort.Strings(out)
	return out
}

// TestWorkerPoolParallel runs the bounded worker pool with more workers
// than this machine has cores and checks results against a serial engine —
// the pool must not change outcomes or order (also the race-detector
// coverage for the concurrent scan paths).
func TestWorkerPoolParallel(t *testing.T) {
	rs := generated(t, workload.Config{
		Seed: 3, NumPlans: 30, MinOps: 30, MaxOps: 80,
		InjectA: 5, InjectB: 4, InjectC: 6,
	})
	serial := New(WithWorkers(1))
	pooled := New(WithWorkers(4))
	for _, r := range rs {
		if err := serial.LoadResult(r); err != nil {
			t.Fatal(err)
		}
		if err := pooled.LoadResult(r); err != nil {
			t.Fatal(err)
		}
	}
	k := kb.MustExtended()
	sr, err := serial.RunKB(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := pooled.RunKB(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderReports(pr), renderReports(sr); got != want {
		t.Fatalf("worker pool changed KB reports:\n--- pooled ---\n%s--- serial ---\n%s", got, want)
	}
	q := mustParseSPARQL(t, transform.Prologue+`SELECT ?pop WHERE { ?pop preduri:hasJoinType "LEFT_OUTER" }`)
	sm, err := serial.FindSPARQL(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := pooled.FindSPARQL(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	gs, ws := sortedMatches(pm), sortedMatches(sm)
	if len(gs) != len(ws) {
		t.Fatalf("worker pool: %d matches vs %d serial", len(gs), len(ws))
	}
	for i := range gs {
		if gs[i] != ws[i] {
			t.Fatalf("worker pool match %d differs: %s vs %s", i, gs[i], ws[i])
		}
	}
}

// rawQueries are the five raw query shapes the benchmark sends to
// /api/sparql (bench/gen.go: descent, closure, filter, OPTIONAL under a
// UNION, GROUP BY with ORDER BY and LIMIT), with one threshold each.
var rawQueries = []string{
	transform.Prologue + `SELECT ?top ?join WHERE {
  ?top preduri:hasPopType "RETURN" .
  ?top preduri:hasChildPop+ ?join .
  ?join preduri:hasPopType "NLJOIN" .
}`,
	transform.Prologue + `SELECT ?anc ?sort WHERE {
  ?anc preduri:hasChildPop+ ?sort .
  ?sort preduri:hasPopType "SORT" .
}`,
	transform.Prologue + `SELECT ?pop ?card WHERE {
  ?pop preduri:hasPopClass "JOIN" .
  ?pop preduri:hasEstimateCardinality ?card .
  FILTER(?card > 1000) .
}`,
	transform.Prologue + `SELECT ?pop ?cost ?pred WHERE {
  { ?pop preduri:hasPopType "FILTER" . } UNION { ?pop preduri:hasPopType "GRPBY" . }
  ?pop preduri:hasTotalCost ?cost .
  OPTIONAL { ?pop preduri:hasPredicateText ?pred . }
  FILTER(?cost > 1000) .
}`,
	transform.Prologue + `SELECT ?type (COUNT(?pop) AS ?n) WHERE {
  ?pop preduri:hasPopType ?type .
  ?pop preduri:hasIOCost ?io .
  FILTER(?io > 100) .
}
GROUP BY ?type
ORDER BY DESC(?n) ?type
LIMIT 5`,
}

// TestFindFormsAgree: there is one way to ask — find, on a parsed query — and
// three ways to get there. A pattern, its compiled form and the compiled
// form's text must give the same matches; the query Compile parsed must be
// the query its text parses to; and a raw query through the worker pool must
// give, plan by plan in load order, the rows its evaluation gives.
func TestFindFormsAgree(t *testing.T) {
	rs := generated(t, workload.Config{
		Seed: 21, NumPlans: 16, MinOps: 30, MaxOps: 80,
		InjectA: 3, InjectB: 2, InjectC: 3, InjectD: 2, InjectG: 1,
	})
	e := New(WithWorkers(3))
	for _, r := range rs {
		if err := e.LoadResult(r); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	total := 0
	for _, p := range pattern.Extended() {
		c, err := pattern.Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		byPattern, err := e.FindPattern(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		byCompiled, err := e.FindCompiled(ctx, c)
		if err != nil {
			t.Fatal(err)
		}
		reparsed, err := sparql.Parse(c.Query)
		if err != nil {
			t.Fatal(err)
		}
		byText, err := e.FindSPARQL(ctx, reparsed)
		if err != nil {
			t.Fatal(err)
		}
		want := renderMatches(byCompiled)
		if got := renderMatches(byPattern); got != want {
			t.Errorf("%s: FindPattern and FindCompiled differ:\n%s--- vs ---\n%s", p.Name, got, want)
		}
		if got := renderMatches(byText); got != want {
			t.Errorf("%s: FindSPARQL(c.Query) and FindCompiled differ:\n%s--- vs ---\n%s", p.Name, got, want)
		}
		total += len(byCompiled)
		for _, r := range rs[:4] {
			ex1, err1 := sparql.Explain(c.Parsed, r.Graph)
			ex2, err2 := sparql.Explain(reparsed, r.Graph)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if ex1.String() != ex2.String() {
				t.Errorf("%s on %s: Compile's parsed query is not its text's:\n%s--- vs ---\n%s", p.Name, r.Plan.ID, ex1, ex2)
			}
		}
	}
	if total == 0 {
		t.Error("no pattern matched any plan: the comparison compared nothing")
	}

	for qi, text := range rawQueries {
		q, err := sparql.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.FindSPARQL(ctx, q)
		if err != nil {
			t.Fatalf("raw query %d: %v", qi, err)
		}
		n := 0
		for _, r := range rs {
			res, err := q.Exec(r.Graph)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < res.Len(); i, n = i+1, n+1 {
				if n >= len(got) || got[n].Plan() != r.Plan {
					t.Fatalf("raw query %d: match %d is not row %d of plan %s", qi, n, i, r.Plan.ID)
				}
				for c, v := range res.Vars {
					if name, term := got[n].Cols.Names()[c], got[n].Term(c); name != v || term != res.At(i, c) {
						t.Fatalf("raw query %d, plan %s row %d: column %d = %s=%v, want %s=%v",
							qi, r.Plan.ID, i, c, name, term, v, res.At(i, c))
					}
				}
			}
		}
		if n != len(got) || n == 0 {
			t.Errorf("raw query %d: %d matches, the plans evaluate to %d rows (want equal, and some)", qi, len(got), n)
		}
	}
}
