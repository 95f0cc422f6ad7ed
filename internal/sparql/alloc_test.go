//go:build !race

package sparql_test

import (
	"testing"

	"optimatch/internal/kb"
	"optimatch/internal/rdf"
	"optimatch/internal/sparql"
	"optimatch/internal/transform"
	"optimatch/internal/workload"
)

// Allocation budgets of the evaluator. They live outside the race build: the
// race detector's instrumentation allocates, so testing.AllocsPerRun counts
// mean nothing under it.

// generatedGraph transforms one generated plan of ops operators carrying none
// of the canonical patterns.
func generatedGraph(t *testing.T, ops int) *rdf.Graph {
	t.Helper()
	w, err := workload.Generate(workload.Config{Seed: 14, NumPlans: 1, OpCounts: []int{ops}})
	if err != nil {
		t.Fatal(err)
	}
	return transform.Transform(w.Plans[0]).Graph
}

func allocsPerExec(t *testing.T, q *sparql.Query, g *rdf.Graph, wantRows int) float64 {
	t.Helper()
	exec := func() {
		res, err := q.ExecOpts(g, sparql.ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != wantRows {
			t.Fatalf("%d rows, want %d", res.Len(), wantRows)
		}
	}
	exec() // warm-up: the pooled evalCtx grows its buffers once
	return testing.AllocsPerRun(50, exec)
}

// An (entry, plan) pair that matches nothing must allocate next to nothing:
// the evaluation runs on a pooled evalCtx, the join on one binding row.
func TestAllocBudgetNoMatch(t *testing.T) {
	entry := kb.MustExtended().Entry("nljoin-inner-tbscan") // pattern A
	q, err := sparql.Parse(entry.SPARQL)
	if err != nil {
		t.Fatal(err)
	}
	g := generatedGraph(t, 120)
	if !q.Analysis().RequiredIn(g) {
		t.Fatal("the plan misses a required constant: the WHERE clause would not run")
	}
	if allocs := allocsPerExec(t, q, g, 0); allocs > 16 {
		t.Errorf("pattern A over a 120-operator plan without it: %.0f allocations per evaluation, budget 16", allocs)
	}
}

// Allocation is bounded by the result, not by the intermediate rows: a cross
// product whose DISTINCT result is one row (the shape of the knowledge base's
// expensive-subquery entry: the plan's root costs more than half of any
// operator) allocates the same over a plan with sixteen times the join rows.
func TestAllocBudgetCrossProduct(t *testing.T) {
	q, err := sparql.Parse(`PREFIX preduri: <http://optimatch/pred/>
SELECT DISTINCT ?top WHERE {
  ?top preduri:hasPopType "RETURN" .
  ?top preduri:hasTotalCost ?c1 .
  ?pop2 preduri:hasTotalCost ?c2 .
  ?pop3 preduri:hasTotalCost ?c3 .
  FILTER(?c1 > 0.5 * ?c2) .
  FILTER(?c1 > 0.5 * ?c3) .
} ORDER BY ?top`)
	if err != nil {
		t.Fatal(err)
	}
	small := allocsPerExec(t, q, generatedGraph(t, 60), 1)
	large := allocsPerExec(t, q, generatedGraph(t, 240), 1)
	if large > small+2 || large < small-2 {
		t.Errorf("allocations follow the join rows: %.0f over 60 operators, %.0f over 240", small, large)
	}
}
