//go:build !race

package sparql_test

import (
	"fmt"
	"slices"
	"strconv"
	"testing"
	"time"

	"optimatch/internal/kb"
	"optimatch/internal/rdf"
	"optimatch/internal/sparql"
	"optimatch/internal/transform"
	"optimatch/internal/workload"
)

// Allocation budgets of the evaluator, and its one wall-clock bound. They live
// outside the race build: the race detector's instrumentation allocates, so
// testing.AllocsPerRun counts mean nothing under it, and it slows the sort
// several times over.

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

// Parsing allocates for the query, not for deciding what it binds: the
// benchmark's five raw SPARQL requests, parsed, analysed and compiled, within
// the allocations measured when the compiler's one walk replaced the scope
// check and the required-constant analysis (488 for the five before).
func TestAllocBudgetParseDeck(t *testing.T) {
	budgets := []float64{63, 58, 68, 114, 93}
	for i, text := range sparql.BenchDeck {
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := sparql.Parse(text); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > budgets[i] {
			t.Errorf("deck query %d: %.0f allocations per parse, budget %.0f", i, allocs, budgets[i])
		}
	}
}

// The same-work budget beside the allocation budgets: what the join does for
// each entry of the extended knowledge base over the benchmark's 64 resident
// plans (joinWorkGraphs), as exact counts — recursion nodes (JoinRows) and
// matches tried (MatchRows), both functions of (query, graph) alone. A change
// to the estimates, the tie-break, the witness rule or where an EXISTS runs
// moves a number here before any benchmark runs; when the move is meant, the
// failure prints the table to paste. For scale, the evaluator before the
// estimates read predicate statistics, EXISTS ran as a filter and DISTINCT
// stopped at a witness (PR 17) did, in the same order of entries, 5 065 / 5 011,
// 1 279 / 1 279, 24 390 / 30 638, 2 799 / 3 192, 2 624 / 76 252, 3 051 / 3 416
// and 27 097 / 30 033: 66 305 recursion nodes and 149 821 matches in all.
func TestJoinWorkBudgetKB(t *testing.T) {
	want := map[string][2]int64{ // entry -> {JoinRows, MatchRows}
		"nljoin-inner-tbscan":       {5099, 5045},
		"loj-both-sides":            {1265, 1265},
		"scan-cardinality-collapse": {3514, 14381},
		"sort-spill":                {2799, 3192},
		"expensive-subquery":        {2624, 4010},
		"shared-temp":               {3051, 3416},
		"cartesian-join":            {3097, 6033},
	}
	graphs := joinWorkGraphs(t)
	table, failed := "", false
	for _, e := range kb.MustExtended().Entries() {
		q, err := sparql.Parse(e.SPARQL)
		if err != nil {
			t.Fatal(err)
		}
		var stats sparql.EvalStats
		for _, g := range graphs {
			if _, err := q.ExecOpts(g, sparql.ExecOptions{Stats: &stats}); err != nil {
				t.Fatal(err)
			}
		}
		got := stats.Snapshot()
		table += fmt.Sprintf("\t\t%q: {%d, %d},\n", e.Name, got.JoinRows, got.MatchRows)
		if w, ok := want[e.Name]; !ok || w != [2]int64{got.JoinRows, got.MatchRows} {
			failed = true
			t.Errorf("%s: %d recursion nodes and %d matches tried over the %d plans, pinned at %v", e.Name, got.JoinRows, got.MatchRows, len(graphs), w)
		}
	}
	if failed {
		t.Logf("measured:\n%s", table)
	}
}

// The estimates' quality beside the work they bought: the q-error of every
// step the extended knowledge base's entries ran over the benchmark's 64
// resident plans (joinWorkGraphs), in the sense of "Neuro-Symbolic Query
// Optimization in Knowledge Graphs" — max(e/a, a/e) for a step's estimate e
// of the rows out per row in against the rate a = Extends/Descends it then
// showed. A step that never ran (Descends 0) has no rate and is left out.
// Either side at zero is floored at 1/Descends, the finest rate the step's
// descends could show, so that a step estimated and found empty has q-error 1
// and none is infinite. The median and the maximum over all steps are pinned;
// when they move, the failure prints each entry's to compare.
func TestQErrorBudgetKB(t *testing.T) {
	const wantMedian, wantMax = "1.14352", "2433.5"
	graphs := joinWorkGraphs(t)
	summary := func(qs []float64) (median, max float64) {
		slices.Sort(qs)
		return (qs[(len(qs)-1)/2] + qs[len(qs)/2]) / 2, qs[len(qs)-1]
	}
	var all []float64
	table := ""
	for _, e := range kb.MustExtended().Entries() {
		q, err := sparql.Parse(e.SPARQL)
		if err != nil {
			t.Fatal(err)
		}
		var qs []float64
		for _, g := range graphs {
			ex, err := sparql.Explain(q, g)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range ex.Blocks {
				for _, st := range b.Steps {
					if st.Descends == 0 {
						continue
					}
					floor := 1 / float64(st.Descends)
					est, act := max(st.Estimate, floor), max(float64(st.Extends)/float64(st.Descends), floor)
					qs = append(qs, max(est/act, act/est))
				}
			}
		}
		all = append(all, qs...)
		median, worst := summary(qs)
		table += fmt.Sprintf("\t%-26s %5d steps  median %8.6g  max %8.6g\n", e.Name, len(qs), median, worst)
	}
	median, worst := summary(all)
	if got := [2]string{fmt.Sprintf("%.6g", median), fmt.Sprintf("%.6g", worst)}; got != [2]string{wantMedian, wantMax} {
		t.Errorf("q-error over %d steps: median %s, max %s; pinned at %s, %s\n%s", len(all), got[0], got[1], wantMedian, wantMax, table)
	}
}

// The grouped tail allocates for its result rows, not for its groups: the
// benchmark's qGroup shape costs the same over a plan with four times the
// operators (12 groups over 60 operators, 13 over 240; a group costs its key
// string, nothing else). Grouping used to cost a map of values, a string key
// and an expression tree per use for every group, and a term-space copy of
// every WHERE row before that. (The benchmark's second sort key, ?type, is left
// out: a tie on ?n compares two type names, rdf.Term.Compare tries them as
// numbers first, and strconv's error allocates — the count would follow the
// ties.)
func TestAllocBudgetGroupedTail(t *testing.T) {
	q, err := sparql.Parse(`PREFIX preduri: <http://optimatch/pred/>
SELECT ?type (COUNT(?pop) AS ?n) WHERE {
  ?pop preduri:hasPopType ?type .
  ?pop preduri:hasIOCost ?io .
  FILTER(?io > 100) .
}
GROUP BY ?type
ORDER BY DESC(?n)
LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	small := allocsPerExec(t, q, generatedGraph(t, 60), 5)
	if mid := allocsPerExec(t, q, generatedGraph(t, 120), 5); mid > 40 {
		t.Errorf("qGroup over a 120-operator plan: %.0f allocations per evaluation, budget 40", mid)
	}
	large := allocsPerExec(t, q, generatedGraph(t, 240), 5)
	if large > small+2 || large < small-2 {
		t.Errorf("allocations follow the groups: %.0f over 60 operators, %.0f over 240", small, large)
	}
}

// Grouped ORDER BY goes through the tail's one stable sort: 32 000 groups in
// pseudo-random order took 49 s through the insertion sort the grouped tail
// used to have, a third of a second now. The fastest of three runs counts, so
// that a neighbour's burst of load does not. The answer is the last
// sparql.MaxRows groups of the order — an OFFSET past the others, which the
// sort must still place —, as many as the row ceiling lets through.
func TestTailSortsManyGroups(t *testing.T) {
	const n = 32000
	b := rdf.NewBuilder()
	for i := 0; i < n; i++ {
		b.Add(rdf.IRI(fmt.Sprintf("urn:pop%d", i)), rdf.IRI("http://optimatch/pred/hasPopType"), rdf.String(fmt.Sprintf("T%05d", i*7919%n)))
	}
	g := b.Graph()
	q, err := sparql.Parse(`PREFIX pred: <http://optimatch/pred/>
SELECT ?type (COUNT(?pop) AS ?n) WHERE { ?pop pred:hasPopType ?type } GROUP BY ?type ORDER BY DESC(?n) DESC(?type)
OFFSET ` + strconv.Itoa(n-sparql.MaxRows))
	if err != nil {
		t.Fatal(err)
	}
	fastest := time.Hour
	for run := 0; run < 3 && fastest > time.Second; run++ {
		start := time.Now()
		res, err := q.Exec(g)
		if err != nil {
			t.Fatal(err)
		}
		fastest = min(fastest, time.Since(start))
		if res.Len() != sparql.MaxRows || res.Rows[0][0].Value != fmt.Sprintf("T%05d", sparql.MaxRows-1) || res.Rows[sparql.MaxRows-1][0].Value != "T00000" {
			t.Fatalf("%d rows from %v to %v", res.Len(), res.Rows[0], res.Rows[res.Len()-1])
		}
	}
	if fastest > time.Second {
		t.Errorf("ordering %d groups took %v at best, want under 1s", n, fastest)
	}
}
