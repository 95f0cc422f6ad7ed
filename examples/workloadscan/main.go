// Workloadscan demonstrates the paper's motivating scenario: a DBA facing a
// large workload of explain files asks ad-hoc structural questions that
// grep cannot answer, expressed as user-defined patterns:
//
//  1. "Find all queries that might have a spilling hash join below an
//     aggregation and whose cost is more than a constant N" (paper §1).
//  2. "Find queries doing a table scan whose plan total cost is high — what
//     would an index buy us?"
//  3. A raw SPARQL query over the workload's RDF form for everything else.
//
// Run with: go run ./examples/workloadscan
package main

import (
	"context"
	"fmt"
	"log"

	"optimatch"
)

func main() {
	// Stand-in for a directory of customer explain files: a seeded
	// synthetic workload with known problem injections.
	w, err := optimatch.GenerateWorkload(optimatch.WorkloadConfig{
		Seed:     7,
		NumPlans: 200,
		MinOps:   40,
		MaxOps:   160,
		InjectA:  20, InjectB: 14, InjectC: 22, InjectD: 16,
	})
	if err != nil {
		log.Fatal(err)
	}
	eng := optimatch.New()
	if err := eng.LoadPlans(w.Plans); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Workload loaded: %d plans\n\n", eng.NumPlans())

	// Question 1: hash join below an aggregation, expensive plan.
	b := optimatch.NewPatternBuilder("hsjoin-under-aggregation",
		"hash join somewhere below an aggregation in an expensive plan")
	agg := b.Pop("GRPBY").Alias("AGG")
	join := b.Pop("HSJOIN").Alias("JOIN")
	agg.Descendant(join)
	join.Where("hasTotalCost", ">", 50000)
	p1, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	m1, err := eng.FindPattern(context.Background(), p1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Q1: %d occurrence(s) of an expensive HSJOIN below a GRPBY, e.g.:\n", len(m1))
	for i, m := range m1 {
		if i == 3 {
			fmt.Println("  ...")
			break
		}
		fmt.Println(" ", m.String())
	}

	// Question 2: spilling sorts (Pattern D) across the workload — how many
	// queries would benefit from more sort memory?
	m2, err := eng.FindPattern(context.Background(), optimatch.PatternD())
	if err != nil {
		log.Fatal(err)
	}
	plans := map[string]bool{}
	for _, m := range m2 {
		plans[m.Plan().ID] = true
	}
	fmt.Printf("\nQ2: %d plan(s) contain a spilling SORT (injected: %d)\n",
		len(plans), w.Truth.Count("D"))

	// Question 3: raw SPARQL — table scans over tables bigger than 1e6 rows,
	// with the table name in the projection.
	query := `
PREFIX preduri: <http://optimatch/pred/>
SELECT ?scan AS ?SCAN ?obj AS ?TABLE
WHERE {
  ?scan preduri:hasPopType "TBSCAN" .
  ?scan preduri:hasChildPop ?obj .
  ?obj preduri:isABaseObj ?h1 .
  ?obj preduri:hasEstimateCardinality ?card .
  FILTER(?card > 1000000) .
}
ORDER BY ?scan`
	q3, err := optimatch.ParseSPARQL(query)
	if err != nil {
		log.Fatal(err)
	}
	m3, err := eng.FindSPARQL(context.Background(), q3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nQ3: %d full scan(s) of tables above one million rows, e.g.:\n", len(m3))
	for i, m := range m3 {
		if i == 3 {
			fmt.Println("  ...")
			break
		}
		fmt.Println(" ", m.String())
	}

	// Question 4: per-plan analytics with SPARQL aggregation — the top
	// operator types of the most expensive plan, by total self-cost.
	var costliest *optimatch.Plan
	for _, p := range w.Plans {
		if costliest == nil || p.TotalCost > costliest.TotalCost {
			costliest = p
		}
	}
	aggQuery := `
PREFIX preduri: <http://optimatch/pred/>
SELECT ?t (COUNT(?op) AS ?n) (SUM(?self) AS ?selfCost)
WHERE {
  ?op preduri:hasPopType ?t .
  ?op preduri:hasTotalCostIncrease ?self .
  ?op preduri:hasOperatorNumber ?num .
}
GROUP BY ?t
HAVING (SUM(?self) > 0)
ORDER BY DESC(SUM(?self))
LIMIT 5`
	eng4 := optimatch.New()
	if err := eng4.LoadPlans([]*optimatch.Plan{costliest}); err != nil {
		log.Fatal(err)
	}
	q4, err := optimatch.ParseSPARQL(aggQuery)
	if err != nil {
		log.Fatal(err)
	}
	m4, err := eng4.FindSPARQL(context.Background(), q4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nQ4: costliest plan %s (cost %.0f) — operator types by own cost:\n",
		costliest.ID, costliest.TotalCost)
	for _, m := range m4 {
		fmt.Printf("  %-8s x%-4s self-cost %s\n",
			m.Display(m.Column("t")), m.Display(m.Column("n")), m.Display(m.Column("selfCost")))
	}
}
