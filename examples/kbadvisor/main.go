// Kbadvisor demonstrates the knowledge-base workflow of Section 2.3: an
// expert authors a custom pattern with recommendation templates in the
// handler tagging language, saves the knowledge base to JSON, a (possibly
// different) user loads it and routinizes plan checks over a workload,
// getting ranked recommendations adapted to each plan's context.
//
// Run with: go run ./examples/kbadvisor
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"optimatch"
)

func main() {
	// --- Expert side: author patterns and recommendations. ---
	k := optimatch.CanonicalKB() // the paper's four expert patterns

	// Add a custom organizational rule: TEMP (materialization) feeding a
	// nested loop join is a known anti-pattern in this shop.
	b := optimatch.NewPatternBuilder("temp-into-nljoin",
		"temporary table materialized directly under a nested loop join")
	nl := b.Pop("NLJOIN").Alias("TOP")
	tmp := b.Pop("TEMP").Alias("TMP")
	nl.InnerChild(tmp)
	p, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	if _, err := k.Add(p, optimatch.Recommendation{
		Title:    "Avoid TEMP on the inner of an NLJOIN",
		Category: "REWRITE",
		Weight:   0.9,
		Template: "Plan builds @TMP (cost @TMP.COST) on the inner side of @TOP; " +
			"consider rewriting so the materialization happens once on the outer side, " +
			"or index its source columns (@TMP(COLUMNS)).",
	}); err != nil {
		log.Fatal(err)
	}

	// Persist: the KB travels as JSON between expert and user.
	var buf bytes.Buffer
	if err := k.Save(&buf); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("knowledge base saved: %d entries, %d bytes of JSON\n\n", k.Len(), buf.Len())

	// --- User side: load the KB and routinize plan checks. ---
	loaded, err := optimatch.LoadKB(&buf)
	if err != nil {
		log.Fatal(err)
	}
	w, err := optimatch.GenerateWorkload(optimatch.WorkloadConfig{
		Seed: 11, NumPlans: 60, MinOps: 30, MaxOps: 120,
		InjectA: 6, InjectB: 5, InjectC: 7, InjectD: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	eng := optimatch.New()
	if err := eng.LoadPlans(w.Plans); err != nil {
		log.Fatal(err)
	}
	reports, err := eng.RunKB(context.Background(), loaded)
	if err != nil {
		log.Fatal(err)
	}

	shown := 0
	for i := range reports {
		r := &reports[i]
		if !r.HasRecommendations() {
			continue
		}
		shown++
		if shown > 4 {
			fmt.Println("...")
			break
		}
		fmt.Printf("=== %s — %s\n", r.Plan.ID, r.Message())
		for j, rec := range r.Recommendations {
			if j == 2 {
				fmt.Println("    ...")
				break
			}
			fmt.Printf("  [%.2f] %s\n      %s\n", rec.Confidence, rec.Recommendation.Title, rec.Text)
		}
	}

	s := optimatch.Summarize(reports)
	fmt.Printf("\nsummary: %d/%d plans received recommendations\n", s.PlansMatched, s.TotalPlans)
	for _, ec := range s.ByEntry {
		fmt.Printf("  %-28s %2d plan(s)  %2d recommendation(s)\n", ec.Name, ec.Plans, ec.Recs)
	}
}
