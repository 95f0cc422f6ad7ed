package kb_test

import (
	"context"
	"strings"
	"testing"

	"optimatch/internal/core"
	"optimatch/internal/kb"
	"optimatch/internal/workload"
)

// TestRunKBMatchesOracle: over the 24-plan `qepgen -seed 42` workload and the
// extended knowledge base, RunKB's reports — plan order, and per plan the
// recommendation text, confidence and order — are what the map-keyed
// occurrences gave (kb.OracleRecommend per entry, then kb.SortRanked).
func TestRunKBMatchesOracle(t *testing.T) {
	w, err := workload.Generate(workload.Config{
		Seed: 42, NumPlans: 24, MinOps: 30, MaxOps: 80, InjectA: 4, InjectB: 3, InjectC: 5, HardFraction: 0.35,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := core.New(core.WithWorkers(3))
	if err := eng.LoadPlans(w.Plans); err != nil {
		t.Fatal(err)
	}
	base := kb.MustExtended()
	reports, err := eng.RunKB(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}

	var got, want strings.Builder
	recs := 0
	for i, plan := range w.Plans {
		r := eng.Result(plan.ID)
		var oracle []kb.Ranked
		for _, e := range base.Entries() {
			res, err := e.Compiled().Parsed.Exec(r.Graph)
			if err != nil {
				t.Fatal(err)
			}
			ranked, err := kb.OracleRecommend(e, r, res)
			if err != nil {
				t.Fatal(err)
			}
			oracle = append(oracle, ranked...)
		}
		kb.SortRanked(oracle)
		want.WriteString("plan " + plan.ID + "\n" + kb.RenderRanked(oracle))
		got.WriteString("plan " + reports[i].Plan.ID + "\n" + kb.RenderRanked(reports[i].Recommendations))
		recs += len(oracle)
	}
	if got.String() != want.String() {
		t.Errorf("RunKB differs from the oracle:\n%s--- oracle ---\n%s", got.String(), want.String())
	}
	if recs == 0 {
		t.Fatal("no recommendation at all: the comparison compared nothing")
	}
}
