package sparql_test

import (
	"testing"

	"optimatch/internal/kb"
	"optimatch/internal/sparql"
	"optimatch/internal/transform"
	"optimatch/internal/workload"
)

// TestRequiredConstantSoundness checks the verdict both the engine's
// vocabulary prefilter and ExecOpts' bail-out act on: whenever
// Analysis.RequiredIn says a plan's graph cannot match a knowledge-base
// entry, the entry's query must really have zero rows there. The oracle is
// the reference evaluator, which never consults RequiredIn — ExecOpts would
// only confirm its own verdict.
func TestRequiredConstantSoundness(t *testing.T) {
	entries := kb.MustExtended().Entries()
	queries := make([]*sparql.Query, len(entries))
	for i, entry := range entries {
		q, err := sparql.Parse(entry.SPARQL)
		if err != nil {
			t.Fatal(err)
		}
		queries[i] = q
	}
	for _, seed := range []int64{1, 7, 2016} {
		w, err := workload.Generate(workload.Config{
			Seed: seed, NumPlans: 40, MinOps: 30, MaxOps: 90,
			InjectA: 6, InjectB: 5, InjectC: 7, InjectD: 4, InjectG: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		skipped := 0
		for _, r := range transform.TransformAll(w.Plans) {
			for i, q := range queries {
				if q.Analysis().RequiredIn(r.Graph) {
					continue
				}
				skipped++
				res, err := sparql.ExecReference(q, r.Graph)
				if err != nil {
					t.Fatal(err)
				}
				if res.Len() != 0 {
					t.Fatalf("seed %d: RequiredIn rules out entry %s on plan %s, which has %d matches",
						seed, entries[i].Name, r.Plan.ID, res.Len())
				}
			}
		}
		if skipped == 0 {
			t.Fatalf("seed %d: RequiredIn never ruled a pair out; the check is vacuous", seed)
		}
	}
}
