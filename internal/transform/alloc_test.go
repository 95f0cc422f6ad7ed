//go:build !race

package transform

import (
	"runtime"
	"testing"

	"optimatch/internal/workload"
)

// TestAllocBudgetTransform pins what Transform allocates per triple on one
// 120-operator plan. (Outside the race build, whose instrumentation
// allocates.) Measured when the budgets were set: 0.85 allocations and 217 B
// per triple — a string and a dictionary entry per distinct term, the log, the
// index's three permutations and the scratch of the sorts that build them —
// with a tenth of headroom. transformReference on the same plan measures 1.02
// and 296 (a term built per use, the dictionary and the log grown by
// doubling); the Transform it was copied from, which also kept every triple
// in a set, 1.23 and 382 over a hundred plans of Figure 9's workload (the
// per-plan cost today is transform.us_per_plan of bench/).
func TestAllocBudgetTransform(t *testing.T) {
	const allocsPerTriple, bytesPerTriple = 0.95, 240
	w, err := workload.Generate(workload.Config{Seed: 19, NumPlans: 1, MinOps: 120, MaxOps: 120})
	if err != nil {
		t.Fatal(err)
	}
	p := w.Plans[0]
	triples := float64(Transform(p).Graph.Len())

	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		Transform(p)
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / runs / triples
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs / triples
	t.Logf("%d operators, %.0f triples: %.2f allocations and %.0f B per triple", len(p.Ops()), triples, allocs, bytes)
	if allocs > allocsPerTriple || bytes > bytesPerTriple {
		t.Errorf("Transform allocates %.2f times and %.0f B per triple, budget %.2f and %d", allocs, bytes, allocsPerTriple, bytesPerTriple)
	}
}
