//go:build !race

package qep_test

import (
	"runtime"
	"testing"

	"optimatch/internal/qep"
)

// TestAllocBudgetParse pins what Parse allocates per operator over the
// benchmark's plans. (Outside the race build, whose instrumentation
// allocates.) Measured when the budgets were set: 7.24 allocations and 600 B
// per operator — the operator and its spec, its input specs, Inputs and
// Parents and their column lists, the plan's sorted operator list, the object
// map and the one buffer own copies every string into — with a tenth of
// headroom. Before an operator without arguments kept a nil map and own sized
// its buffer by a walk that only reads, it measured 10.36 and 835: an empty
// argument map per operator, made by the parser and made again by each of
// own's two walks, and the map of operators by ID beside the sorted list.
func TestAllocBudgetParse(t *testing.T) {
	const allocsPerOp, bytesPerOp = 8.0, 660
	var texts []string
	ops := 0
	for _, p := range benchmarkPlans(t) {
		texts = append(texts, qep.Text(p))
		ops += p.NumOps()
	}
	parse := func() {
		for _, text := range texts {
			if _, err := qep.Parse(text); err != nil {
				t.Fatal(err)
			}
		}
	}
	parse()

	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		parse()
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / runs / float64(ops)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(ops)
	t.Logf("%d plans, %d operators: %.2f allocations and %.0f B per operator", len(texts), ops, allocs, bytes)
	if allocs > allocsPerOp || bytes > bytesPerOp {
		t.Errorf("Parse allocates %.2f times and %.0f B per operator, budget %.2f and %d", allocs, bytes, allocsPerOp, bytesPerOp)
	}
}
