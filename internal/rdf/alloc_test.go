//go:build !race

package rdf_test

import (
	"bytes"
	"runtime"
	"testing"

	"optimatch/internal/rdf"
	"optimatch/internal/transform"
	"optimatch/internal/workload"
)

// TestAllocBudgetNTriples pins what WriteNTriples allocates for the graph of
// one 120-operator plan: a fixed number of buffers (the rendered tokens, their
// offsets and ranks, the triples as ranks twice, the output), whatever the
// number of triples, and in bytes the output once plus about half of it
// again. (Outside the race build, whose instrumentation allocates.) Measured
// when the budgets were set: 9 allocations, 1.58 B per byte written; the
// line-sorting writer (writeNTriplesReference) takes 7.4 allocations per
// triple, 22 396 here, and 3.85 B per byte.
func TestAllocBudgetNTriples(t *testing.T) {
	const allocsBudget, bytesPerByteBudget = 12, 1.75
	w, err := workload.Generate(workload.Config{Seed: 19, NumPlans: 1, MinOps: 120, MaxOps: 120})
	if err != nil {
		t.Fatal(err)
	}
	g := transform.Transform(w.Plans[0]).Graph
	var out bytes.Buffer
	if err := rdf.WriteNTriples(&out, g); err != nil {
		t.Fatal(err)
	}
	written := float64(out.Len())

	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		out.Reset() // the buffer is grown: what is counted is the writer's own
		if err := rdf.WriteNTriples(&out, g); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / runs / written
	t.Logf("%d triples, %.0f bytes written: %.1f allocations, %.2f B allocated per byte", g.Len(), written, allocs, perByte)
	if allocs > allocsBudget || perByte > bytesPerByteBudget {
		t.Errorf("WriteNTriples allocates %.1f times and %.2f B per byte written, budget %d and %.2f", allocs, perByte, allocsBudget, bytesPerByteBudget)
	}
}
