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

// TestAllocBudgetNTriples pins what AppendNTriples allocates for the graph of
// one 120-operator plan. Appended to nil, as the /rdf route renders its body,
// that is a fixed number of buffers (the rendered tokens, their offsets and
// ranks, the triples as ranks twice, the output), whatever the number of
// triples, and in bytes the output once plus about half of it again: an output
// grown by doubling goes over both budgets. Appended to a buffer with room,
// only the working buffers are left: about half the output. (Outside the race
// build, whose instrumentation allocates.) Measured when the budgets were set:
// 8.9 allocations and 1.60 B per byte written to nil, 7.0 and 0.59 with room.
// Before AppendNTriples, WriteNTriples built its output in a buffer of its
// own, which the route's bytes.Buffer then copied. The line-sorting writer
// (writeNTriplesReference) takes 7.4 allocations per triple, 22 396 here, and
// 3.85 B per byte.
func TestAllocBudgetNTriples(t *testing.T) {
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
	dst := rdf.AppendNTriples(nil, g)
	if !bytes.Equal(dst, out.Bytes()) {
		t.Fatal("AppendNTriples and WriteNTriples disagree")
	}

	for _, tc := range []struct {
		name         string
		dst          func() []byte
		allocsBudget int
		perByte      float64
	}{
		{"to nil", func() []byte { return nil }, 10, 1.70},
		{"with room", func() []byte { return dst[:0] }, 9, 0.70},
	} {
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			dst = rdf.AppendNTriples(tc.dst(), g)
		}
		runtime.ReadMemStats(&after)
		allocs := float64(after.Mallocs-before.Mallocs) / runs
		perByte := float64(after.TotalAlloc-before.TotalAlloc) / runs / written
		t.Logf("%s: %d triples, %.0f bytes written: %.1f allocations, %.2f B allocated per byte", tc.name, g.Len(), written, allocs, perByte)
		if allocs > float64(tc.allocsBudget) || perByte > tc.perByte {
			t.Errorf("AppendNTriples %s allocates %.1f times and %.2f B per byte written, budget %d and %.2f", tc.name, allocs, perByte, tc.allocsBudget, tc.perByte)
		}
	}
}
