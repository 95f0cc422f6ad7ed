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
// that is a fixed number of buffers (the rendered tokens and their offsets,
// the subjects, the predicates in token order and their ranks, the rows of
// the widest subject, the output), whatever the number of triples, and in
// bytes the output once plus about a third of it again: an output grown by
// doubling goes over both budgets. Appended to a buffer with room, only the
// working buffers are left: about a third of the output. (Outside the race
// build, whose instrumentation allocates.) Measured when the budgets were set:
// 7.9 allocations and 1.34 B per byte written to nil, 6.0 and 0.32 with room.
// The writer before it, which ranked the token of every term and ordered the
// triples by three counting-sort passes over two tables of ranks, took 8.9 and
// 1.60, 7.0 and 0.59; before AppendNTriples, WriteNTriples built its output in
// a buffer of its own, which the route's bytes.Buffer then copied. The
// line-sorting writer (writeNTriplesReference) takes 7.4 allocations per
// triple, 22 396 here, and 3.85 B per byte.
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
		{"to nil", func() []byte { return nil }, 9, 1.45},
		{"with room", func() []byte { return dst[:0] }, 7, 0.40},
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

// TestAllocBudgetCount pins that Count allocates nothing for the two shapes
// with a free predicate and a bound object, which a join-order estimate of a
// raw `?s ?p <iri>` step asks for: (-,-,o) sums one POS probe per predicate,
// (s,-,o) counts o in s's SPO bucket.
func TestAllocBudgetCount(t *testing.T) {
	w, err := workload.Generate(workload.Config{Seed: 19, NumPlans: 1, MinOps: 120, MaxOps: 120})
	if err != nil {
		t.Fatal(err)
	}
	r := transform.Transform(w.Plans[0])
	d := r.Graph.Dict()
	op := d.Lookup(r.PopIRI(w.Plans[0].Ops()[1]))
	var s rdf.ID
	r.Graph.Match(rdf.NoID, rdf.NoID, op, func(subj, _, _ rdf.ID) bool { s = subj; return false })
	if s == rdf.NoID {
		t.Fatal("no triple reaches the operator")
	}
	for _, shape := range [][3]rdf.ID{{rdf.NoID, rdf.NoID, op}, {s, rdf.NoID, op}} {
		if allocs := testing.AllocsPerRun(100, func() { r.Graph.Count(shape[0], shape[1], shape[2]) }); allocs != 0 {
			t.Errorf("Count(%d,%d,%d) allocates %.1f times", shape[0], shape[1], shape[2], allocs)
		}
	}
}
