//go:build !race

package transform

import (
	"runtime"
	"testing"

	"optimatch/internal/rdf"
	"optimatch/internal/workload"
)

// TestAllocBudgetTransform pins what Transform allocates per triple on one
// 120-operator plan. (Outside the race build, whose instrumentation
// allocates.) Measured when the budgets were set: 0.15 allocations and 122 B
// per triple — the dictionary, the log, the index's two permutations and the
// scratch of the sorts that build them; a number is never formatted, and a
// string is the plan's own — with a tenth of headroom. With a third
// permutation, by object, it measured 0.15 and 138. Before an IRI
// de-transformed by its spelling it measured 0.15 and 141: the two maps from
// every operator's and every object's IRI to it. Before numbers were
// held as values it measured 0.85 and 217: the text of every number
// InternFloat was handed, formatted so that a map could hash it.
// transformReference on the same plan measures 1.03 and 269 (a term built per
// use, the dictionary and the log grown by doubling); the Transform it was
// copied from, which also kept every triple in a set, 1.23 and 382 over a
// hundred plans of Figure 9's workload (the per-plan cost today is
// transform.us_per_plan of bench/).
func TestAllocBudgetTransform(t *testing.T) {
	const allocsPerTriple, bytesPerTriple = 0.17, 134
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

// TestAllocBudgetDescribe pins what rendering one matched resource costs: a
// base object's name and a raw term are returned as they are held, an
// operator's text is built in one allocation, and appendDescribe into a buffer
// with room allocates nothing. The knowledge base's templates render every
// bare tag through Describe.
func TestAllocBudgetDescribe(t *testing.T) {
	p := figure1Plan(t)
	r := Transform(p)
	var sink string
	buf := make([]byte, 0, 64)
	for _, tc := range []struct {
		name   string
		term   rdf.Term
		budget float64
	}{
		{"operator", r.PopIRI(p.Op(2)), 1},
		{"base object", r.ObjIRI(p.Objects["CUST_DIM"]), 0},
		{"raw term", rdf.IRI("urn:other"), 0},
	} {
		describe := testing.AllocsPerRun(100, func() { sink = r.Describe(tc.term) })
		appended := testing.AllocsPerRun(100, func() { buf = r.appendDescribe(buf[:0], tc.term) })
		if describe > tc.budget || appended > 0 {
			t.Errorf("%s %q: Describe allocates %.0f times, budget %.0f; appendDescribe with room %.0f, budget 0", tc.name, sink, describe, tc.budget, appended)
		}
	}
}
