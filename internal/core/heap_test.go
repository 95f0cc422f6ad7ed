//go:build !race

package core

import (
	"runtime"
	"testing"

	"optimatch/internal/rdf"
	"optimatch/internal/workload"
)

// heapBudgetPerTriple is what a resident plan may hold per triple beyond its
// parsed plan model. Measured 130.6 B on the plans below (136.2 before Freeze
// cut the term table and the log to their lengths, and a dictionary sized for
// every literal occurrence of the plan instead of two fifths of them reads
// 154.9):
// triple log and index ≈ 46, the index's numeric column ≈ 4 (8 B per term at
// ≈ 0.49 terms per triple; the predicate statistics are ≈ 40 entries of 32 B
// per plan, ≈ 0.4 B per triple), dictionary ≈ 81 (map[Term]ID and []Term
// ≈ 67, term strings ≈ 14); the engine's table adds a pointer and a map entry
// per plan, nothing per triple. A second copy of the vocabulary (the shards' union map
// measured ≈ 32 B) or of the adjacency (the map-of-map indexes measured 436 B
// in all) trips the budget long before noise does.
const heapBudgetPerTriple = 145

// TestHeapBudgetPerTriple pins the live heap a loaded plan graph holds, and
// that whatever enters the repository is frozen. (Outside the race build,
// whose shadow memory is not the program's heap.)
func TestHeapBudgetPerTriple(t *testing.T) {
	w, err := workload.Generate(workload.Config{Seed: 16, NumPlans: 16, MinOps: 60, MaxOps: 240})
	if err != nil {
		t.Fatal(err)
	}
	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	e := New()
	before := liveHeap()
	for _, p := range w.Plans {
		if err := e.LoadPlan(p); err != nil {
			t.Fatal(err)
		}
	}
	after := liveHeap()

	triples := 0
	for _, p := range w.Plans {
		g := e.Result(p.ID).Graph
		triples += g.Len()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("plan %s: Add on a loaded graph did not panic: the graph is not frozen", p.ID)
				}
			}()
			g.Add(rdf.IRI("urn:x"), rdf.IRI("urn:y"), rdf.IRI("urn:z"))
		}()
	}
	perTriple := float64(after-before) / float64(triples)
	t.Logf("%d plans, %d triples, %.1f B/triple live", len(w.Plans), triples, perTriple)
	if perTriple > heapBudgetPerTriple {
		t.Errorf("a resident plan holds %.1f B/triple, budget %d", perTriple, heapBudgetPerTriple)
	}
	runtime.KeepAlive(e)
}
