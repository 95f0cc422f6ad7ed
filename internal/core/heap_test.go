//go:build !race

package core

import (
	"runtime"
	"testing"

	"optimatch/internal/qep"
	"optimatch/internal/workload"
)

// graphBudgetPerTriple is what a resident plan's graph may hold per triple,
// and residentBudgetPerTriple what the whole resident plan may: the graph and
// the parsed plan model beside it. Measured 45.5 B for the graph on the plans
// below and 15.0 B for the model — the parser's strings among it, copied out
// of the text into one buffer a plan —, 60.4 in all: the index ≈ 24 (two
// permutations, SPO and POS, of two 4 B columns and their offsets; the SPO
// permutation is the only copy of the triples), the numeric column ≈ 4 (8 B
// per term at ≈ 0.49 terms per triple) and the predicate statistics ≈ 0.4, the
// dictionary ≈ 20 — per term a 4 B ref and a 4 B slot of its table, which is
// more than a quarter empty, and per term held as a term (≈ 0.17 per triple:
// IRIs, strings) a Term and its text. The transform result beside the graph is
// two pointers: an operator or object IRI de-transforms by its spelling,
// through the plan's sorted operators and its object map. The engine's table
// adds a pointer and a map entry per plan, nothing per triple. With a third
// permutation, by object, the graph measured 55.9 (≈ 10.4 B per triple more:
// its two columns and its offsets). Before that, the graph measured 58.2 and
// the model 18.8: the result's IRI → operator and IRI → object maps (8.1 KB a
// plan, ≈ 2.3 B per triple), and in the model the ID → operator map beside the
// sorted operators (≈ 1.2 B), an empty argument map per operator (≈ 1.9 B) and
// a Parent pointer beside Parents, which put an operator in the next size
// class (≈ 0.7 B). Each budget is the measurement plus 10 %, and each of these
// trips one: the third permutation back, a map of the terms beside the table
// (≈ 14 B per triple), the insertion log kept beside the index (12 B), a
// number held as a string in the dictionary, a second copy of the vocabulary
// (a union map of every plan's terms, ≈ 32 B) or of the adjacency (map-of-map
// indexes, ≈ 436 B in all). keptTextBudget is what of its explain text a
// loaded plan may keep alive, per plan: measured ≈ 0; a model that kept the
// text it was parsed from keeps all of it, 77.2 KB.
const (
	graphBudgetPerTriple, residentBudgetPerTriple = 50, 67
	keptTextBudget                                = 1e3
)

// TestHeapBudgetPerTriple pins the live heap a plan loaded from its explain
// text holds, split into the parsed plan model and the graph. The model is
// measured as a second parse of the same texts held beside the loaded engine;
// the graph is the rest of what loading kept. The texts are held through both
// measurements, so neither side counts them; then they are dropped, and what
// of their heap the loaded plans still keep alive — the parser's substrings in
// the model and in the graph's terms would — is held to keptTextBudget.
// (Outside the race build, whose shadow memory is not the program's heap.)
func TestHeapBudgetPerTriple(t *testing.T) {
	w, err := workload.Generate(workload.Config{Seed: 16, NumPlans: 16, MinOps: 60, MaxOps: 240})
	if err != nil {
		t.Fatal(err)
	}
	liveHeap := func() float64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	noText := liveHeap()
	texts := make([]string, len(w.Plans))
	for i, p := range w.Plans {
		texts[i] = qep.Text(p)
	}
	textHeap := liveHeap() - noText // the texts' length and the allocator's rounding
	e := New()
	before := liveHeap()
	for _, text := range texts {
		if _, err := e.LoadText(text); err != nil {
			t.Fatal(err)
		}
	}
	loaded := liveHeap()
	models := make([]*qep.Plan, len(texts))
	for i, text := range texts {
		if models[i], err = qep.Parse(text); err != nil {
			t.Fatal(err)
		}
	}
	model := liveHeap() - loaded
	runtime.KeepAlive(models)
	graph := loaded - before - model

	triples, textBytes := 0, 0.0
	for i, p := range w.Plans {
		triples += e.Result(p.ID).Graph.Len()
		textBytes += float64(len(texts[i]))
	}
	plans, n := float64(len(texts)), float64(triples)
	t.Logf("%.0f plans, %d triples (%.0f a plan): plan model %.1f KB a plan, %.1f B/triple; graph %.1f KB a plan, %.1f B/triple; resident %.1f B/triple",
		plans, triples, n/plans, model/plans/1e3, model/n, graph/plans/1e3, graph/n, (model+graph)/n)

	clear(texts)
	kept := textHeap - (loaded - liveHeap())
	t.Logf("explain text %.1f KB a plan, of which %.1f KB stays resident with the loaded plan: resident plan %.1f KB",
		textBytes/plans/1e3, kept/plans/1e3, (model+graph+kept)/plans/1e3)
	runtime.KeepAlive(w)
	if graph/n > graphBudgetPerTriple {
		t.Errorf("a resident plan's graph holds %.1f B/triple, budget %d", graph/n, graphBudgetPerTriple)
	}
	if (model+graph)/n > residentBudgetPerTriple {
		t.Errorf("a resident plan holds %.1f B/triple, budget %d", (model+graph)/n, residentBudgetPerTriple)
	}
	if kept/plans > keptTextBudget {
		t.Errorf("a resident plan keeps %.1f KB of its explain text alive, budget %.1f", kept/plans/1e3, keptTextBudget/1e3)
	}
	runtime.KeepAlive(e)
}
