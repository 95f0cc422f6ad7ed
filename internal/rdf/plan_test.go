package rdf_test

import (
	"testing"

	"optimatch/internal/rdf"
	"optimatch/internal/transform"
	"optimatch/internal/workload"
)

// TestGraphCountMatchesEnumeration checks, on a generated plan's graph, that
// all eight bound/unbound shapes of Count are exact: for every triple and
// every way of masking its components, Count equals the number of triples a
// scan of the insertion log enumerates, and Match calls back as many times.
// One probe per shape additionally uses a term no triple carries.
func TestGraphCountMatchesEnumeration(t *testing.T) {
	w, err := workload.Generate(workload.Config{Seed: 16, NumPlans: 1, MinOps: 60, MaxOps: 60})
	if err != nil {
		t.Fatal(err)
	}
	g := transform.Transform(w.Plans[0]).Graph
	if g.Len() < 500 {
		t.Fatalf("generated plan has only %d triples", g.Len())
	}
	enumerate := func(match func(s, p, o rdf.ID, fn func(s, p, o rdf.ID) bool), s, p, o rdf.ID) int {
		n := 0
		match(s, p, o, func(_, _, _ rdf.ID) bool { n++; return true })
		return n
	}
	check := func(s, p, o rdf.ID) {
		want := enumerate(g.MatchScan, s, p, o)
		if got := g.Count(s, p, o); got != want {
			t.Errorf("Count(%d,%d,%d) = %d, the log has %d", s, p, o, got, want)
		}
		if got := enumerate(g.Match, s, p, o); got != want {
			t.Errorf("Match(%d,%d,%d) called back %d times, the log has %d", s, p, o, got, want)
		}
	}
	var triples [][3]rdf.ID
	g.MatchScan(rdf.NoID, rdf.NoID, rdf.NoID, func(s, p, o rdf.ID) bool {
		triples = append(triples, [3]rdf.ID{s, p, o})
		return true
	})
	absent := g.MaxID() + 1
	for i, tr := range triples {
		for mask := 0; mask < 8; mask++ {
			var probe [3]rdf.ID
			for k := range probe {
				if mask&(1<<k) != 0 {
					probe[k] = tr[k]
				}
			}
			check(probe[0], probe[1], probe[2])
			if i == 0 && mask != 0 {
				// The same shape with its last bound position replaced by an
				// ID past every offset array.
				for k := 2; k >= 0; k-- {
					if probe[k] != rdf.NoID {
						probe[k] = absent
						break
					}
				}
				check(probe[0], probe[1], probe[2])
			}
		}
	}
}
