package rdf

import (
	"math/rand"
	"reflect"
	"testing"
)

// column collects component k of every triple match emits for the pattern,
// in emission order. With g.MatchScan it is the reference — a scan of the
// insertion log — and with g.Match what the index answers.
func column(match func(s, p, o ID, fn func(s, p, o ID) bool), s, p, o ID, k int) []ID {
	var out []ID
	match(s, p, o, func(s, p, o ID) bool {
		out = append(out, [3]ID{s, p, o}[k])
		return true
	})
	return out
}

// Property: for every node and predicate, the index's adjacency slices and
// Match return exactly the neighbor lists a scan of the insertion log yields,
// in the same order. Order equality is the load-bearing part — the path
// evaluator and the golden reports rely on it.
func TestAdjacencyAgreesWithMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := NewGraph()
	preds := []Term{IRI("p"), IRI("q"), IRI("r")}
	for i := 0; i < 400; i++ {
		s := IRI(string(rune('a' + rng.Intn(26))))
		o := IRI(string(rune('a' + rng.Intn(26))))
		g.Add(s, preds[rng.Intn(len(preds))], o)
	}
	d := g.Dict()
	for _, pt := range preds {
		p := d.Lookup(pt)
		edges := 0
		for id := ID(1); id <= g.MaxID()+2; id++ {
			want := column(g.MatchScan, id, p, NoID, 2)
			edges += len(want)
			if got := g.ObjectIDs(id, p); !sameIDs(got, want) {
				t.Fatalf("ObjectIDs(%d) over %v = %v, log = %v", id, pt, got, want)
			}
			if got := column(g.Match, id, p, NoID, 2); !sameIDs(got, want) {
				t.Fatalf("Match(%d, %v, -) = %v, log = %v", id, pt, got, want)
			}
			want = column(g.MatchScan, NoID, p, id, 0)
			if got := g.SubjectIDs(p, id); !sameIDs(got, want) {
				t.Fatalf("SubjectIDs(%d) over %v = %v, log = %v", id, pt, got, want)
			}
			if got := column(g.Match, NoID, p, id, 0); !sameIDs(got, want) {
				t.Fatalf("Match(-, %v, %d) = %v, log = %v", pt, id, got, want)
			}
		}
		if edges != g.Count(NoID, p, NoID) {
			t.Errorf("edges over %v = %d, Count = %d", pt, edges, g.Count(NoID, p, NoID))
		}
	}
}

func sameIDs(a, b []ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// A predicate with no triples has no neighbors anywhere, including a
// predicate ID the graph has never seen.
func TestAdjacencyEmptyPredicate(t *testing.T) {
	g := testGraph()
	unused := g.Dict().Intern(IRI("neverUsedAsPredicate"))
	for _, p := range []ID{unused, ID(9999)} {
		if n := g.Count(NoID, p, NoID); n != 0 {
			t.Errorf("Count for unused predicate %d = %d, want 0", p, n)
		}
		for id := ID(1); id <= g.MaxID(); id++ {
			if len(g.ObjectIDs(id, p)) != 0 || len(g.SubjectIDs(p, id)) != 0 {
				t.Fatalf("unused predicate %d has neighbors at node %d", p, id)
			}
		}
	}
}

// NodeIDs must list every subject and object exactly once, in ascending ID
// order, and repeated calls must return the same cached slice.
func TestNodeIDs(t *testing.T) {
	g := testGraph()
	ids := g.NodeIDs()

	want := map[ID]bool{}
	g.Match(NoID, NoID, NoID, func(s, _, o ID) bool {
		want[s] = true
		want[o] = true
		return true
	})
	got := map[ID]bool{}
	for i, id := range ids {
		if got[id] {
			t.Errorf("NodeIDs has duplicate %d", id)
		}
		got[id] = true
		if i > 0 && ids[i-1] >= id {
			t.Errorf("NodeIDs not ascending at %d: %d >= %d", i, ids[i-1], id)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("NodeIDs = %v, want keys %v", got, want)
	}

	again := g.NodeIDs()
	if len(again) != len(ids) || (len(ids) > 0 && &again[0] != &ids[0]) {
		t.Error("second NodeIDs call did not return the cached slice")
	}
}

// Concurrent first reads of an unfrozen graph must build one index, race-free
// (run with -race).
func TestIndexConcurrentBuild(t *testing.T) {
	g := testGraph()
	p := g.Dict().Lookup(IRI("hasPopType"))
	results := make(chan *index, 8)
	for i := 0; i < 8; i++ {
		go func() {
			g.Match(NoID, p, NoID, func(_, _, _ ID) bool { return true })
			g.NodeIDs()
			g.Count(NoID, p, NoID)
			results <- g.index()
		}()
	}
	first := <-results
	for i := 1; i < 8; i++ {
		if ix := <-results; ix != first {
			t.Fatal("concurrent first reads built distinct indexes")
		}
	}
}

// Freeze is one-way and idempotent, and a graph's first read freezes it just
// as Freeze does: reads are unchanged, the term table and the log are cut to
// their lengths, and every Add or Intern panics and changes nothing.
func TestFreeze(t *testing.T) {
	want := testGraph().Triples()
	for name, freeze := range map[string]func(g *Graph){
		"Freeze": (*Graph).Freeze,
		"Len":    func(g *Graph) { g.Len() },
		"Has":    func(g *Graph) { g.Has(IRI("pop2"), IRI("hasPopType"), String("NLJOIN")) },
		"Float":  func(g *Graph) { g.Float(1) },
	} {
		g := testGraph()
		freeze(g)
		ix := g.index()
		g.Freeze()
		if g.index() != ix {
			t.Errorf("%s, then Freeze: the index was rebuilt", name)
		}
		if cap(g.dict.byID) != len(g.dict.byID) || cap(g.log) != len(g.log) {
			t.Errorf("%s left spare capacity: terms %d of %d, log %d of %d", name,
				len(g.dict.byID), cap(g.dict.byID), len(g.log), cap(g.log))
		}
		if got := g.Triples(); !reflect.DeepEqual(got, want) {
			t.Errorf("Triples after %s = %v, want %v", name, got, want)
		}
		if !g.Has(IRI("pop5"), IRI("hasPopType"), String("TBSCAN")) {
			t.Errorf("Has after %s lost a triple", name)
		}
		terms := g.Dict().Len()
		for what, add := range map[string]func(){
			"Add":         func() { g.Add(IRI("pop2"), IRI("hasPopType"), String("NLJOIN")) },
			"AddIDs":      func() { g.AddIDs(1, 2, 3) },
			"AddTriple":   func() { g.AddTriple(Triple{IRI("x"), IRI("y"), IRI("z")}) },
			"Intern":      func() { g.Intern(IRI("x")) },
			"InternFloat": func() { g.InternFloat(42.5) },
		} {
			if !panics(add) {
				t.Errorf("%s after %s did not panic", what, name)
			}
		}
		if g.Len() != len(want) || g.Dict().Len() != terms || g.Dict().Lookup(IRI("x")) != NoID {
			t.Errorf("a refused Add after %s changed the graph", name)
		}
	}
}

func panics(fn func()) (p bool) {
	defer func() { p = recover() != nil }()
	fn()
	return false
}
