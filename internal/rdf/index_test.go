package rdf

import (
	"math/rand"
	"reflect"
	"testing"
)

// column collects component k of every triple match emits for the pattern,
// in emission order. With addList.scan it is the reference — a scan of the
// test's own list of its Adds — and with g.Match what the index answers.
func column(match func(s, p, o ID, fn func(s, p, o ID) bool), s, p, o ID, k int) []ID {
	var out []ID
	match(s, p, o, func(s, p, o ID) bool {
		out = append(out, [3]ID{s, p, o}[k])
		return true
	})
	return out
}

// Property: for every node and predicate, the index's adjacency slices and
// Match return exactly the neighbor lists a scan of the test's list of its
// Adds yields, in the same order. Order equality is the load-bearing part —
// the path evaluator and the golden reports rely on it.
func TestAdjacencyAgreesWithMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := NewBuilder()
	var log addList
	preds := []Term{IRI("p"), IRI("q"), IRI("r")}
	for i := 0; i < 400; i++ {
		s := IRI(string(rune('a' + rng.Intn(26))))
		o := IRI(string(rune('a' + rng.Intn(26))))
		log.addTriple(b, Triple{s, preds[rng.Intn(len(preds))], o})
	}
	g := b.Graph()
	d := g.Dict()
	for _, pt := range preds {
		p := d.Lookup(pt)
		edges := 0
		for id := ID(1); id <= g.MaxID()+2; id++ {
			want := column(log.scan, id, p, NoID, 2)
			edges += len(want)
			if got := g.ObjectIDs(id, p); !sameIDs(got, want) {
				t.Fatalf("ObjectIDs(%d) over %v = %v, log = %v", id, pt, got, want)
			}
			if got := column(g.Match, id, p, NoID, 2); !sameIDs(got, want) {
				t.Fatalf("Match(%d, %v, -) = %v, log = %v", id, pt, got, want)
			}
			want = column(log.scan, NoID, p, id, 0)
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
	b := testBuilder()
	unused := b.Intern(IRI("neverUsedAsPredicate"))
	g := b.Graph()
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

// Concurrent readers of one graph share its index, race-free (run with
// -race): every read answers alike on every goroutine.
func TestConcurrentReaders(t *testing.T) {
	g := testGraph()
	p := g.Dict().Lookup(IRI("hasPopType"))
	triples, nodes := g.Triples(), g.NodeIDs()
	errs := make(chan string, 8)
	for i := 0; i < 8; i++ {
		go func() {
			n := 0
			g.Match(NoID, p, NoID, func(_, _, _ ID) bool { n++; return true })
			switch {
			case n != 3 || g.Count(NoID, p, NoID) != 3:
				errs <- "Match and Count disagree"
			case !reflect.DeepEqual(g.NodeIDs(), nodes) || !reflect.DeepEqual(g.Triples(), triples):
				errs <- "NodeIDs or Triples changed"
			default:
				errs <- ""
			}
		}()
	}
	for i := 0; i < 8; i++ {
		if msg := <-errs; msg != "" {
			t.Error(msg)
		}
	}
}

// Builder.Graph cuts the dictionary's columns to their lengths and its table
// to the size its count needs — what a capacity hint or an append's doubling
// left over would stay resident with the graph —, keeps the triples in the
// index alone (Triples in SPO order, the list of Adds reordered) and leaves
// the builder spent: every method panics and changes nothing.
func TestFreeze(t *testing.T) {
	b := NewBuilderSize(64, 64, 64)
	var log addList
	for _, tr := range testTriples {
		log.addTriple(b, tr)
	}
	g := b.Graph()
	if d := g.dict; cap(d.terms) != len(d.terms) || cap(d.ref) != len(d.ref) || cap(d.num) != len(d.num) {
		t.Errorf("spare capacity: terms %d of %d, refs %d of %d, numbers %d of %d",
			len(d.terms), cap(d.terms), len(d.ref), cap(d.ref), len(d.num), cap(d.num))
	}
	if d := g.dict; len(d.slots) != tableSize(d.Len()) {
		t.Errorf("%d slots for %d IDs, want %d", len(d.slots), d.Len(), tableSize(d.Len()))
	}
	if got, want := g.Triples(), log.spo().triples(g.Dict()); !reflect.DeepEqual(got, want) {
		t.Errorf("Triples = %v, want %v", got, want)
	}
	checkSpent(t, b, g)
}
