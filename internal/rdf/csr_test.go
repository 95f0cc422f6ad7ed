package rdf

import (
	"math/rand"
	"reflect"
	"testing"
)

// csrOutViaMatch collects Match's (s, p, ?) objects in emission order.
func csrOutViaMatch(g *Graph, s, p ID) []ID {
	var out []ID
	g.Match(s, p, NoID, func(_, _, o ID) bool {
		out = append(out, o)
		return true
	})
	return out
}

// csrInViaMatch collects Match's (?, p, o) subjects in emission order.
func csrInViaMatch(g *Graph, p, o ID) []ID {
	var out []ID
	g.Match(NoID, p, o, func(s, _, _ ID) bool {
		out = append(out, s)
		return true
	})
	return out
}

// Property: for every node and predicate, the CSR snapshot returns exactly
// the neighbor lists Match emits, in the same order. Order equality is the
// load-bearing part — the path evaluator relies on it for byte-identical
// results with and without the snapshot.
func TestPredCSRAgreesWithMatch(t *testing.T) {
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
		c, built := g.PredCSR(p)
		if !built {
			t.Errorf("PredCSR(%v) first call should report built", pt)
		}
		if _, again := g.PredCSR(p); again {
			t.Errorf("PredCSR(%v) second call should hit the cache", pt)
		}
		if c.Edges() != g.Count(NoID, p, NoID) {
			t.Errorf("Edges() = %d, Count = %d", c.Edges(), g.Count(NoID, p, NoID))
		}
		if c.Bytes() <= 0 {
			t.Errorf("Bytes() = %d, want > 0", c.Bytes())
		}
		for id := ID(1); id <= g.MaxID()+2; id++ {
			if got, want := c.Out(id), csrOutViaMatch(g, id, p); !sameIDs(got, want) {
				t.Fatalf("Out(%d) over %v = %v, Match = %v", id, pt, got, want)
			}
			if got, want := c.In(id), csrInViaMatch(g, p, id); !sameIDs(got, want) {
				t.Fatalf("In(%d) over %v = %v, Match = %v", id, pt, got, want)
			}
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

// PredCSR for a predicate with no triples must return an empty snapshot,
// including for a predicate ID the graph has never seen.
func TestPredCSREmptyPredicate(t *testing.T) {
	g := testGraph()
	unused := g.Dict().Intern(IRI("neverUsedAsPredicate"))
	for _, p := range []ID{unused, ID(9999)} {
		c, _ := g.PredCSR(p)
		if c.Edges() != 0 {
			t.Errorf("Edges for unused predicate %d = %d, want 0", p, c.Edges())
		}
		for id := ID(1); id <= g.MaxID(); id++ {
			if len(c.Out(id)) != 0 || len(c.In(id)) != 0 {
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

// Mutating the graph after snapshots were built must invalidate them: the
// next NodeIDs/PredCSR call reflects the post-Add state.
func TestAddInvalidatesAccel(t *testing.T) {
	g := testGraph()
	d := g.Dict()
	p := d.Lookup(IRI("hasOuterInputStream"))

	before := g.NodeIDs()
	c, _ := g.PredCSR(p)
	pop2 := d.Lookup(IRI("pop2"))
	outBefore := len(c.Out(pop2))
	totalBefore := g.Count(NoID, p, NoID)

	g.Add(IRI("pop2"), IRI("hasOuterInputStream"), IRI("brandNewNode"))

	if got := g.Count(NoID, p, NoID); got != totalBefore+1 {
		t.Errorf("predicate total after Add = %d, want %d", got, totalBefore+1)
	}

	c2, built := g.PredCSR(p)
	if !built {
		t.Error("PredCSR after Add should rebuild, not serve the stale snapshot")
	}
	if got := len(c2.Out(pop2)); got != outBefore+1 {
		t.Errorf("rebuilt Out(pop2) has %d edges, want %d", got, outBefore+1)
	}

	after := g.NodeIDs()
	if len(after) != len(before)+1 {
		t.Errorf("NodeIDs after Add has %d entries, want %d", len(after), len(before)+1)
	}
	fresh := d.Lookup(IRI("brandNewNode"))
	found := false
	for _, id := range after {
		if id == fresh {
			found = true
		}
	}
	if !found {
		t.Error("NodeIDs after Add is missing the new node")
	}

	// The old snapshot must stay internally consistent (immutable), just stale.
	if got := len(c.Out(pop2)); got != outBefore {
		t.Errorf("stale snapshot mutated: Out(pop2) = %d, want %d", got, outBefore)
	}
}

// Concurrent first-use builds must agree and race-free (run with -race).
func TestPredCSRConcurrentBuild(t *testing.T) {
	g := testGraph()
	p := g.Dict().Lookup(IRI("hasPopType"))
	results := make(chan *CSR, 8)
	for i := 0; i < 8; i++ {
		go func() {
			c, _ := g.PredCSR(p)
			g.NodeIDs()
			g.Count(NoID, p, NoID)
			results <- c
		}()
	}
	first := <-results
	for i := 1; i < 8; i++ {
		if c := <-results; c != first {
			t.Fatal("concurrent PredCSR calls returned distinct snapshots")
		}
	}
}
