package rdf

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func testGraph() *Graph {
	g := NewGraph()
	g.Add(IRI("pop2"), IRI("hasPopType"), String("NLJOIN"))
	g.Add(IRI("pop3"), IRI("hasPopType"), String("FETCH"))
	g.Add(IRI("pop5"), IRI("hasPopType"), String("TBSCAN"))
	g.Add(IRI("pop5"), IRI("hasEstimateCardinality"), TypedLiteral("4043.0", XSDDouble))
	g.Add(IRI("pop2"), IRI("hasOuterInputStream"), IRI("stream1"))
	g.Add(IRI("stream1"), IRI("hasOuterInputStream"), IRI("pop3"))
	g.Add(IRI("pop2"), IRI("hasInnerInputStream"), IRI("stream2"))
	g.Add(IRI("stream2"), IRI("hasInnerInputStream"), IRI("pop5"))
	return g
}

func TestGraphAddAndLen(t *testing.T) {
	if g := testGraph(); g.Len() != 8 {
		t.Fatalf("Len = %d, want 8", g.Len())
	}
	// A duplicate insert is a no-op: the first read drops it.
	g := testGraph()
	g.Add(IRI("pop2"), IRI("hasPopType"), String("NLJOIN"))
	g.Add(IRI("pop2"), IRI("hasPopType"), String("NLJOIN"))
	g.Add(IRI("pop2"), IRI("hasPopType"), String("HSJOIN"))
	if g.Len() != 9 {
		t.Errorf("Len after two duplicates and a fresh Add = %d, want 9", g.Len())
	}
}

func TestGraphHas(t *testing.T) {
	g := testGraph()
	if !g.Has(IRI("pop5"), IRI("hasPopType"), String("TBSCAN")) {
		t.Error("expected triple missing")
	}
	if g.Has(IRI("pop5"), IRI("hasPopType"), String("IXSCAN")) {
		t.Error("unexpected triple present")
	}
	if g.Has(IRI("nope"), IRI("hasPopType"), String("TBSCAN")) {
		t.Error("unknown subject matched")
	}
}

func collectMatches(g *Graph, s, p, o ID) []Triple {
	var out []Triple
	g.Match(s, p, o, func(s, p, o ID) bool {
		out = append(out, Triple{g.dict.Term(s), g.dict.Term(p), g.dict.Term(o)})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

func TestGraphMatchAllCombinations(t *testing.T) {
	g := testGraph()
	d := g.Dict()
	pop2 := d.Lookup(IRI("pop2"))
	hasType := d.Lookup(IRI("hasPopType"))
	nljoin := d.Lookup(String("NLJOIN"))

	// (s p o) fully bound
	if got := collectMatches(g, pop2, hasType, nljoin); len(got) != 1 {
		t.Errorf("(s,p,o): got %d matches, want 1", len(got))
	}
	// (s p -)
	if got := collectMatches(g, pop2, hasType, NoID); len(got) != 1 {
		t.Errorf("(s,p,-): got %d matches, want 1", len(got))
	}
	// (- p o)
	if got := collectMatches(g, NoID, hasType, nljoin); len(got) != 1 {
		t.Errorf("(-,p,o): got %d matches, want 1", len(got))
	}
	// (- p -) : 3 pops have a type
	if got := collectMatches(g, NoID, hasType, NoID); len(got) != 3 {
		t.Errorf("(-,p,-): got %d matches, want 3", len(got))
	}
	// (s - -) : pop2 has 3 triples
	if got := collectMatches(g, pop2, NoID, NoID); len(got) != 3 {
		t.Errorf("(s,-,-): got %d matches, want 3", len(got))
	}
	// (- - o)
	if got := collectMatches(g, NoID, NoID, nljoin); len(got) != 1 {
		t.Errorf("(-,-,o): got %d matches, want 1", len(got))
	}
	// (s - o)
	if got := collectMatches(g, pop2, NoID, nljoin); len(got) != 1 {
		t.Errorf("(s,-,o): got %d matches, want 1", len(got))
	}
	// (- - -)
	if got := collectMatches(g, NoID, NoID, NoID); len(got) != g.Len() {
		t.Errorf("(-,-,-): got %d matches, want %d", len(got), g.Len())
	}
}

func TestGraphMatchEarlyStop(t *testing.T) {
	g := testGraph()
	calls := 0
	g.Match(NoID, NoID, NoID, func(_, _, _ ID) bool {
		calls++
		return calls < 3
	})
	if calls != 3 {
		t.Errorf("early stop: %d calls, want 3", calls)
	}
}

func TestGraphMatchScanAgreesWithMatch(t *testing.T) {
	g := testGraph()
	d := g.Dict()
	pop2 := d.Lookup(IRI("pop2"))
	want := collectMatches(g, pop2, NoID, NoID)
	var got []Triple
	g.MatchScan(pop2, NoID, NoID, func(s, p, o ID) bool {
		got = append(got, Triple{g.dict.Term(s), g.dict.Term(p), g.dict.Term(o)})
		return true
	})
	sort.Slice(got, func(i, j int) bool { return got[i].String() < got[j].String() })
	if !reflect.DeepEqual(got, want) {
		t.Errorf("MatchScan = %v, Match = %v", got, want)
	}
}

func TestGraphObjectsAndSubjects(t *testing.T) {
	g := testGraph()
	objs := g.Objects(IRI("pop2"), IRI("hasPopType"))
	if len(objs) != 1 || objs[0].Value != "NLJOIN" {
		t.Errorf("Objects = %v", objs)
	}
	subs := g.Subjects(IRI("hasPopType"), String("TBSCAN"))
	if len(subs) != 1 || subs[0].Value != "pop5" {
		t.Errorf("Subjects = %v", subs)
	}
	if got := g.FirstObject(IRI("pop5"), IRI("hasEstimateCardinality")); got.Value != "4043.0" {
		t.Errorf("FirstObject = %v", got)
	}
	if got := g.FirstObject(IRI("pop5"), IRI("noSuchPred")); !got.Zero() {
		t.Errorf("FirstObject on absent edge = %v, want zero", got)
	}
	if g.Objects(IRI("ghost"), IRI("hasPopType")) != nil {
		t.Error("Objects on unknown subject should be nil")
	}
	if g.Subjects(IRI("ghost"), Term{}) != nil {
		t.Error("Subjects on unknown predicate should be nil")
	}
}

// randomTriples builds a reproducible random triple set for property tests.
func randomTriples(seed int64, n int) []Triple {
	rng := rand.New(rand.NewSource(seed))
	subjects := []Term{IRI("a"), IRI("b"), IRI("c"), Blank("x")}
	preds := []Term{IRI("p"), IRI("q"), IRI("r")}
	objects := []Term{IRI("a"), String("lit1"), Float(1), Float(2), Blank("y")}
	ts := make([]Triple, n)
	for i := range ts {
		ts[i] = Triple{
			S: subjects[rng.Intn(len(subjects))],
			P: preds[rng.Intn(len(preds))],
			O: objects[rng.Intn(len(objects))],
		}
	}
	return ts
}

// Property: for any insertion set and any pattern, Match and MatchScan agree,
// and Count equals the number of Match callbacks.
func TestGraphMatchScanCountAgreementProperty(t *testing.T) {
	check := func(seed int64, nRaw uint8, sBound, pBound, oBound bool) bool {
		n := int(nRaw%50) + 1
		g := NewGraph()
		ts := randomTriples(seed, n)
		for _, tr := range ts {
			g.AddTriple(tr)
		}
		// Pick a pattern from the first triple's IDs.
		d := g.Dict()
		var s, p, o ID
		if sBound {
			s = d.Lookup(ts[0].S)
		}
		if pBound {
			p = d.Lookup(ts[0].P)
		}
		if oBound {
			o = d.Lookup(ts[0].O)
		}
		a := collectMatches(g, s, p, o)
		var b []Triple
		g.MatchScan(s, p, o, func(s, p, o ID) bool {
			b = append(b, Triple{d.Term(s), d.Term(p), d.Term(o)})
			return true
		})
		sort.Slice(b, func(i, j int) bool { return b[i].String() < b[j].String() })
		if !reflect.DeepEqual(a, b) {
			return false
		}
		return g.Count(s, p, o) == len(a)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: inserting the same triples in any order yields identical graphs
// (same triple set, same Len).
func TestGraphInsertionOrderIndependenceProperty(t *testing.T) {
	check := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%40) + 1
		ts := randomTriples(seed, n)
		g1 := NewGraph()
		for _, tr := range ts {
			g1.AddTriple(tr)
		}
		g2 := NewGraph()
		for i := len(ts) - 1; i >= 0; i-- {
			g2.AddTriple(ts[i])
		}
		if g1.Len() != g2.Len() {
			return false
		}
		a, b := g1.Triples(), g2.Triples()
		sort.Slice(a, func(i, j int) bool { return a[i].String() < a[j].String() })
		sort.Slice(b, func(i, j int) bool { return b[i].String() < b[j].String() })
		return reflect.DeepEqual(a, b)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDict(t *testing.T) {
	d := NewDict()
	a := d.Intern(IRI("a"))
	b := d.Intern(IRI("b"))
	if a == NoID || b == NoID || a == b {
		t.Fatalf("bad ids: %d %d", a, b)
	}
	if d.Intern(IRI("a")) != a {
		t.Error("re-intern returned different id")
	}
	if d.Lookup(IRI("a")) != a {
		t.Error("Lookup mismatch")
	}
	if d.Lookup(IRI("zzz")) != NoID {
		t.Error("Lookup of unknown term should be NoID")
	}
	if d.Term(a) != IRI("a") {
		t.Error("Term() mismatch")
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d, want 2", d.Len())
	}
}
