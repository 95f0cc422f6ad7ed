package rdf

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func testGraph() *Graph { return testBuilder().Graph() }

// testTriples are testGraph's triples in the order of their Adds. Those of
// pop2 are not adjacent, so the insertion order is not the SPO order.
var testTriples = []Triple{
	{IRI("pop2"), IRI("hasPopType"), String("NLJOIN")},
	{IRI("pop3"), IRI("hasPopType"), String("FETCH")},
	{IRI("pop5"), IRI("hasPopType"), String("TBSCAN")},
	{IRI("pop5"), IRI("hasEstimateCardinality"), TypedLiteral("4043.0", XSDDouble)},
	{IRI("pop2"), IRI("hasOuterInputStream"), IRI("stream1")},
	{IRI("stream1"), IRI("hasOuterInputStream"), IRI("pop3")},
	{IRI("pop2"), IRI("hasInnerInputStream"), IRI("stream2")},
	{IRI("stream2"), IRI("hasInnerInputStream"), IRI("pop5")},
}

func testBuilder() *Builder {
	b := NewBuilder()
	for _, t := range testTriples {
		b.AddTriple(t)
	}
	return b
}

func TestGraphAddAndLen(t *testing.T) {
	if g := testGraph(); g.Len() != 8 {
		t.Fatalf("Len = %d, want 8", g.Len())
	}
	// A duplicate insert is a no-op: the index build drops it.
	b := testBuilder()
	b.Add(IRI("pop2"), IRI("hasPopType"), String("NLJOIN"))
	b.Add(IRI("pop2"), IRI("hasPopType"), String("NLJOIN"))
	b.Add(IRI("pop2"), IRI("hasPopType"), String("HSJOIN"))
	if g := b.Graph(); g.Len() != 9 {
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

// Match(pop2, -, -) yields pop2's triples by ascending predicate, and
// Match(-, -, -) every triple in SPO order — not in the order of the Adds,
// which the test keeps itself.
func TestGraphMatchAgreesWithAddList(t *testing.T) {
	b := NewBuilder()
	var log addList
	for _, tr := range testTriples {
		log.addTriple(b, tr)
	}
	g := b.Graph()
	if reflect.DeepEqual(log, log.spo()) {
		t.Fatal("the Adds are in SPO order already: the test cannot tell the orders apart")
	}
	pop2 := g.Dict().Lookup(IRI("pop2"))
	for _, probe := range [][3]ID{{pop2, NoID, NoID}, {NoID, NoID, NoID}} {
		got := [][3]ID{}
		g.Match(probe[0], probe[1], probe[2], func(s, p, o ID) bool {
			got = append(got, [3]ID{s, p, o})
			return true
		})
		if want := expectMatch(log, probe[0], probe[1], probe[2]); !reflect.DeepEqual(got, want) {
			t.Errorf("Match%v = %v, want %v", probe, got, want)
		}
	}
}

// One subject reaches one object through two predicates, added in the
// opposite order to their IDs, and a later subject reaches it first: (s,-,o)
// and (-,-,o) yield SPO order — by subject, then predicate —, not the order
// of the Adds, and Count agrees.
func TestGraphMatchFreePredicateSPOOrder(t *testing.T) {
	b := NewBuilder()
	s, s2, o := b.Intern(IRI("pop1")), b.Intern(IRI("pop2")), b.Intern(IRI("stream1"))
	p1, p2 := b.Intern(IRI("hasOutputStream")), b.Intern(IRI("hasInputStream"))
	b.AddIDs(s2, p1, o)
	b.AddIDs(s, p2, o)
	b.AddIDs(s, p1, o)
	g := b.Graph()
	for _, tc := range []struct {
		s    ID
		want [][3]ID
	}{
		{s, [][3]ID{{s, p1, o}, {s, p2, o}}},
		{NoID, [][3]ID{{s, p1, o}, {s, p2, o}, {s2, p1, o}}},
	} {
		got := [][3]ID{}
		g.Match(tc.s, NoID, o, func(s, p, o ID) bool {
			got = append(got, [3]ID{s, p, o})
			return true
		})
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Match(%d,-,%d) = %v, want %v", tc.s, o, got, tc.want)
		}
		if n := g.Count(tc.s, NoID, o); n != len(tc.want) {
			t.Errorf("Count(%d,-,%d) = %d, want %d", tc.s, o, n, len(tc.want))
		}
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

// Property: for any insertion sequence and any pattern, Match yields the
// sequence the contract names for the test's own list of its Adds
// (expectMatch), and Count equals the number of Match callbacks.
func TestGraphMatchCountAgreementProperty(t *testing.T) {
	check := func(seed int64, nRaw uint8, sBound, pBound, oBound bool) bool {
		n := int(nRaw%50) + 1
		gb := NewBuilder()
		ts := randomTriples(seed, n)
		var log addList
		for _, tr := range ts {
			log.addTriple(gb, tr)
		}
		// Pick a pattern from the first triple's IDs.
		d := gb.Dict()
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
		g := gb.Graph()
		got := [][3]ID{}
		g.Match(s, p, o, func(s, p, o ID) bool {
			got = append(got, [3]ID{s, p, o})
			return true
		})
		if !reflect.DeepEqual(got, expectMatch(log, s, p, o)) {
			return false
		}
		return g.Count(s, p, o) == len(got)
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
		b1, b2 := NewBuilder(), NewBuilder()
		for i := range ts {
			b1.AddTriple(ts[i])
			b2.AddTriple(ts[len(ts)-1-i])
		}
		g1, g2 := b1.Graph(), b2.Graph()
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
	d := newDictSize(0, 0)
	a := d.intern(IRI("a"))
	b := d.intern(IRI("b"))
	if a == NoID || b == NoID || a == b {
		t.Fatalf("bad ids: %d %d", a, b)
	}
	if d.intern(IRI("a")) != a {
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
