package transform

import (
	"testing"

	"optimatch/internal/fixtures"
	"optimatch/internal/rdf"
)

// TestSharedTempReification checks the Section 2.2 disambiguation: when a
// TEMP has two consumers, each consumer edge goes through its own stream
// node, so the two connections remain distinguishable.
func TestSharedTempReification(t *testing.T) {
	p := fixtures.SharedTemp()
	r := Transform(p)
	g := r.Graph

	temp := r.PopIRI(p.Op(6))
	nl := r.PopIRI(p.Op(3))
	hs := r.PopIRI(p.Op(4))

	// The TEMP has two outgoing hasOutputStream edges to two distinct
	// stream nodes.
	streams := g.Objects(temp, rdf.IRI(PredOutputStream))
	if len(streams) != 2 {
		t.Fatalf("output streams = %d, want 2 (%v)", len(streams), streams)
	}
	if streams[0] == streams[1] {
		t.Fatal("consumer stream nodes collide")
	}
	// Each stream node leads to exactly one of the consumers.
	consumers := map[string]bool{}
	for _, s := range streams {
		parent := g.FirstObject(s, rdf.IRI(PredOutputStream))
		consumers[parent.Value] = true
	}
	if !consumers[nl.Value] || !consumers[hs.Value] {
		t.Errorf("consumers = %v, want NLJOIN and HSJOIN", consumers)
	}

	// Both consumers have direct derived child edges to the TEMP.
	if !g.Has(nl, rdf.IRI(PredChildPop), temp) || !g.Has(hs, rdf.IRI(PredChildPop), temp) {
		t.Error("hasChildPop edges to shared TEMP missing")
	}
	// The typed inner-child edges exist for both joins (TEMP is the inner
	// input of each).
	if !g.Has(nl, rdf.IRI(PredInnerChildPop), temp) || !g.Has(hs, rdf.IRI(PredInnerChildPop), temp) {
		t.Error("typed inner child edges missing")
	}
}

// TestTypedStreamsCarryGenericEdge checks that inner/outer streams also
// expose the generic hasInputStream predicate, so a pattern's generic-input
// clause matches any stream kind.
func TestTypedStreamsCarryGenericEdge(t *testing.T) {
	p := fixtures.Figure1()
	r := Transform(p)
	g := r.Graph
	nl := r.PopIRI(p.Op(2))

	inner := g.Objects(nl, rdf.IRI(PredInnerInputStream))
	if len(inner) != 1 {
		t.Fatalf("inner streams = %d", len(inner))
	}
	// The same stream node is reachable via the generic predicate.
	generic := g.Objects(nl, rdf.IRI(PredInputStream))
	found := false
	for _, s := range generic {
		if s == inner[0] {
			found = true
		}
	}
	if !found {
		t.Errorf("generic hasInputStream missing for typed stream: %v", generic)
	}
}
