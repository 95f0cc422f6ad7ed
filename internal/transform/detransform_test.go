package transform

import (
	"strings"
	"testing"

	"optimatch/internal/fixtures"
	"optimatch/internal/qep"
	"optimatch/internal/rdf"
	"optimatch/internal/workload"
)

// detransformPlans are the plans de-transformation is checked on: every
// fixture, then the fixture of Figure 1 under the IDs R1, R10 and R100, then
// the workloads of seeds 1, 16 and 42, whose plans Q1 … Q64 also prefix one
// another.
func detransformPlans(t *testing.T) []*qep.Plan {
	t.Helper()
	plans := append(fixtures.All(), fixtures.SharedTemp(), fixtures.DoubleFedJoin())
	for _, id := range []string{"R1", "R10", "R100"} {
		p := fixtures.Figure1()
		p.ID = id
		plans = append(plans, p)
	}
	for _, cfg := range []workload.Config{
		{Seed: 1, NumPlans: 64, MinOps: 60, MaxOps: 240, InjectA: 9, InjectB: 7, InjectC: 11, InjectD: 6, InjectG: 3},
		{Seed: 16, NumPlans: 16, MinOps: 60, MaxOps: 240},
		{Seed: 42, NumPlans: 24, MinOps: 30, MaxOps: 80, InjectA: 4, InjectB: 3, InjectC: 5},
	} {
		w, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, w.Plans...)
	}
	return plans
}

// checkDetransform fails the test unless r de-transforms t to what the maps
// of r's reference transformation do.
func checkDetransform(t *testing.T, r *Result, maps detransformMaps, term rdf.Term) {
	t.Helper()
	if got, want := r.Operator(term), maps.operator(term); got != want {
		t.Fatalf("plan %s: %v de-transforms to operator %v, the maps to %v", r.Plan.ID, term, got, want)
	}
	if got, want := r.Object(term), maps.object(term); got != want {
		t.Fatalf("plan %s: %v de-transforms to object %v, the maps to %v", r.Plan.ID, term, got, want)
	}
}

// TestDetransformMatchesMaps holds Result.Operator and Result.Object, which
// read a term's IRI, to the maps Transform used to build: for every term of
// every plan's dictionary, asked of that plan and of every plan whose ID is a
// prefix of its own or has its own as a prefix, where one plan's IRI starts
// like the other's.
func TestDetransformMatchesMaps(t *testing.T) {
	plans := detransformPlans(t)
	results := make([]*Result, len(plans))
	maps := make([]detransformMaps, len(plans))
	for i, p := range plans {
		results[i] = Transform(p)
		_, maps[i] = transformReference(p)
	}
	found := 0
	for i, r := range results {
		dict := r.Graph.Dict()
		for j, other := range results {
			if j != i && !strings.HasPrefix(other.Plan.ID, r.Plan.ID) && !strings.HasPrefix(r.Plan.ID, other.Plan.ID) {
				continue
			}
			for id := rdf.ID(1); id <= r.Graph.MaxID(); id++ {
				term := dict.Term(id)
				checkDetransform(t, other, maps[j], term)
				if j == i && (other.Operator(term) != nil || other.Object(term) != nil) {
					found++
				}
			}
		}
	}
	entities := 0
	for _, p := range plans {
		entities += p.NumOps() + len(p.Objects)
	}
	if found != entities {
		t.Errorf("%d dictionary terms de-transform in their own plan, want one per operator and object, %d", found, entities)
	}
}

// TestDetransformNearMisses: a term that is spelled almost as one of the
// plan's operators or objects de-transforms to nothing, as it did by the maps.
func TestDetransformNearMisses(t *testing.T) {
	p := fixtures.Figure1()
	p.ID = "R1"
	r := Transform(p)
	_, maps := transformReference(p)
	pop, obj := PopNS+"R1/pop/", PopNS+"R1/obj/"
	if r.Operator(rdf.IRI(pop+"2")) != p.Op(2) || r.Object(rdf.IRI(obj+"CUST_DIM")) != p.Objects["CUST_DIM"] {
		t.Fatal("an operator or object IRI of the plan does not de-transform")
	}
	for _, term := range []rdf.Term{
		rdf.String(pop + "2"),            // not an IRI
		rdf.Int(2),                       // a number
		rdf.IRI(PopNS + "R10/pop/2"),     // a plan whose ID this one's prefixes
		rdf.IRI(PopNS + "R/pop/2"),       // a plan whose ID prefixes this one's
		rdf.IRI("http://other/R1/pop/2"), // another namespace
		rdf.IRI(PopNS + "R1/POP/2"),
		rdf.IRI(pop + "02"),
		rdf.IRI(pop + "002"),
		rdf.IRI(pop + "+2"),
		rdf.IRI(pop + "-2"),
		rdf.IRI(pop + "0"),
		rdf.IRI(pop),
		rdf.IRI(pop + "2x"),
		rdf.IRI(pop + "2/"),
		rdf.IRI(pop + "2 "),
		rdf.IRI(pop + " 2"),
		rdf.IRI(pop + "6"),                    // no such operator
		rdf.IRI(pop + "9223372036854775807"),  // the largest int: no such operator
		rdf.IRI(pop + "9223372036854775808"),  // one more than an int holds
		rdf.IRI(pop + "18446744073709551618"), // wraps round to 2 in a uint64
		rdf.IRI(obj),
		rdf.IRI(obj + "CUST_DI"),
		rdf.IRI(obj + "CUST_DIMX"),
		rdf.IRI(obj + "cust_dim"),
		rdf.IRI(obj + "2"),
		rdf.IRI(pop + "CUST_DIM"),
		rdf.IRI(PopNS + "R1/plan"),
		rdf.IRI(PopNS + "R1/stream/2_0"),
		rdf.IRI(PopNS + "R1"),
		{},
	} {
		checkDetransform(t, r, maps, term)
		if op, o := r.Operator(term), r.Object(term); op != nil || o != nil {
			t.Errorf("%v de-transforms to operator %v, object %v; want neither", term, op, o)
		}
	}
}
