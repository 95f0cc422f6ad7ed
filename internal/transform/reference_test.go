package transform

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"optimatch/internal/fixtures"
	"optimatch/internal/qep"
	"optimatch/internal/rdf"
	"optimatch/internal/workload"
)

// detransformMaps is de-transformation as a Result once held it: a map from
// every operator's and every base object's IRI to that entity, filled in as
// the plan was transformed. It is the oracle Result.Operator and
// Result.Object, which read the IRI instead, are held to.
type detransformMaps struct {
	ops  map[string]*qep.Operator
	objs map[string]*qep.BaseObject
}

// operator is what the maps de-transform t to, or nil.
func (m detransformMaps) operator(t rdf.Term) *qep.Operator {
	if !t.IsIRI() {
		return nil
	}
	return m.ops[t.Value]
}

// object is what the maps de-transform t to, or nil.
func (m detransformMaps) object(t rdf.Term) *qep.BaseObject {
	if !t.IsIRI() {
		return nil
	}
	return m.objs[t.Value]
}

// transformReference is Transform as it was before it added ID triples: one
// g.Add of three terms per triple, every term built and looked up again each
// time it is used, and the de-transformation maps filled in beside the graph.
// It is the oracle TestTransformSameGraph holds Transform to.
func transformReference(p *qep.Plan) (*Result, detransformMaps) {
	r := &Result{Plan: p}
	m := detransformMaps{
		ops:  make(map[string]*qep.Operator, p.NumOps()),
		objs: make(map[string]*qep.BaseObject, len(p.Objects)),
	}
	g := rdf.NewBuilder()

	// Plan-level resource.
	plan := r.PlanIRI()
	g.Add(plan, rdf.IRI(PredStatementID), rdf.String(p.ID))
	g.Add(plan, rdf.IRI(PredStatementText), rdf.String(p.Statement))
	g.Add(plan, rdf.IRI(PredTotalCost), rdf.Float(p.TotalCost))
	g.Add(plan, rdf.IRI(PredNumOperators), rdf.Int(int64(p.NumOps())))
	if p.Root != nil {
		g.Add(plan, rdf.IRI(PredRootPop), r.PopIRI(p.Root))
	}

	// Base objects.
	for _, name := range sortedKeys(p.Objects) {
		obj := p.Objects[name]
		node := r.ObjIRI(obj)
		m.objs[node.Value] = obj
		g.Add(node, rdf.IRI(PredIsBaseObj), rdf.Bool(true))
		g.Add(node, rdf.IRI(PredPopType), rdf.String(BaseObjType))
		g.Add(node, rdf.IRI(PredName), rdf.String(obj.Name))
		g.Add(node, rdf.IRI(PredObjectType), rdf.String(obj.Type))
		g.Add(node, rdf.IRI(PredCardinality), rdf.Float(obj.Cardinality))
		for _, col := range obj.Columns {
			g.Add(node, rdf.IRI(PredColumn), rdf.String(col))
		}
	}

	// Operators with their properties.
	for _, op := range p.Ops() {
		node := r.PopIRI(op)
		m.ops[node.Value] = op
		g.Add(node, rdf.IRI(PredPopType), rdf.String(op.Type))
		g.Add(node, rdf.IRI(PredPopClass), rdf.String(op.Class()))
		g.Add(node, rdf.IRI(PredOperatorNumber), rdf.Int(int64(op.ID)))
		g.Add(node, rdf.IRI(PredTotalCost), rdf.Float(op.TotalCost))
		g.Add(node, rdf.IRI(PredIOCost), rdf.Float(op.IOCost))
		g.Add(node, rdf.IRI(PredCPUCost), rdf.Float(op.CPUCost))
		g.Add(node, rdf.IRI(PredFirstRowCost), rdf.Float(op.FirstRow))
		g.Add(node, rdf.IRI(PredBufferpool), rdf.Float(op.Buffers))
		g.Add(node, rdf.IRI(PredCardinality), rdf.Float(op.Cardinality))
		g.Add(node, rdf.IRI(PredTotalCostIncrease), rdf.Float(op.SelfCost()))
		g.Add(node, rdf.IRI(PredJoinType), rdf.String(joinTypeName(op)))
		for _, pr := range op.Predicates {
			g.Add(node, rdf.IRI(PredPredicateText), rdf.String(pr))
		}
		for _, k := range sortedKeys(op.Args) {
			g.Add(node, rdf.IRI(ArgNS+k), rdf.String(op.Args[k]))
		}
	}

	// Streams: one reified node per (parent, input) edge, so each consumer
	// of a shared subexpression has a distinct connection.
	for _, op := range p.Ops() {
		parent := r.PopIRI(op)
		for i, in := range op.Inputs {
			streamPred := PredInputStream
			childPred := PredChildPop
			switch in.Kind {
			case qep.OuterStream:
				streamPred = PredOuterInputStream
				childPred = PredOuterChildPop
			case qep.InnerStream:
				streamPred = PredInnerInputStream
				childPred = PredInnerChildPop
			}
			var child rdf.Term
			if in.Op != nil {
				child = r.PopIRI(in.Op)
			} else {
				child = r.ObjIRI(in.Obj)
			}
			stream := rdf.IRI(fmt.Sprintf("%s%s/stream/%d_%d", PopNS, p.ID, op.ID, i))
			g.Add(parent, rdf.IRI(streamPred), stream)
			g.Add(stream, rdf.IRI(streamPred), child)
			g.Add(child, rdf.IRI(PredOutputStream), stream)
			g.Add(stream, rdf.IRI(PredOutputStream), parent)
			if streamPred != PredInputStream {
				g.Add(parent, rdf.IRI(PredInputStream), stream)
				g.Add(stream, rdf.IRI(PredInputStream), child)
			}
			g.Add(stream, rdf.IRI(PredStreamRows), rdf.Float(in.Rows))
			for _, col := range in.Columns {
				g.Add(stream, rdf.IRI(PredStreamColumn), rdf.String(col))
			}
			g.Add(parent, rdf.IRI(PredChildPop), child)
			if childPred != PredChildPop {
				g.Add(parent, rdf.IRI(childPred), child)
			}
		}
	}
	r.Graph = g.Graph()
	return r, m
}

// oraclePlans are the plans the build path is checked on: every fixture, 64
// generated plans of 60–240 operators with the benchmark's injection shares,
// and fixtures.DoubleFedJoin.
func oraclePlans(t testing.TB) []*qep.Plan {
	t.Helper()
	const n = 64
	share := func(pct int) int { return n * pct / 100 }
	w, err := workload.Generate(workload.Config{
		Seed: 1, NumPlans: n, MinOps: 60, MaxOps: 240,
		InjectA: share(15), InjectB: share(12), InjectC: share(18), InjectD: share(10), InjectG: share(5),
	})
	if err != nil {
		t.Fatal(err)
	}
	plans := append(fixtures.All(), fixtures.SharedTemp(), fixtures.DoubleFedJoin())
	return append(plans, w.Plans...)
}

// TestTransformSameGraph holds Transform to transformReference: the same
// dictionary ID for ID, the same log, the same N-Triples, the same numeric
// column and the same predicate statistics, for every oracle plan.
// (TestDetransformMatchesMaps holds de-transformation to the reference's
// maps.)
func TestTransformSameGraph(t *testing.T) {
	for _, p := range oraclePlans(t) {
		want, _ := transformReference(p)
		g, ref := Transform(p).Graph, want.Graph
		if g.MaxID() != ref.MaxID() {
			t.Fatalf("plan %s: %d terms, the reference has %d", p.ID, g.MaxID(), ref.MaxID())
		}
		for id := rdf.ID(1); id <= ref.MaxID(); id++ {
			if g.Dict().Term(id) != ref.Dict().Term(id) {
				t.Fatalf("plan %s: term %d is %v, the reference has %v", p.ID, id, g.Dict().Term(id), ref.Dict().Term(id))
			}
			gf, gok := g.Float(id)
			rf, rok := ref.Float(id)
			if gok != rok || math.Float64bits(gf) != math.Float64bits(rf) {
				t.Fatalf("plan %s: Float(%v) = %v, %v; the reference has %v, %v", p.ID, ref.Dict().Term(id), gf, gok, rf, rok)
			}
			gs, rs := g.PredStats(id), ref.PredStats(id)
			if (gs == nil) != (rs == nil) || (gs != nil && *gs != *rs) {
				t.Fatalf("plan %s: PredStats(%v) = %+v, the reference has %+v", p.ID, ref.Dict().Term(id), gs, rs)
			}
		}
		// The same triples in every order a read can see: SPO (-,-,-) and
		// (-,-,o) per object, POS (-,p,-) per predicate, each with its ties
		// in insertion order.
		if g.Len() != ref.Len() {
			t.Fatalf("plan %s: %d triples, the reference has %d", p.ID, g.Len(), ref.Len())
		}
		rows := func(g *rdf.Graph, s, pr, o rdf.ID) (out [][3]rdf.ID) {
			g.Match(s, pr, o, func(s, pr, o rdf.ID) bool { out = append(out, [3]rdf.ID{s, pr, o}); return true })
			return out
		}
		for id := rdf.NoID; id <= ref.MaxID(); id++ { // NoID: (-,-,-)
			for _, probe := range [][3]rdf.ID{{rdf.NoID, id, rdf.NoID}, {rdf.NoID, rdf.NoID, id}} {
				got, want := rows(g, probe[0], probe[1], probe[2]), rows(ref, probe[0], probe[1], probe[2])
				if !slices.Equal(got, want) {
					t.Fatalf("plan %s: Match%v yields %v, the reference %v", p.ID, probe, got, want)
				}
			}
		}
		var nt, refNT bytes.Buffer
		if err := rdf.WriteNTriples(&nt, g); err != nil {
			t.Fatal(err)
		}
		if err := rdf.WriteNTriples(&refNT, ref); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(nt.Bytes(), refNT.Bytes()) {
			t.Fatalf("plan %s: N-Triples differ from the reference's", p.ID)
		}
	}
}

// The plan that exists for the duplicates: each repeated triple once, where it
// was first added.
func TestTransformDropsDuplicateTriples(t *testing.T) {
	p := fixtures.DoubleFedJoin()
	r := Transform(p)
	g := r.Graph
	join, temp := r.PopIRI(p.Op(2)), r.PopIRI(p.Op(3))
	if n := len(g.Objects(join, rdf.IRI(PredChildPop))); n != 1 {
		t.Errorf("hasChildPop edges from the join to its TEMP = %d, want 1", n)
	}
	if !g.Has(join, rdf.IRI(PredOuterChildPop), temp) || !g.Has(join, rdf.IRI(PredInnerChildPop), temp) {
		t.Error("a typed child edge is missing")
	}
	seen := map[rdf.Triple]bool{}
	for _, tr := range g.Triples() {
		if seen[tr] {
			t.Errorf("triple %v is in the graph twice", tr)
		}
		seen[tr] = true
	}
}
