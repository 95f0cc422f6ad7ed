// Package transform converts query execution plans into RDF graphs
// (the paper's Algorithm 1) and maps matched RDF resources back to plan
// operators and base objects (the de-transformation step of Algorithm 3).
//
// Every LOLEPOP becomes an RDF resource carrying its properties as
// predicates; every input stream is reified through a dedicated stream node
// so that a common subexpression consumed in several places (a TEMP with
// multiple consumers) keeps one distinct edge per consumer — resolving the
// ambiguity problem described in Section 2.2 of the paper. During
// transformation derived predicates are added: hasTotalCostIncrease (the
// operator's own cost), hasPopClass (JOIN/SCAN/... buckets) and the direct
// hasChildPop/hasOuterChildPop/hasInnerChildPop closure helpers that make
// descendant property paths cheap.
package transform

import (
	"fmt"
	"sort"

	"optimatch/internal/qep"
	"optimatch/internal/rdf"
)

// Namespace IRIs.
const (
	// PredNS is the predicate namespace ("preduri" prefix in the paper's
	// Figure 6).
	PredNS = "http://optimatch/pred/"
	// ArgNS holds operator-argument predicates (one per argument key).
	ArgNS = "http://optimatch/pred/arg/"
	// PopNS is the LOLEPOP resource namespace ("popuri" in Figure 6).
	PopNS = "http://optimatch/qep/"
)

// Predicate IRIs. Exported so the pattern compiler and knowledge base can
// generate queries against the same vocabulary.
const (
	PredPopType           = PredNS + "hasPopType"
	PredPopClass          = PredNS + "hasPopClass"
	PredOperatorNumber    = PredNS + "hasOperatorNumber"
	PredTotalCost         = PredNS + "hasTotalCost"
	PredIOCost            = PredNS + "hasIOCost"
	PredCPUCost           = PredNS + "hasCPUCost"
	PredFirstRowCost      = PredNS + "hasFirstRowCost"
	PredBufferpool        = PredNS + "hasBufferpoolBuffers"
	PredCardinality       = PredNS + "hasEstimateCardinality"
	PredTotalCostIncrease = PredNS + "hasTotalCostIncrease"
	PredJoinType          = PredNS + "hasJoinType"
	PredPredicateText     = PredNS + "hasPredicateText"
	PredOuterInputStream  = PredNS + "hasOuterInputStream"
	PredInnerInputStream  = PredNS + "hasInnerInputStream"
	PredInputStream       = PredNS + "hasInputStream"
	PredOutputStream      = PredNS + "hasOutputStream"
	PredStreamRows        = PredNS + "hasStreamRows"
	PredStreamColumn      = PredNS + "hasStreamColumn"
	PredChildPop          = PredNS + "hasChildPop"
	PredOuterChildPop     = PredNS + "hasOuterChildPop"
	PredInnerChildPop     = PredNS + "hasInnerChildPop"
	PredIsBaseObj         = PredNS + "isABaseObj"
	PredName              = PredNS + "hasName"
	PredObjectType        = PredNS + "hasObjectType"
	PredColumn            = PredNS + "hasColumn"
	PredStatementID       = PredNS + "hasStatementID"
	PredStatementText     = PredNS + "hasStatementText"
	PredNumOperators      = PredNS + "hasNumOperators"
	PredRootPop           = PredNS + "hasRootPop"
)

// Prologue is the PREFIX block shared by all generated SPARQL queries.
const Prologue = "PREFIX preduri: <" + PredNS + ">\n" +
	"PREFIX popuri: <" + PopNS + ">\n" +
	"PREFIX arguri: <" + ArgNS + ">\n"

// BaseObjType is the pseudo pop-type assigned to base object resources, as
// used by the pattern builder's "BASE OB" operator type (paper Figure 5).
const BaseObjType = "BASE OB"

// Result is the outcome of transforming one plan: the RDF graph plus the
// de-transformation maps from resource IRIs back to plan entities.
type Result struct {
	Plan  *qep.Plan
	Graph *rdf.Graph

	ops  map[string]*qep.Operator
	objs map[string]*qep.BaseObject
}

// PopIRI returns the resource IRI of an operator in this plan.
func (r *Result) PopIRI(op *qep.Operator) rdf.Term {
	return rdf.IRI(fmt.Sprintf("%s%s/pop/%d", PopNS, r.Plan.ID, op.ID))
}

// ObjIRI returns the resource IRI of a base object in this plan.
func (r *Result) ObjIRI(obj *qep.BaseObject) rdf.Term {
	return rdf.IRI(PopNS + r.Plan.ID + "/obj/" + obj.Name)
}

// PlanIRI returns the resource IRI of the plan itself.
func (r *Result) PlanIRI() rdf.Term {
	return rdf.IRI(PopNS + r.Plan.ID + "/plan")
}

// Operator de-transforms a matched resource back to its plan operator, or
// nil when the term is not an operator resource of this plan.
func (r *Result) Operator(t rdf.Term) *qep.Operator {
	if !t.IsIRI() {
		return nil
	}
	return r.ops[t.Value]
}

// Object de-transforms a matched resource back to its base object, or nil.
func (r *Result) Object(t rdf.Term) *qep.BaseObject {
	if !t.IsIRI() {
		return nil
	}
	return r.objs[t.Value]
}

// Describe renders a matched resource the way a user sees it in the plan:
// "NLJOIN(2)" for operators, the object name for base objects, and the raw
// term otherwise.
func (r *Result) Describe(t rdf.Term) string {
	if op := r.Operator(t); op != nil {
		return fmt.Sprintf("%s(%d)", op.DisplayName(), op.ID)
	}
	if obj := r.Object(t); obj != nil {
		return obj.Name
	}
	return t.Value
}

// Transform converts a plan into its RDF graph representation. The returned
// graph is frozen.
func Transform(p *qep.Plan) *Result {
	r := &Result{
		Plan:  p,
		Graph: rdf.NewGraph(),
		ops:   make(map[string]*qep.Operator, len(p.Operators)),
		objs:  make(map[string]*qep.BaseObject, len(p.Objects)),
	}
	g := r.Graph

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
		r.objs[node.Value] = obj
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
		r.ops[node.Value] = op
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
				// Typed streams also carry the generic hasInputStream edge,
				// so a pattern's generic-input clause matches any stream
				// kind (the paper's "generic input used for any kind of
				// operator").
				g.Add(parent, rdf.IRI(PredInputStream), stream)
				g.Add(stream, rdf.IRI(PredInputStream), child)
			}
			g.Add(stream, rdf.IRI(PredStreamRows), rdf.Float(in.Rows))
			for _, col := range in.Columns {
				g.Add(stream, rdf.IRI(PredStreamColumn), rdf.String(col))
			}

			// Derived direct edges (general hasChildPop plus the typed
			// variant) to keep descendant property paths single-predicate.
			g.Add(parent, rdf.IRI(PredChildPop), child)
			if childPred != PredChildPop {
				g.Add(parent, rdf.IRI(childPred), child)
			}
		}
	}
	// A plan's graph is complete here and never changes again: build its
	// index now, on the transforming goroutine, so neither the engine's
	// table lock nor the first query pays for it.
	g.Freeze()
	return r
}

// sortedKeys returns m's keys in ascending order. Transform walks the plan
// model's maps through it: a graph iterates as a function of its Add
// sequence, so that sequence must be a function of the plan, not of Go's map
// order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func joinTypeName(op *qep.Operator) string {
	if !op.IsJoin() {
		return "NONE"
	}
	switch op.JoinMod {
	case qep.LeftOuterJoin:
		return "LEFT_OUTER"
	case qep.RightOuterJoin:
		return "RIGHT_OUTER"
	case qep.EarlyOutJoin:
		return "EARLY_OUT"
	default:
		return "INNER"
	}
}

// TransformAll converts a batch of plans, one RDF graph each (the paper's
// Algorithm 1 over a workload).
func TransformAll(plans []*qep.Plan) []*Result {
	out := make([]*Result, len(plans))
	for i, p := range plans {
		out[i] = Transform(p)
	}
	return out
}
