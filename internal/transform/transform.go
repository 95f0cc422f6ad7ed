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
	"sort"
	"strconv"
	"strings"

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

// Result is the outcome of transforming one plan: the plan and its RDF graph.
// A resource IRI de-transforms by its own spelling — the plan's ID and the
// operator's number or the object's name —, so the plan is the only index of
// its entities.
type Result struct {
	Plan  *qep.Plan
	Graph *rdf.Graph
}

// PopIRI returns the resource IRI of an operator in this plan.
func (r *Result) PopIRI(op *qep.Operator) rdf.Term {
	return rdf.IRI(PopNS + r.Plan.ID + "/pop/" + strconv.Itoa(op.ID))
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
// nil when the term is not an operator resource of this plan: not the IRI
// PopIRI spells for one of its operators, which are numbered positively.
func (r *Result) Operator(t rdf.Term) *qep.Operator {
	number, ok := r.local(t, "/pop/")
	// strconv.Itoa's spelling of a positive number: no sign, no leading zero.
	if !ok || number == "" || number[0] < '1' || number[0] > '9' {
		return nil
	}
	id, err := strconv.Atoi(number)
	if err != nil {
		return nil
	}
	return r.Plan.Op(id)
}

// Object de-transforms a matched resource back to its base object, or nil:
// the object ObjIRI spells t for.
func (r *Result) Object(t rdf.Term) *qep.BaseObject {
	name, ok := r.local(t, "/obj/")
	if !ok {
		return nil
	}
	return r.Plan.Objects[name]
}

// local returns what follows PopNS, this plan's ID and kind in t's IRI, and
// whether t is such an IRI.
func (r *Result) local(t rdf.Term, kind string) (string, bool) {
	if !t.IsIRI() {
		return "", false
	}
	rest, ok := strings.CutPrefix(t.Value, PopNS)
	if ok {
		rest, ok = strings.CutPrefix(rest, r.Plan.ID)
	}
	if ok {
		rest, ok = strings.CutPrefix(rest, kind)
	}
	return rest, ok
}

// Describe renders a matched resource the way a user sees it in the plan:
// "NLJOIN(2)" for operators, the object name for base objects, and the raw
// term otherwise. Only an operator's text is built; the others are returned
// as they are held.
func (r *Result) Describe(t rdf.Term) string {
	op, s := r.describe(t)
	if op == nil {
		return s
	}
	return string(appendOperator(make([]byte, 0, 32), op))
}

// appendDescribe appends what Describe returns.
func (r *Result) appendDescribe(dst []byte, t rdf.Term) []byte {
	op, s := r.describe(t)
	if op == nil {
		return append(dst, s...)
	}
	return appendOperator(dst, op)
}

// describe returns the operator t is, or else the text Describe returns for t.
func (r *Result) describe(t rdf.Term) (*qep.Operator, string) {
	if op := r.Operator(t); op != nil {
		return op, ""
	}
	if obj := r.Object(t); obj != nil {
		return nil, obj.Name
	}
	return nil, t.Value
}

// appendOperator appends op as a user sees it: "NLJOIN(2)".
func appendOperator(dst []byte, op *qep.Operator) []byte {
	dst = append(append(dst, op.DisplayName()...), '(')
	return append(strconv.AppendInt(dst, int64(op.ID), 10), ')')
}

// Transform converts a plan into its RDF graph representation.
//
// A plan resource or a predicate is in many triples and a literal mostly in
// one, so the graph is built from IDs: every resource and predicate is
// interned once (builder) and only literal objects go through the dictionary
// per triple. Each term is interned where its first triple needs it — Go
// evaluates add's arguments left to right, subject before predicate before
// object — so the dictionary numbers the terms in the order of their first
// appearance in the triple sequence, which every Match order, served report
// and N-Triples line of a plan is a function of. transformReference, in the
// tests, is the term-at-a-time form of the same sequence.
func Transform(p *qep.Plan) *Result {
	ops := p.Ops()
	r := &Result{Plan: p}
	b := newBuilder(r, ops)
	g, add := b.g, b.g.AddIDs
	str := func(s string) rdf.ID { return g.Intern(rdf.String(s)) }

	// Plan-level resource.
	plan := g.Intern(r.PlanIRI())
	add(plan, b.pred(hasStatementID), str(p.ID))
	add(plan, b.pred(hasStatementText), str(p.Statement))
	add(plan, b.pred(hasTotalCost), g.InternFloat(p.TotalCost))
	add(plan, b.pred(hasNumOperators), g.Intern(rdf.Int(int64(p.NumOps()))))
	if p.Root != nil {
		add(plan, b.pred(hasRootPop), b.pop(p.Root))
	}

	// Base objects.
	for _, name := range sortedKeys(p.Objects) {
		obj := p.Objects[name]
		node := b.obj(obj)
		add(node, b.pred(isABaseObj), g.Intern(rdf.Bool(true)))
		add(node, b.pred(hasPopType), str(BaseObjType))
		add(node, b.pred(hasName), str(obj.Name))
		add(node, b.pred(hasObjectType), str(obj.Type))
		add(node, b.pred(hasEstimateCardinality), g.InternFloat(obj.Cardinality))
		for _, col := range obj.Columns {
			add(node, b.pred(hasColumn), str(col))
		}
	}

	// Operators with their properties.
	for _, op := range ops {
		node := b.pop(op)
		add(node, b.pred(hasPopType), str(op.Type))
		add(node, b.pred(hasPopClass), str(op.Class()))
		add(node, b.pred(hasOperatorNumber), g.Intern(rdf.Int(int64(op.ID))))
		add(node, b.pred(hasTotalCost), g.InternFloat(op.TotalCost))
		add(node, b.pred(hasIOCost), g.InternFloat(op.IOCost))
		add(node, b.pred(hasCPUCost), g.InternFloat(op.CPUCost))
		add(node, b.pred(hasFirstRowCost), g.InternFloat(op.FirstRow))
		add(node, b.pred(hasBufferpoolBuffers), g.InternFloat(op.Buffers))
		add(node, b.pred(hasEstimateCardinality), g.InternFloat(op.Cardinality))
		add(node, b.pred(hasTotalCostIncrease), g.InternFloat(op.SelfCost()))
		add(node, b.pred(hasJoinType), str(joinTypeName(op)))
		for _, pr := range op.Predicates {
			add(node, b.pred(hasPredicateText), str(pr))
		}
		for _, k := range sortedKeys(op.Args) {
			add(node, b.arg(k), str(op.Args[k]))
		}
	}

	// Streams: one reified node per (parent, input) edge, so each consumer
	// of a shared subexpression has a distinct connection.
	for _, op := range ops {
		parent := b.pop(op)
		for i, in := range op.Inputs {
			streamPred, childPred := hasInputStream, hasChildPop
			switch in.Kind {
			case qep.OuterStream:
				streamPred, childPred = hasOuterInputStream, hasOuterChildPop
			case qep.InnerStream:
				streamPred, childPred = hasInnerInputStream, hasInnerChildPop
			}
			typed := b.pred(streamPred)
			stream := g.Intern(rdf.IRI(PopNS + p.ID + "/stream/" + strconv.Itoa(op.ID) + "_" + strconv.Itoa(i)))
			add(parent, typed, stream)
			var child rdf.ID
			if in.Op != nil {
				child = b.pop(in.Op)
			} else {
				child = b.obj(in.Obj)
			}
			add(stream, typed, child)
			add(child, b.pred(hasOutputStream), stream)
			add(stream, b.pred(hasOutputStream), parent)
			if streamPred != hasInputStream {
				// Typed streams also carry the generic hasInputStream edge,
				// so a pattern's generic-input clause matches any stream
				// kind (the paper's "generic input used for any kind of
				// operator").
				add(parent, b.pred(hasInputStream), stream)
				add(stream, b.pred(hasInputStream), child)
			}
			add(stream, b.pred(hasStreamRows), g.InternFloat(in.Rows))
			for _, col := range in.Columns {
				add(stream, b.pred(hasStreamColumn), str(col))
			}

			// Derived direct edges (general hasChildPop plus the typed
			// variant) to keep descendant property paths single-predicate.
			// A child that feeds one parent twice derives the general edge
			// twice; the graph keeps the first.
			add(parent, b.pred(hasChildPop), child)
			if childPred != hasChildPop {
				add(parent, b.pred(childPred), child)
			}
		}
	}
	// The graph's index is built here, on the transforming goroutine, so
	// neither the engine's table lock nor the first query pays for it.
	r.Graph = g.Graph()
	return r
}

// pred numbers the fixed vocabulary for the builder's table of interned
// predicates; predIRI is the vocabulary by number.
type pred uint8

const (
	hasPopType pred = iota
	hasPopClass
	hasOperatorNumber
	hasTotalCost
	hasIOCost
	hasCPUCost
	hasFirstRowCost
	hasBufferpoolBuffers
	hasEstimateCardinality
	hasTotalCostIncrease
	hasJoinType
	hasPredicateText
	hasOuterInputStream
	hasInnerInputStream
	hasInputStream
	hasOutputStream
	hasStreamRows
	hasStreamColumn
	hasChildPop
	hasOuterChildPop
	hasInnerChildPop
	isABaseObj
	hasName
	hasObjectType
	hasColumn
	hasStatementID
	hasStatementText
	hasNumOperators
	hasRootPop
	numPreds
)

var predIRI = [numPreds]string{
	hasPopType:             PredPopType,
	hasPopClass:            PredPopClass,
	hasOperatorNumber:      PredOperatorNumber,
	hasTotalCost:           PredTotalCost,
	hasIOCost:              PredIOCost,
	hasCPUCost:             PredCPUCost,
	hasFirstRowCost:        PredFirstRowCost,
	hasBufferpoolBuffers:   PredBufferpool,
	hasEstimateCardinality: PredCardinality,
	hasTotalCostIncrease:   PredTotalCostIncrease,
	hasJoinType:            PredJoinType,
	hasPredicateText:       PredPredicateText,
	hasOuterInputStream:    PredOuterInputStream,
	hasInnerInputStream:    PredInnerInputStream,
	hasInputStream:         PredInputStream,
	hasOutputStream:        PredOutputStream,
	hasStreamRows:          PredStreamRows,
	hasStreamColumn:        PredStreamColumn,
	hasChildPop:            PredChildPop,
	hasOuterChildPop:       PredOuterChildPop,
	hasInnerChildPop:       PredInnerChildPop,
	isABaseObj:             PredIsBaseObj,
	hasName:                PredName,
	hasObjectType:          PredObjectType,
	hasColumn:              PredColumn,
	hasStatementID:         PredStatementID,
	hasStatementText:       PredStatementText,
	hasNumOperators:        PredNumOperators,
	hasRootPop:             PredRootPop,
}

// builder holds the ID of every term Transform uses more than once, interned
// on first use: the predicates of the vocabulary by number, the argument
// predicates by argument key, the plan's operator and base-object resources
// by the plan entity they stand for.
type builder struct {
	r     *Result
	g     *rdf.Builder
	preds [numPreds]rdf.ID
	args  map[string]rdf.ID
	pops  map[*qep.Operator]rdf.ID
	objs  map[*qep.BaseObject]rdf.ID
}

// newBuilder sizes the graph from the plan. The log is for exactly the triples
// Transform adds. The dictionary's numbers are at most the triples whose
// object is a number: seven costs and cardinalities and the number of every
// operator, an object's cardinality, a stream's rows, the plan's cost and
// operator count. Its terms are the ones that cannot coincide — plan,
// operators, objects, stream nodes, vocabulary — plus a fifth of the triples
// whose object is a string: strings repeat (column names, types, predicate
// texts), and the plans measured keep 0.19 to 0.30 of those occurrences
// distinct. Neither hint stays resident: the freeze cuts the dictionary's
// columns and its table to the real counts, and a hint short of them costs a
// doubling of the table while the graph is built (DESIGN.md §11).
func newBuilder(r *Result, ops []*qep.Operator) *builder {
	p := r.Plan
	// The triples whose object is a string, a number, a resource.
	strs, nums, links, streams := 2, 2, 1, 0
	for _, obj := range p.Objects {
		strs += 4 + len(obj.Columns)
		nums++
	}
	for _, op := range ops {
		strs += 3 + len(op.Predicates) + len(op.Args)
		nums += 8
		for _, in := range op.Inputs {
			edges := 5
			if in.Kind != qep.GeneralStream {
				edges = 8
			}
			streams++
			strs += len(in.Columns)
			nums++
			links += edges
		}
	}
	triples := strs + nums + links
	terms := 1 + len(ops) + len(p.Objects) + streams + int(numPreds) + strs/5
	return &builder{
		r:    r,
		g:    rdf.NewBuilderSize(terms, nums, triples),
		args: make(map[string]rdf.ID),
		pops: make(map[*qep.Operator]rdf.ID, len(ops)),
		objs: make(map[*qep.BaseObject]rdf.ID, len(p.Objects)),
	}
}

func (b *builder) pred(p pred) rdf.ID {
	if b.preds[p] == rdf.NoID {
		b.preds[p] = b.g.Intern(rdf.IRI(predIRI[p]))
	}
	return b.preds[p]
}

func (b *builder) arg(key string) rdf.ID {
	id, ok := b.args[key]
	if !ok {
		id = b.g.Intern(rdf.IRI(ArgNS + key))
		b.args[key] = id
	}
	return id
}

func (b *builder) pop(op *qep.Operator) rdf.ID {
	id, ok := b.pops[op]
	if !ok {
		id = b.g.Intern(b.r.PopIRI(op))
		b.pops[op] = id
	}
	return id
}

func (b *builder) obj(obj *qep.BaseObject) rdf.ID {
	id, ok := b.objs[obj]
	if !ok {
		id = b.g.Intern(b.r.ObjIRI(obj))
		b.objs[obj] = id
	}
	return id
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
