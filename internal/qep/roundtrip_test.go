package qep_test

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"optimatch/internal/fixtures"
	"optimatch/internal/qep"
	"optimatch/internal/rdf"
	"optimatch/internal/transform"
	"optimatch/internal/workload"
)

// Algorithm 1 (transform.Transform) as a property: a plan's graph, read back
// without the plan the Result holds beside it, is the plan again. The graph
// carries everything dump prints except:
//   - a repeated entry of an operator's predicate texts, a stream's columns or
//     an object's columns: a graph holds a triple once, at its first Add;
//   - the join modifier of an operator that is not a join: hasJoinType says
//     "NONE" for every one of them.
//
// The N-Triples text (WriteNTriples, then ParseNTriples) is a set of lines in
// byte order, so it carries less again:
//   - the order of those lists: read back, each is in the order of its lines,
//     which is the order of the N-Triples tokens of its entries;
//   - text that is not UTF-8, which N-Triples cannot spell: WriteNTriples
//     writes U+FFFD for it in a literal and ParseNTriples refuses it in an
//     IRI. Such a plan skips the N-Triples leg.
//
// Every number comes back bit for bit (dump prints them in full).

// checkRoundTrip holds Algorithm 1 to the property above, on p directly and
// through N-Triples. It rewrites p's lists and join modifiers in place.
func checkRoundTrip(t *testing.T, p *qep.Plan) {
	t.Helper()
	asText := utf8.ValidString(qep.Text(p))
	g := transform.Transform(p).Graph
	var nt bytes.Buffer
	if err := rdf.WriteNTriples(&nt, g); err != nil {
		t.Fatal(err)
	}
	back, err := detransform(g)
	if err != nil {
		t.Fatalf("plan %q: de-transforming its graph: %v", p.ID, err)
	}
	carried(p, false)
	if got, want := dump(back), dump(p); got != want {
		t.Fatalf("plan %q: the graph reads back as\n%s\nwant:\n%s", p.ID, got, want)
	}
	if !asText {
		return
	}
	loaded, err := rdf.ParseNTriples(&nt)
	if err != nil {
		t.Fatalf("plan %q: ParseNTriples(WriteNTriples(g)): %v", p.ID, err)
	}
	if back, err = detransform(loaded); err != nil {
		t.Fatalf("plan %q: de-transforming its N-Triples: %v", p.ID, err)
	}
	carried(p, true)
	if got, want := dump(back), dump(p); got != want {
		t.Fatalf("plan %q: the N-Triples read back as\n%s\nwant:\n%s", p.ID, got, want)
	}
}

// carried reduces p, in place, to what its graph carries (see above); with
// asText, to what its N-Triples text carries.
func carried(p *qep.Plan, asText bool) {
	list := func(s []string) []string {
		var out []string
		for _, v := range s {
			if !slices.Contains(out, v) {
				out = append(out, v)
			}
		}
		if asText {
			slices.SortFunc(out, func(a, b string) int { return strings.Compare(rdf.String(a).String(), rdf.String(b).String()) })
		}
		return out
	}
	for _, op := range p.Ops() {
		if !op.IsJoin() {
			op.JoinMod = qep.InnerJoin
		}
		op.Predicates = list(op.Predicates)
		for i := range op.Inputs {
			op.Inputs[i].Columns = list(op.Inputs[i].Columns)
		}
	}
	for _, obj := range p.Objects {
		obj.Columns = list(obj.Columns)
	}
}

// joinMods inverts the hasJoinType spelling of transform.
var joinMods = map[string]qep.JoinModifier{
	"NONE": qep.InnerJoin, "INNER": qep.InnerJoin, "LEFT_OUTER": qep.LeftOuterJoin,
	"RIGHT_OUTER": qep.RightOuterJoin, "EARLY_OUT": qep.EarlyOutJoin,
}

// detransform reads a whole plan back from a graph alone, by the vocabulary
// of transform: the plan node is the subject of hasStatementID, an operator
// the subject of hasOperatorNumber, a base object the subject of isABaseObj,
// and an operator's inputs are the reified streams of its hasInputStream
// edges (every stream kind has one), in the order of the index their IRI
// ends in.
func detransform(g *rdf.Graph) (*qep.Plan, error) {
	iri := rdf.IRI
	first := func(s rdf.Term, pred string) (rdf.Term, error) {
		objs := g.Objects(s, iri(pred))
		if len(objs) != 1 {
			return rdf.Term{}, fmt.Errorf("%v has %d objects of %s, want one", s, len(objs), pred)
		}
		return objs[0], nil
	}
	var err error
	str := func(s rdf.Term, pred string) string {
		o, e := first(s, pred)
		if e != nil && err == nil {
			err = e
		}
		return o.Value
	}
	num := func(s rdf.Term, pred string) float64 {
		o, e := first(s, pred)
		f, ok := o.Float()
		if e == nil && !ok {
			e = fmt.Errorf("%v: %s is %v, not a number", s, pred, o)
		}
		if e != nil && err == nil {
			err = e
		}
		return f
	}
	values := func(s rdf.Term, pred string) []string {
		var out []string
		for _, o := range g.Objects(s, iri(pred)) {
			out = append(out, o.Value)
		}
		return out
	}

	plans := g.Subjects(iri(transform.PredStatementID), rdf.Term{})
	if len(plans) != 1 {
		return nil, fmt.Errorf("%d plan nodes", len(plans))
	}
	planNode := plans[0]
	p := qep.NewPlan(str(planNode, transform.PredStatementID))
	p.Statement = str(planNode, transform.PredStatementText)
	p.TotalCost = num(planNode, transform.PredTotalCost)

	objs := make(map[rdf.Term]*qep.BaseObject)
	for _, node := range g.Subjects(iri(transform.PredIsBaseObj), rdf.Term{}) {
		objs[node] = p.AddObject(&qep.BaseObject{
			Name:        str(node, transform.PredName),
			Type:        str(node, transform.PredObjectType),
			Cardinality: num(node, transform.PredCardinality),
			Columns:     values(node, transform.PredColumn),
		})
	}
	ops := make(map[rdf.Term]*qep.Operator)
	for _, node := range g.Subjects(iri(transform.PredOperatorNumber), rdf.Term{}) {
		id, e := strconv.Atoi(str(node, transform.PredOperatorNumber))
		if e != nil {
			return nil, e
		}
		mod, ok := joinMods[str(node, transform.PredJoinType)]
		if !ok {
			return nil, fmt.Errorf("%v: unknown join type", node)
		}
		op := &qep.Operator{
			ID: id, Type: str(node, transform.PredPopType), JoinMod: mod,
			TotalCost:   num(node, transform.PredTotalCost),
			IOCost:      num(node, transform.PredIOCost),
			CPUCost:     num(node, transform.PredCPUCost),
			FirstRow:    num(node, transform.PredFirstRowCost),
			Buffers:     num(node, transform.PredBufferpool),
			Cardinality: num(node, transform.PredCardinality),
			Args:        make(map[string]string),
			Predicates:  values(node, transform.PredPredicateText),
		}
		d := g.Dict()
		g.Match(d.Lookup(node), rdf.NoID, rdf.NoID, func(_, pred, o rdf.ID) bool {
			if key, ok := strings.CutPrefix(d.Term(pred).Value, transform.ArgNS); ok {
				op.Args[key] = d.Term(o).Value
			}
			return true
		})
		if e := p.AddOperator(op); e != nil {
			return nil, e
		}
		ops[node] = op
	}
	nodeOf := make(map[*qep.Operator]rdf.Term, len(ops))
	for node, op := range ops {
		nodeOf[op] = node
	}
	for _, op := range p.Ops() {
		node := nodeOf[op]
		streams := g.Objects(node, iri(transform.PredInputStream))
		index := func(stream rdf.Term) int {
			i, _ := strconv.Atoi(stream.Value[strings.LastIndexByte(stream.Value, '_')+1:])
			return i
		}
		slices.SortFunc(streams, func(a, b rdf.Term) int { return index(a) - index(b) })
		for _, stream := range streams {
			kind := qep.GeneralStream
			switch {
			case g.Has(node, iri(transform.PredOuterInputStream), stream):
				kind = qep.OuterStream
			case g.Has(node, iri(transform.PredInnerInputStream), stream):
				kind = qep.InnerStream
			}
			child, e := first(stream, transform.PredInputStream)
			if e != nil {
				return nil, e
			}
			if ops[child] == nil && objs[child] == nil {
				return nil, fmt.Errorf("stream %v: input %v is neither an operator nor an object", stream, child)
			}
			p.Link(op, kind, ops[child], objs[child], num(stream, transform.PredStreamRows), values(stream, transform.PredStreamColumn))
		}
	}
	root, e := first(planNode, transform.PredRootPop)
	if e != nil {
		return nil, e
	}
	if p.Root = ops[root]; p.Root == nil {
		return nil, fmt.Errorf("the root %v is not an operator", root)
	}
	return p, err
}

// TestAlgorithm1RoundTrip runs the property on the fixtures as they are built
// in code — DoubleFedJoin repeats a stream column, a predicate text and an
// object column, SharedTemp has one TEMP under two consumers — and on
// generated workloads with every injectable pattern. FuzzParse runs it on
// every plan it parses.
func TestAlgorithm1RoundTrip(t *testing.T) {
	plans := append(fixtures.All(), fixtures.SharedTemp(), fixtures.DoubleFedJoin())
	for seed := int64(1); seed <= 3; seed++ {
		w, err := workload.Generate(workload.Config{Seed: seed, NumPlans: 4, MinOps: 20, MaxOps: 120,
			InjectA: 1, InjectB: 1, InjectC: 1, InjectD: 1, InjectG: 1})
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, w.Plans...)
	}
	for _, p := range plans {
		checkRoundTrip(t, p)
	}
}
