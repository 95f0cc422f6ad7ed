package sparql

import (
	"slices"
	"testing"

	"optimatch/internal/rdf"
)

// analyze parses the query and returns its static analysis.
func analyze(t *testing.T, query string) *Analysis {
	t.Helper()
	q, err := Parse(query)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return q.Analysis()
}

func requiredSet(a *Analysis) map[rdf.Term]bool {
	m := make(map[rdf.Term]bool, len(a.Required))
	for _, t := range a.Required {
		m[t] = true
	}
	return m
}

func constSet(a *Analysis) map[rdf.Term]bool {
	m := make(map[rdf.Term]bool, len(a.Consts))
	for _, t := range a.Consts {
		m[t] = true
	}
	return m
}

const predIRI = "http://optimatch/pred/"

func TestAnalysisBGPConstants(t *testing.T) {
	a := analyze(t, predPrefix+`
SELECT ?pop WHERE {
  ?pop pred:hasPopType "TBSCAN" .
  ?pop pred:hasEstimateCardinality ?card .
}`)
	req := requiredSet(a)
	for _, want := range []rdf.Term{
		rdf.String("TBSCAN"),
		rdf.IRI(predIRI + "hasPopType"),
		rdf.IRI(predIRI + "hasEstimateCardinality"),
	} {
		if !req[want] {
			t.Errorf("required set misses %v", want)
		}
	}
	if len(a.Required) != 3 {
		t.Errorf("Required = %v, want 3 terms", a.Required)
	}
}

func TestAnalysisOptionalNotRequired(t *testing.T) {
	a := analyze(t, predPrefix+`
SELECT ?pop WHERE {
  ?pop pred:hasPopType ?t .
  OPTIONAL { ?pop pred:hasJoinType "LEFT_OUTER" }
}`)
	req := requiredSet(a)
	if req[rdf.String("LEFT_OUTER")] || req[rdf.IRI(predIRI+"hasJoinType")] {
		t.Errorf("OPTIONAL constants must not be required: %v", a.Required)
	}
	// ... but they are still registered for one-shot ID resolution.
	consts := constSet(a)
	if !consts[rdf.String("LEFT_OUTER")] || !consts[rdf.IRI(predIRI+"hasJoinType")] {
		t.Errorf("OPTIONAL constants missing from Consts: %v", a.Consts)
	}
}

func TestAnalysisUnionIntersection(t *testing.T) {
	a := analyze(t, predPrefix+`
SELECT ?pop WHERE {
  { ?pop pred:hasPopType "HSJOIN" . ?pop pred:hasJoinType "INNER" }
  UNION
  { ?pop pred:hasPopType "NLJOIN" . ?pop pred:hasJoinType "INNER" }
}`)
	req := requiredSet(a)
	if req[rdf.String("HSJOIN")] || req[rdf.String("NLJOIN")] {
		t.Errorf("branch-local constants must not be required: %v", a.Required)
	}
	// Common to both branches: the two predicates and "INNER".
	for _, want := range []rdf.Term{
		rdf.IRI(predIRI + "hasPopType"),
		rdf.IRI(predIRI + "hasJoinType"),
		rdf.String("INNER"),
	} {
		if !req[want] {
			t.Errorf("required set misses union-common term %v", want)
		}
	}
}

func TestAnalysisPathModifiers(t *testing.T) {
	a := analyze(t, predPrefix+`
SELECT ?a WHERE {
  ?a pred:hasChildPop+ ?b .
  ?a pred:hasOutputStream* ?c .
  ?a pred:hasInputStream? ?d .
}`)
	req := requiredSet(a)
	if !req[rdf.IRI(predIRI+"hasChildPop")] {
		t.Errorf("`+` path predicate must be required: %v", a.Required)
	}
	if req[rdf.IRI(predIRI+"hasOutputStream")] || req[rdf.IRI(predIRI+"hasInputStream")] {
		t.Errorf("`*`/`?` path predicates must not be required: %v", a.Required)
	}
	consts := constSet(a)
	if !consts[rdf.IRI(predIRI+"hasOutputStream")] || !consts[rdf.IRI(predIRI+"hasInputStream")] {
		t.Errorf("all path predicates must be in Consts: %v", a.Consts)
	}
}

func TestAnalysisAltPathIntersection(t *testing.T) {
	a := analyze(t, predPrefix+`
SELECT ?a WHERE {
  ?a (pred:hasOuterInputStream/pred:x)|(pred:hasInnerInputStream/pred:x) ?b .
}`)
	req := requiredSet(a)
	if req[rdf.IRI(predIRI+"hasOuterInputStream")] || req[rdf.IRI(predIRI+"hasInnerInputStream")] {
		t.Errorf("alternation-local predicates must not be required: %v", a.Required)
	}
	if !req[rdf.IRI(predIRI+"x")] {
		t.Errorf("predicate common to all alternatives must be required: %v", a.Required)
	}
}

func TestAnalysisFilterExists(t *testing.T) {
	a := analyze(t, predPrefix+`
SELECT ?pop WHERE {
  ?pop pred:hasPopType ?t .
  FILTER EXISTS { ?pop pred:hasJoinType "LEFT_OUTER" }
  FILTER NOT EXISTS { ?pop pred:hasPopType "TEMP" }
}`)
	req := requiredSet(a)
	if !req[rdf.String("LEFT_OUTER")] {
		t.Errorf("FILTER EXISTS constants must be required: %v", a.Required)
	}
	if req[rdf.String("TEMP")] {
		t.Errorf("FILTER NOT EXISTS constants must not be required: %v", a.Required)
	}
}

func TestRequiredInProbesVocabulary(t *testing.T) {
	g := evalTestGraph()
	have := analyze(t, predPrefix+`SELECT ?p WHERE { ?p pred:hasPopType "TBSCAN" }`)
	if !have.RequiredIn(g) {
		t.Error("RequiredIn = false for a query whose constants are all present")
	}
	miss := analyze(t, predPrefix+`SELECT ?p WHERE { ?p pred:hasPopType "ZZTOP" }`)
	if miss.RequiredIn(g) {
		t.Error("RequiredIn = true despite a literal absent from the vocabulary")
	}
	optional := analyze(t, predPrefix+`
SELECT ?p WHERE { ?p pred:hasPopType ?t . OPTIONAL { ?p pred:hasPopType "ZZTOP" } }`)
	if !optional.RequiredIn(g) {
		t.Error("RequiredIn must ignore constants that appear only under OPTIONAL")
	}
}

// The oracle of Analysis.Required and Analysis.Consts: the analysis the
// compiler's walk replaced, a walk of its own over insertion-ordered sets of
// terms. It visits a group's FILTER [NOT] EXISTS after its other elements, as
// the compiler does.

// termSet is an insertion-ordered set of terms.
type termSet struct {
	seen  map[rdf.Term]bool
	order []rdf.Term
}

func newTermSet() *termSet {
	return &termSet{seen: make(map[rdf.Term]bool)}
}

// add adds t to s; a nil set takes nothing.
func (s *termSet) add(t rdf.Term) {
	if s == nil || t.Zero() || s.seen[t] {
		return
	}
	s.seen[t] = true
	s.order = append(s.order, t)
}

func (s *termSet) addAll(o *termSet) {
	for _, t := range o.order {
		s.add(t)
	}
}

// intersect returns the terms of s that o holds too, in s's order; a nil s
// stands for every term.
func (s *termSet) intersect(o *termSet) *termSet {
	if s == nil {
		return o
	}
	kept := newTermSet()
	for _, t := range s.order {
		if o.seen[t] {
			kept.add(t)
		}
	}
	return kept
}

// groupRequired adds the terms a group pattern requires to req (nil: they
// are not required) while registering every constant it encounters
// (required or not) in consts.
//
// Soundness argument, per element kind: a triple pattern in the group must
// match for the group to produce solutions, and the evaluator yields zero
// rows for a pattern whose subject or object constant is absent from the
// dictionary, so those constants are required; a predicate is required only
// when every traversal of the path must cross it (see pathRequired).
// OPTIONAL groups never eliminate solutions, UNION eliminates only terms
// missing from every branch (so the intersection of branch requirements is
// required), FILTER EXISTS keeps a solution only when its group matches (so
// its group's requirements propagate), and FILTER NOT EXISTS, plain FILTER
// and BIND compare values without probing the graph and require nothing.
func groupRequired(g *GroupPattern, consts, req *termSet) {
	for _, el := range g.Elems {
		switch el := el.(type) {
		case TriplePattern:
			if !el.S.IsVar() {
				consts.add(el.S.Term)
				req.add(el.S.Term)
			}
			if !el.O.IsVar() {
				consts.add(el.O.Term)
				req.add(el.O.Term)
			}
			pathConsts(el.P, consts)
			pathRequired(el.P, req)
		case GroupElem:
			groupRequired(el.Group, consts, req)
		case OptionalElem:
			groupRequired(el.Group, consts, nil)
		case UnionElem:
			var common *termSet
			for _, b := range el.Branches {
				br := newTermSet()
				groupRequired(b, consts, br)
				common = common.intersect(br)
			}
			req.addAll(common)
		case FilterElem, BindElem, FilterExistsElem:
			// Value-space only, or visited below.
		}
	}
	for _, el := range g.Elems {
		if el, ok := el.(FilterExistsElem); ok {
			if el.Not {
				groupRequired(el.Group, consts, nil)
			} else {
				groupRequired(el.Group, consts, req)
			}
		}
	}
}

// pathRequired adds the predicate IRIs every traversal of the path must
// cross. A `*` or `?` modifier admits a zero-length traversal, so nothing
// under it is required; an alternation requires only predicates common to
// all alternatives; a sequence requires each of its parts' requirements.
func pathRequired(p Path, req *termSet) {
	switch p := p.(type) {
	case PredPath:
		req.add(rdf.IRI(p.IRI))
	case InvPath:
		pathRequired(p.Inner, req)
	case SeqPath:
		for _, part := range p.Parts {
			pathRequired(part, req)
		}
	case AltPath:
		var common *termSet
		for _, alt := range p.Alts {
			br := newTermSet()
			pathRequired(alt, br)
			common = common.intersect(br)
		}
		req.addAll(common)
	case ModPath:
		if p.Mod == ModOneOrMore {
			pathRequired(p.Inner, req)
		}
		// `*` and `?` match zero-length traversals: nothing required.
	}
}

// pathConsts registers every predicate IRI mentioned anywhere in the path.
func pathConsts(p Path, consts *termSet) {
	switch p := p.(type) {
	case PredPath:
		consts.add(rdf.IRI(p.IRI))
	case InvPath:
		pathConsts(p.Inner, consts)
	case SeqPath:
		for _, part := range p.Parts {
			pathConsts(part, consts)
		}
	case AltPath:
		for _, alt := range p.Alts {
			pathConsts(alt, consts)
		}
	case ModPath:
		pathConsts(p.Inner, consts)
	}
}

// oracleAnalysis is the oracle's Required and Consts of q: Consts in the
// order it registers them, Required in Consts' order.
func oracleAnalysis(q *Query) (required, consts []rdf.Term) {
	all, req := newTermSet(), newTermSet()
	groupRequired(q.Where, all, req)
	for _, t := range all.order {
		if req.seen[t] {
			required = append(required, t)
		}
	}
	return required, all.order
}

// TestAnalysisAgainstOracle holds Analysis.Required and Analysis.Consts to
// the oracle, in order, on every query TestScopeAgainstCopies checks — the
// ones the scope check refuses included: the compiler's walk collects the
// constants either way — and on the benchmark's raw SPARQL decks. The
// knowledge base's entries are TestAnalysisOracleKB's.
func TestAnalysisAgainstOracle(t *testing.T) {
	texts, _ := scopeTexts()
	for _, text := range append(texts, benchDeck...) {
		q, err := parseUnchecked(text)
		if err != nil {
			t.Fatalf("%s\n%v", text, err)
		}
		a := q.Analysis()
		if required, consts := oracleAnalysis(q); !slices.Equal(a.Required, required) || !slices.Equal(a.Consts, consts) {
			t.Fatalf("%s\nRequired %v, Consts %v\nthe oracle: %v, %v", text, a.Required, a.Consts, required, consts)
		}
	}
}
