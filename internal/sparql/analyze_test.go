package sparql

import (
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
