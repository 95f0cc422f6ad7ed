package pattern

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"optimatch/internal/fixtures"
	"optimatch/internal/qep"
	"optimatch/internal/sparql"
	"optimatch/internal/transform"
)

func TestBuilderProducesFigure5Shape(t *testing.T) {
	p := A()
	if len(p.Pops) != 4 {
		t.Fatalf("pops = %d, want 4", len(p.Pops))
	}
	top := p.Pop(1)
	if top == nil || top.Type != "NLJOIN" {
		t.Fatalf("pop 1 = %+v", top)
	}
	var rels []string
	for _, prop := range top.Properties {
		if prop.IsRelationship() {
			rels = append(rels, prop.ID)
		}
	}
	if len(rels) != 2 || rels[0] != RelOuterInput || rels[1] != RelInnerInput {
		t.Errorf("relationships = %v", rels)
	}
	// Children carry the reverse hasOutputStream declaration as in Figure 5.
	found := false
	for _, prop := range p.Pop(2).Properties {
		if prop.ID == RelOutput {
			if target, err := prop.TargetPop(); err == nil && target == 1 {
				found = true
			}
		}
	}
	if !found {
		t.Error("child missing hasOutputStream back-reference")
	}
}

func TestPatternJSONRoundTrip(t *testing.T) {
	for _, p := range Canonical() {
		data, err := p.ToJSON()
		if err != nil {
			t.Fatalf("%s: ToJSON: %v", p.Name, err)
		}
		// Figure 5 compatibility: keys "pops", "ID", "type", "popProperties",
		// "planDetails" must appear.
		for _, key := range []string{`"pops"`, `"ID"`, `"type"`, `"popProperties"`, `"planDetails"`} {
			if !strings.Contains(string(data), key) {
				t.Errorf("%s: JSON missing key %s:\n%s", p.Name, key, data)
			}
		}
		p2, err := FromJSON(data)
		if err != nil {
			t.Fatalf("%s: FromJSON: %v", p.Name, err)
		}
		if len(p2.Pops) != len(p.Pops) || p2.Name != p.Name {
			t.Errorf("%s: round trip mismatch", p.Name)
		}
		// Both compile to the same SPARQL.
		c1, err := Compile(p)
		if err != nil {
			t.Fatalf("%s: compile original: %v", p.Name, err)
		}
		c2, err := Compile(p2)
		if err != nil {
			t.Fatalf("%s: compile round-tripped: %v", p.Name, err)
		}
		if c1.Query != c2.Query {
			t.Errorf("%s: queries differ after JSON round trip:\n%s\nvs\n%s", p.Name, c1.Query, c2.Query)
		}
	}
}

func TestFromJSONFigure5Literal(t *testing.T) {
	// A hand-written JSON object in the paper's Figure 5 style.
	raw := `{
  "pops": [
    {"ID":1,"type":"NLJOIN","popProperties":[
      {"id":"hasOuterInputStream","value":2,"sign":"Immediate Child"},
      {"id":"hasInnerInputStream","value":3,"sign":"Immediate Child"}]},
    {"ID":2,"type":"ANY","popProperties":[{"id":"hasOutputStream","value":1}]},
    {"ID":3,"type":"TBSCAN","popProperties":[
      {"id":"hasEstimateCardinality","value":"100","sign":">"},
      {"id":"hasInputStream","value":4,"sign":"Immediate Child"},
      {"id":"hasOutputStream","value":1}]},
    {"ID":4,"type":"BASE OB","popProperties":[{"id":"hasOutputStream","value":3}]}
  ],
  "planDetails": {}
}`
	p, err := FromJSON([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	// Matches Figure 1.
	res := execOn(t, c, "fig1")
	if res.Len() != 1 {
		t.Errorf("matches = %d, want 1", res.Len())
	}
}

func execOn(t *testing.T, c *Compiled, planName string) *sparql.Results {
	t.Helper()
	var r *transform.Result
	switch planName {
	case "fig1":
		r = transform.Transform(fixtures.Figure1())
	case "fig7":
		r = transform.Transform(fixtures.Figure7())
	case "fig8":
		r = transform.Transform(fixtures.Figure8())
	case "sort":
		r = transform.Transform(fixtures.SortSpill())
	case "clean":
		r = transform.Transform(fixtures.Clean())
	default:
		t.Fatalf("unknown plan %q", planName)
	}
	q, err := sparql.Parse(c.Query)
	if err != nil {
		t.Fatalf("generated query does not parse: %v\n%s", err, c.Query)
	}
	res, err := q.Exec(r.Graph)
	if err != nil {
		t.Fatalf("exec: %v", err)
	}
	return res
}

func TestCompilePatternAQueryShape(t *testing.T) {
	c, err := Compile(A())
	if err != nil {
		t.Fatal(err)
	}
	q := c.Query
	// Figure 6 fidelity: prefixes, aliased result handlers, reified blank
	// node handlers, internal handler filters, ORDER BY.
	for _, want := range []string{
		"PREFIX preduri:",
		"?pop1 AS ?TOP",
		"?pop4 AS ?BASE4",
		`?pop1 preduri:hasPopType "NLJOIN"`,
		"?BNodeOfPop2_to_Pop1",
		"?BNodeOfPop3_to_Pop1",
		"preduri:hasOutputStream",
		"?internalHandler",
		"FILTER(?internalHandler",
		"preduri:isABaseObj",
		"ORDER BY ?pop1",
	} {
		if !strings.Contains(q, want) {
			t.Errorf("query missing %q:\n%s", want, q)
		}
	}
	if len(c.Handlers) != 4 {
		t.Errorf("handlers = %+v", c.Handlers)
	}
	if col := c.Columns.Index("top"); col != 0 || c.Handlers[col].PopID != 1 {
		t.Errorf("alias top is column %d, want 0, pop 1's", col)
	}
	if col := c.Columns.Index("nope"); col != -1 {
		t.Errorf("alias nope is column %d, want none", col)
	}
}

func TestPatternAMatchesFigure1Only(t *testing.T) {
	c, err := Compile(A())
	if err != nil {
		t.Fatal(err)
	}
	if res := execOn(t, c, "fig1"); res.Len() != 1 {
		t.Errorf("fig1 matches = %d, want 1", res.Len())
	}
	for _, plan := range []string{"fig8", "sort", "clean"} {
		if res := execOn(t, c, plan); res.Len() != 0 {
			t.Errorf("%s matches = %d, want 0", plan, res.Len())
		}
	}
}

func TestPatternBMatchesFigure7ViaDescendants(t *testing.T) {
	c, err := Compile(B())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c.Query, "preduri:hasOuterChildPop/preduri:hasChildPop*") {
		t.Errorf("descendant property path missing:\n%s", c.Query)
	}
	res := execOn(t, c, "fig7")
	if res.Len() == 0 {
		t.Fatalf("fig7 matches = 0, want >= 1\n%s", c.Query)
	}
	// The top join binding must include NLJOIN(5); the LOJ handlers the two
	// left-outer joins.
	foundTop := false
	for i := 0; i < res.Len(); i++ {
		if strings.HasSuffix(res.Get(i, "TOP").Value, "/pop/5") {
			foundTop = true
			left := res.Get(i, "LOJLEFT").Value
			right := res.Get(i, "LOJRIGHT").Value
			if !strings.HasSuffix(left, "/pop/6") {
				t.Errorf("LOJLEFT = %s", left)
			}
			if !strings.HasSuffix(right, "/pop/15") {
				t.Errorf("LOJRIGHT = %s", right)
			}
		}
	}
	if !foundTop {
		t.Errorf("NLJOIN(5) not among top bindings: %v", res.Rows)
	}
	for _, plan := range []string{"fig1", "fig8", "sort", "clean"} {
		if res := execOn(t, c, plan); res.Len() != 0 {
			t.Errorf("%s matches = %d, want 0", plan, res.Len())
		}
	}
}

func TestPatternCMatchesFigure8(t *testing.T) {
	c, err := Compile(C())
	if err != nil {
		t.Fatal(err)
	}
	if res := execOn(t, c, "fig8"); res.Len() != 1 {
		t.Errorf("fig8 matches = %d, want 1", res.Len())
	}
	// Figure 7 also contains an IXSCAN with 1.311e-8 cardinality over
	// TRAN_BASE (2.77e8 rows) — the paper notes the same subplan shape.
	if res := execOn(t, c, "fig7"); res.Len() != 1 {
		t.Errorf("fig7 matches = %d, want 1", res.Len())
	}
	for _, plan := range []string{"fig1", "sort", "clean"} {
		if res := execOn(t, c, plan); res.Len() != 0 {
			t.Errorf("%s matches = %d, want 0", plan, res.Len())
		}
	}
}

func TestPatternDMatchesSortSpill(t *testing.T) {
	c, err := Compile(D())
	if err != nil {
		t.Fatal(err)
	}
	// Cross-operator comparison compiles to a FILTER over two internal
	// handlers.
	if !strings.Contains(c.Query, "FILTER(?internalHandler") || !strings.Contains(c.Query, "?internalHandler2)") {
		t.Errorf("cross-ref filter missing:\n%s", c.Query)
	}
	if res := execOn(t, c, "sort"); res.Len() != 1 {
		t.Errorf("sort matches = %d, want 1", res.Len())
	}
	for _, plan := range []string{"fig1", "fig8", "clean"} {
		if res := execOn(t, c, plan); res.Len() != 0 {
			t.Errorf("%s matches = %d, want 0", plan, res.Len())
		}
	}
}

func TestCompilePlanDetails(t *testing.T) {
	b := NewBuilder("expensive", "whole plan is expensive")
	b.Pop("SORT")
	b.PlanDetail("hasTotalCost", "> 5000")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c.Query, "?plan preduri:hasTotalCost") {
		t.Errorf("plan details missing:\n%s", c.Query)
	}
	// SortSpill has total cost 9200 -> matches; Clean (310) does not.
	if res := execOn(t, c, "sort"); res.Len() != 1 {
		t.Errorf("sort matches = %d, want 1", res.Len())
	}
	if res := execOn(t, c, "clean"); res.Len() != 0 {
		t.Errorf("clean matches = %d, want 0", res.Len())
	}
}

func TestCompileAnchorsLonelyAnyPop(t *testing.T) {
	b := NewBuilder("lonely", "a single unconstrained pop")
	b.Pop(TypeAny)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c.Query, "?pop1 preduri:hasPopType ?internalHandler") {
		t.Errorf("lonely ANY pop not anchored:\n%s", c.Query)
	}
	// It must match every operator and base object of the clean plan (4 ops
	// + RETURN has 4 operators... count = operators + base objects).
	res := execOn(t, c, "clean")
	if res.Len() != 6 { // 4 operators + 2 base objects carry hasPopType
		t.Errorf("matches = %d, want 6", res.Len())
	}
}

// TestCompileAnchorsStreamLinkedAnyPops: an ANY pop that immediate
// relationships connect to unconstrained pops only is anchored, or the
// reified blocks match chains shifted onto the stream nodes; one connected to
// a typed pop needs no anchor. Two relationships between one pair of pops get
// two blank-node handlers, so a join fed twice by one child matches outer and
// inner both.
func TestCompileAnchorsStreamLinkedAnyPops(t *testing.T) {
	for _, tc := range []struct {
		name       string
		build      func(b *Builder)
		want, omit []string
	}{
		{"ANY child ANY", func(b *Builder) { b.Pop(TypeAny).Child(b.Pop(TypeAny)) },
			[]string{"?pop1 preduri:hasPopType ?internalHandler1 .", "?pop2 preduri:hasPopType ?internalHandler2 ."}, nil},
		{"ANY child ANY child TBSCAN", func(b *Builder) {
			m := b.Pop(TypeAny)
			b.Pop(TypeAny).Child(m)
			m.Child(b.Pop("TBSCAN"))
		}, []string{"?pop2 preduri:hasPopType ?internalHandler1 ."}, []string{"?pop1 preduri:hasPopType"}},
		{"JOIN child ANY", func(b *Builder) { b.Pop(TypeJoin).Child(b.Pop(TypeAny)) },
			nil, []string{"preduri:hasPopType"}},
		{"ANY outer and inner ANY", func(b *Builder) {
			j, x := b.Pop(TypeAny), b.Pop(TypeAny)
			j.OuterChild(x).InnerChild(x)
		}, []string{"?pop1 preduri:hasOuterInputStream ?BNodeOfPop2_to_Pop1 .", "?pop1 preduri:hasInnerInputStream ?BNodeOfPop2_to_Pop1_2 .",
			"?pop1 preduri:hasPopType", "?pop2 preduri:hasPopType"}, nil},
	} {
		b := NewBuilder("linked", "")
		tc.build(b)
		c, err := Compile(b.MustBuild())
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range tc.want {
			if !strings.Contains(c.Query, w) {
				t.Errorf("%s: query lacks %q:\n%s", tc.name, w, c.Query)
			}
		}
		for _, o := range tc.omit {
			if strings.Contains(c.Query, o) {
				t.Errorf("%s: query holds %q:\n%s", tc.name, o, c.Query)
			}
		}
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		p    Pattern
	}{
		{"empty", Pattern{Name: "x"}},
		{"dupID", Pattern{Pops: []Pop{{ID: 1, Type: "SORT"}, {ID: 1, Type: "SORT"}}}},
		{"zeroID", Pattern{Pops: []Pop{{ID: 0, Type: "SORT"}}}},
		{"emptyType", Pattern{Pops: []Pop{{ID: 1, Type: " "}}}},
		{"badRelTarget", Pattern{Pops: []Pop{{ID: 1, Type: "SORT", Properties: []Property{
			{ID: RelInput, Value: 9, Sign: SignImmediateChild}}}}}},
		{"badSign", Pattern{Pops: []Pop{{ID: 1, Type: "SORT", Properties: []Property{
			{ID: "hasIOCost", Value: 5, Sign: "~"}}}}}},
		{"noValue", Pattern{Pops: []Pop{{ID: 1, Type: "SORT", Properties: []Property{
			{ID: "hasIOCost", Sign: ">"}}}}}},
		{"badRef", Pattern{Pops: []Pop{{ID: 1, Type: "SORT", Properties: []Property{
			{ID: "hasIOCost", Sign: ">", ValueOf: &PropRef{Pop: 7, ID: "hasIOCost"}}}}}}},
		{"relValueNotID", Pattern{Pops: []Pop{{ID: 1, Type: "SORT", Properties: []Property{
			{ID: RelInput, Value: "x", Sign: SignImmediateChild}}}}}},
		{"dupAlias", Pattern{Pops: []Pop{{ID: 1, Type: "SORT", Alias: "X"}, {ID: 2, Type: "SORT", Alias: "X"}}}},
		{"dupAliasCase", Pattern{Pops: []Pop{{ID: 1, Type: "SORT", Alias: "top"}, {ID: 2, Type: "SORT", Alias: "TOP"}}}},
		{"dupAliasTop", Pattern{Pops: []Pop{{ID: 1, Type: "SORT"}, {ID: 2, Type: "TBSCAN", Alias: "TOP"}}}},
		{"dupAliasGenerated", Pattern{Pops: []Pop{{ID: 1, Type: "SORT"}, {ID: 2, Type: "ANY"}, {ID: 3, Type: "SORT", Alias: "any2"}}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.p.Validate(); err == nil {
				t.Error("expected validation error")
			}
			if _, err := Compile(&c.p); err == nil {
				t.Error("Compile must reject invalid patterns")
			}
		})
	}
}

// TestValidateDuplicateAliasNamesBothPops: a handler alias is a column name
// looked up case-insensitively, so two pops may not share one in any spelling —
// explicit, generated ("TOP" for the lowest pop, type+ID otherwise) or mixed.
// The refusal names both pops.
func TestValidateDuplicateAliasNamesBothPops(t *testing.T) {
	p := Pattern{Name: "twice", Pops: []Pop{{ID: 3, Type: "NLJOIN"}, {ID: 5, Type: "TBSCAN", Alias: "Top"}}}
	_, err := FromJSON(mustJSON(t, &p))
	if err == nil || !strings.Contains(err.Error(), "pops 3 and 5") || !strings.Contains(err.Error(), `"Top"`) {
		t.Errorf("err = %v, want one naming pops 3 and 5 and the alias", err)
	}
	p.Pops[1].Alias = "SCAN5"
	if _, err := FromJSON(mustJSON(t, &p)); err != nil {
		t.Errorf("distinct aliases refused: %v", err)
	}
}

func mustJSON(t *testing.T, p *Pattern) []byte {
	t.Helper()
	data, err := p.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestHandlerAliasDefaults(t *testing.T) {
	p := Pattern{Pops: []Pop{
		{ID: 1, Type: "NLJOIN"},
		{ID: 2, Type: TypeAny},
		{ID: 4, Type: TypeBaseObj},
		{ID: 5, Type: "TBSCAN", Alias: "MYSCAN"},
	}}
	if got := p.HandlerAlias(p.Pops[0]); got != "TOP" {
		t.Errorf("alias 1 = %q", got)
	}
	if got := p.HandlerAlias(p.Pops[1]); got != "ANY2" {
		t.Errorf("alias 2 = %q", got)
	}
	if got := p.HandlerAlias(p.Pops[2]); got != "BASE4" {
		t.Errorf("alias 4 = %q", got)
	}
	if got := p.HandlerAlias(p.Pops[3]); got != "MYSCAN" {
		t.Errorf("alias 5 = %q", got)
	}
}

func TestTargetPopTypes(t *testing.T) {
	for _, v := range []interface{}{2, float64(2), json.Number("2")} {
		prop := Property{ID: RelInput, Value: v, Sign: SignImmediateChild}
		got, err := prop.TargetPop()
		if err != nil || got != 2 {
			t.Errorf("TargetPop(%T) = %d, %v", v, got, err)
		}
	}
}

func TestSplitConstraint(t *testing.T) {
	cases := []struct {
		in    string
		sign  string
		value string
		err   bool
	}{
		{"> 50000", ">", "50000", false},
		{">=1.5", ">=", "1.5", false},
		{"= FAST", "=", `"FAST"`, false},
		{"!= 3", "!=", "3", false},
		{"50000", "", "", true},
		{">", "", "", true},
	}
	for _, c := range cases {
		sign, value, err := splitConstraint(c.in)
		if c.err {
			if err == nil {
				t.Errorf("splitConstraint(%q): expected error", c.in)
			}
			continue
		}
		if err != nil || sign != c.sign || value != c.value {
			t.Errorf("splitConstraint(%q) = %q %q %v", c.in, sign, value, err)
		}
	}
}

func TestCompileDeterministic(t *testing.T) {
	for _, p := range Canonical() {
		c1, err := Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		c2, err := Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		if c1.Query != c2.Query {
			t.Errorf("%s: nondeterministic compile", p.Name)
		}
	}
}

func TestPatternEMatchesSharedTempPlan(t *testing.T) {
	c, err := Compile(E())
	if err != nil {
		t.Fatal(err)
	}
	// Plan-relative constraint appears as an arithmetic FILTER against the
	// ?plan handler.
	if !strings.Contains(c.Query, "?plan preduri:hasTotalCost") ||
		!strings.Contains(c.Query, "0.5 * ?internalHandler") {
		t.Errorf("plan-relative filter missing:\n%s", c.Query)
	}
	r := transform.Transform(fixtures.SharedTemp())
	q, err := sparql.Parse(c.Query)
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Exec(r.Graph)
	if err != nil {
		t.Fatal(err)
	}
	// TEMP(6) costs 600 of a 900 plan: one expensive subquery.
	if res.Len() != 1 {
		t.Fatalf("matches = %d, want 1\n%v", res.Len(), res.Rows)
	}
	if op := r.Operator(res.Get(0, "TOP")); op == nil || op.ID != 6 {
		t.Errorf("TOP = %v", res.Get(0, "TOP"))
	}
	// Figure 1's plan has no TEMP at all.
	for _, plan := range []string{"fig1", "clean"} {
		if res := execOn(t, c, plan); res.Len() != 0 {
			t.Errorf("%s matches = %d, want 0", plan, res.Len())
		}
	}
}

func TestPatternFSharedTempConsumers(t *testing.T) {
	c, err := Compile(F())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c.Query, "FILTER(?pop2 != ?pop3)") {
		t.Errorf("distinctness filter missing:\n%s", c.Query)
	}
	r := transform.Transform(fixtures.SharedTemp())
	q, err := sparql.Parse(c.Query)
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Exec(r.Graph)
	if err != nil {
		t.Fatal(err)
	}
	// The two consumers in either order: 2 solutions.
	if res.Len() != 2 {
		t.Fatalf("matches = %d, want 2\n%v", res.Len(), res.Rows)
	}
	consumers := map[string]bool{}
	for i := 0; i < res.Len(); i++ {
		consumers[r.Describe(res.Get(i, "CONSUMER2"))] = true
		consumers[r.Describe(res.Get(i, "CONSUMER3"))] = true
	}
	if !consumers["NLJOIN(3)"] || !consumers["HSJOIN(4)"] || len(consumers) != 2 {
		t.Errorf("consumers = %v", consumers)
	}
	// A single-consumer TEMP must NOT match (distinctness).
	if res := execOn(t, c, "fig7"); res.Len() != 0 {
		t.Errorf("fig7 (single-consumer TEMP) matches = %d, want 0", res.Len())
	}
}

func TestValidateExtensionErrors(t *testing.T) {
	// isDistinctFrom self-reference.
	p := Pattern{Pops: []Pop{{ID: 1, Type: "TEMP", Properties: []Property{
		{ID: RelDistinct, Value: 1}}}}}
	if err := p.Validate(); err == nil {
		t.Error("self-distinct accepted")
	}
	// isDistinctFrom unknown target.
	p = Pattern{Pops: []Pop{{ID: 1, Type: "TEMP", Properties: []Property{
		{ID: RelDistinct, Value: 5}}}}}
	if err := p.Validate(); err == nil {
		t.Error("unknown distinct target accepted")
	}
	// Empty plan reference.
	p = Pattern{Pops: []Pop{{ID: 1, Type: "TEMP", Properties: []Property{
		{ID: "hasTotalCost", Sign: ">", PlanOf: &PlanRef{ID: " "}}}}}}
	if err := p.Validate(); err == nil {
		t.Error("empty plan reference accepted")
	}
}

// TestValidateNamesTheField holds the patterns a knowledge base used to save
// and no scan could then run: each is refused by Validate, with a message
// that names the offending field rather than an offset into generated text.
func TestValidateNamesTheField(t *testing.T) {
	wants := []string{`property hasTotalCost: > "Inf"`, `property id "has TotalCost"`, `property id "hasTotalCost}"`}
	for i, body := range poisonBodies {
		_, err := FromJSON([]byte(body))
		if err == nil || !strings.Contains(err.Error(), wants[i]) || strings.Contains(err.Error(), "offset") {
			t.Errorf("%s:\n err = %v, want one naming %s", body, err, wants[i])
		}
	}
	for name, p := range map[string]Pattern{
		"alias":                  {Pops: []Pop{{ID: 1, Type: "SORT", Alias: "A?B"}}},
		"valueOf id":             {Pops: []Pop{{ID: 1, Type: "SORT", Properties: []Property{{ID: "hasIOCost", Sign: ">", ValueOf: &PropRef{Pop: 1, ID: "a b"}}}}}},
		"planOf id":              {Pops: []Pop{{ID: 1, Type: "SORT", Properties: []Property{{ID: "hasIOCost", Sign: ">", PlanOf: &PlanRef{ID: "x."}}}}}},
		"planDetails key":        {Pops: []Pop{{ID: 1, Type: "SORT"}}, PlanDetails: map[string]string{"has}": "> 1"}},
		"planDetails constraint": {Pops: []Pop{{ID: 1, Type: "SORT"}}, PlanDetails: map[string]string{"hasTotalCost": "fast"}},
		"relationship id":        {Pops: []Pop{{ID: 1, Type: "SORT", Properties: []Property{{ID: RelOutput, Sign: SignDescendant, Value: 1}}}}},
		"value type":             {Pops: []Pop{{ID: 1, Type: "SORT", Properties: []Property{{ID: "hasIOCost", Sign: "<", Value: []interface{}{1.0}}}}}},
	} {
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestUnspellableNumbersAreStrings: what strconv reads as a number and the
// SPARQL lexer does not is matched as the string it is — a table may be
// called NAN — and numbers in any spelling render in the one canonical form.
func TestUnspellableNumbersAreStrings(t *testing.T) {
	for value, want := range map[string]string{
		"NAN": `?pop1 preduri:hasName "NAN" .`, "Infinity": `?pop1 preduri:hasName "Infinity" .`,
		"0x1p-2": `?pop1 preduri:hasName "0x1p-2" .`, ".5": `FILTER(?internalHandler1 = 0.5)`, "5.": `FILTER(?internalHandler1 = 5)`,
	} {
		c, err := Compile(&Pattern{Name: "v", Pops: []Pop{{ID: 1, Type: "ANY", Properties: []Property{{ID: "hasName", Sign: "=", Value: value}}}}})
		if err != nil {
			t.Errorf("%s: %v", value, err)
		} else if !strings.Contains(c.Query, want) {
			t.Errorf("%s: query lacks %s:\n%s", value, want, c.Query)
		}
	}
	c, err := Compile(&Pattern{Name: "d", Pops: []Pop{{ID: 1, Type: "SORT"}}, PlanDetails: map[string]string{"hasTotalCost": ">= .5"}})
	if err != nil || !strings.Contains(c.Query, ">= 0.5)") {
		t.Errorf("planDetails constraint: %v, %v", c, err)
	}
}

func TestExtendedPatternsJSONRoundTrip(t *testing.T) {
	for _, p := range []*Pattern{E(), F(), G()} {
		data, err := p.ToJSON()
		if err != nil {
			t.Fatal(err)
		}
		p2, err := FromJSON(data)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		c1, _ := Compile(p)
		c2, err := Compile(p2)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if c1.Query != c2.Query {
			t.Errorf("%s: queries differ after round trip", p.Name)
		}
	}
	if len(Extended()) != 7 {
		t.Errorf("Extended = %d patterns", len(Extended()))
	}
}

func TestPatternGCartesianJoin(t *testing.T) {
	c, err := Compile(G())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c.Query, "FILTER NOT EXISTS { ?pop1 preduri:hasPredicateText") {
		t.Errorf("NOT EXISTS missing:\n%s", c.Query)
	}
	// Build a plan with a predicate-less NLJOIN over two multi-row scans.
	p := qepPlanCartesian(t)
	r := transform.Transform(p)
	q, err := sparql.Parse(c.Query)
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Exec(r.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("matches = %d, want 1\n%v", res.Len(), res.Rows)
	}
	if op := r.Operator(res.Get(0, "TOP")); op == nil || op.ID != 2 {
		t.Errorf("TOP = %v", res.Get(0, "TOP"))
	}
	// Plans whose joins all carry predicates do not match.
	for _, plan := range []string{"fig1", "clean"} {
		if res := execOn(t, c, plan); res.Len() != 0 {
			t.Errorf("%s matches = %d, want 0", plan, res.Len())
		}
	}
}

func qepPlanCartesian(t *testing.T) *qep.Plan {
	t.Helper()
	p := qep.NewPlan("QCART")
	p.Statement = "SELECT * FROM A, B"
	p.TotalCost = 5000
	a := p.AddObject(&qep.BaseObject{Name: "A", Cardinality: 100})
	bb := p.AddObject(&qep.BaseObject{Name: "B", Cardinality: 200})
	ret := &qep.Operator{ID: 1, Type: "RETURN", TotalCost: 5000, IOCost: 50, Cardinality: 20000}
	nl := &qep.Operator{ID: 2, Type: "NLJOIN", TotalCost: 4990, IOCost: 49, Cardinality: 20000} // no predicates
	s1 := &qep.Operator{ID: 3, Type: "TBSCAN", TotalCost: 40, IOCost: 4, Cardinality: 100}
	s2 := &qep.Operator{ID: 4, Type: "TBSCAN", TotalCost: 60, IOCost: 6, Cardinality: 200}
	for _, op := range []*qep.Operator{ret, nl, s1, s2} {
		if err := p.AddOperator(op); err != nil {
			t.Fatal(err)
		}
	}
	p.Link(ret, qep.GeneralStream, nl, nil, 20000, nil)
	p.Link(nl, qep.OuterStream, s1, nil, 100, nil)
	p.Link(nl, qep.InnerStream, s2, nil, 200, nil)
	p.Link(s1, qep.GeneralStream, nil, a, 100, nil)
	p.Link(s2, qep.GeneralStream, nil, bb, 200, nil)
	if err := p.Resolve(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestValidateAbsentErrors(t *testing.T) {
	p := Pattern{Pops: []Pop{{ID: 1, Type: "NLJOIN", Properties: []Property{
		{ID: "hasPredicateText", Sign: SignAbsent, Value: 5}}}}}
	if err := p.Validate(); err == nil {
		t.Error("ABSENT with a value accepted")
	}
}

// TestRandomPatternsCompileToValidSPARQL generates random (valid) patterns
// and checks every one compiles to SPARQL the engine can parse and execute.
func TestRandomPatternsCompileToValidSPARQL(t *testing.T) {
	types := []string{"NLJOIN", "HSJOIN", "TBSCAN", "SORT", "GRPBY", TypeAny, TypeJoin, TypeScan}
	props := []string{"hasEstimateCardinality", "hasTotalCost", "hasIOCost", "hasTotalCostIncrease"}
	signs := []string{">", "<", ">=", "<=", "=", "!="}
	r := transform.Transform(fixtures.Figure7())

	rng := rand.New(rand.NewSource(12345))
	for trial := 0; trial < 60; trial++ {
		b := NewBuilder(fmt.Sprintf("rand-%d", trial), "random pattern")
		n := 1 + rng.Intn(4)
		pops := make([]*PopBuilder, n)
		for i := range pops {
			pops[i] = b.Pop(types[rng.Intn(len(types))])
		}
		// Random tree of relationships.
		for i := 1; i < n; i++ {
			parent := pops[rng.Intn(i)]
			switch rng.Intn(4) {
			case 0:
				parent.OuterChild(pops[i])
			case 1:
				parent.InnerChild(pops[i])
			case 2:
				parent.Child(pops[i])
			default:
				parent.Descendant(pops[i])
			}
		}
		// Random constraints.
		for i := 0; i < rng.Intn(3); i++ {
			pop := pops[rng.Intn(n)]
			switch rng.Intn(4) {
			case 0:
				pop.Where(props[rng.Intn(len(props))], signs[rng.Intn(len(signs))], rng.Float64()*1000)
			case 1:
				pop.WhereAbsent("hasPredicateText")
			case 2:
				pop.WherePlan(props[rng.Intn(len(props))], ">", rng.Float64(), "hasTotalCost")
			default:
				other := pops[rng.Intn(n)]
				if other != pop {
					pop.WhereRef(props[rng.Intn(len(props))], "<", other, props[rng.Intn(len(props))])
				}
			}
		}
		p, err := b.Build()
		if err != nil {
			t.Fatalf("trial %d: build: %v", trial, err)
		}
		c, err := Compile(p)
		if err != nil {
			t.Fatalf("trial %d: compile: %v", trial, err)
		}
		q, err := sparql.Parse(c.Query)
		if err != nil {
			t.Fatalf("trial %d: generated SPARQL does not parse: %v\n%s", trial, err, c.Query)
		}
		if _, err := q.Exec(r.Graph); err != nil {
			t.Fatalf("trial %d: generated SPARQL does not execute: %v\n%s", trial, err, c.Query)
		}
	}
}
