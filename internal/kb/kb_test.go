package kb

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"optimatch/internal/fixtures"
	"optimatch/internal/pattern"
	"optimatch/internal/qep"
	"optimatch/internal/rdf"
	"optimatch/internal/sparql"
	"optimatch/internal/transform"
)

// matchEntry runs an entry's query against one plan and returns its rows as
// occurrences, the way the core engine does (Algorithm 5 inline for tests).
func matchEntry(t *testing.T, e *Entry, plan *qep.Plan) []transform.Match {
	t.Helper()
	r := transform.Transform(plan)
	q, err := sparql.Parse(e.SPARQL)
	if err != nil {
		t.Fatalf("entry %s query: %v", e.Name, err)
	}
	res, err := q.Exec(r.Graph)
	if err != nil {
		t.Fatalf("entry %s exec: %v", e.Name, err)
	}
	return transform.AppendMatches(nil, r, e.Compiled().Columns, res.Rows)
}

// expandTemplate validates a template against the occurrence's columns and
// renders it there.
func expandTemplate(tmpl string, m transform.Match) (string, error) {
	nodes, err := validateTemplate(tmpl, m.Cols)
	if err != nil {
		return "", err
	}
	return expand(nodes, m), nil
}

func TestCanonicalKB(t *testing.T) {
	k := MustCanonical()
	if k.Len() != 4 {
		t.Fatalf("entries = %d, want 4", k.Len())
	}
	for _, e := range k.Entries() {
		if e.SPARQL == "" || e.Compiled() == nil {
			t.Errorf("entry %s not compiled", e.Name)
		}
		if len(e.Profile) != NumFeatures {
			t.Errorf("entry %s profile = %v", e.Name, e.Profile)
		}
	}
	if k.Entry("nljoin-inner-tbscan") == nil || k.Entry("ghost") != nil {
		t.Error("Entry lookup wrong")
	}
}

func TestPatternARecommendationContextAdaptation(t *testing.T) {
	k := MustCanonical()
	e := k.Entry("nljoin-inner-tbscan")
	occs := matchEntry(t, e, fixtures.Figure1())
	if len(occs) != 1 {
		t.Fatalf("occurrences = %d, want 1", len(occs))
	}
	ranked := e.Recommend(occs)
	if len(ranked) != 2 {
		t.Fatalf("ranked = %d, want 2", len(ranked))
	}
	// The index recommendation must name the concrete table and columns of
	// THIS plan even though the template was written without them.
	var indexRec *Ranked
	for i := range ranked {
		if ranked[i].Recommendation.Category == "INDEX" {
			indexRec = &ranked[i]
		}
	}
	if indexRec == nil {
		t.Fatal("index recommendation missing")
	}
	for _, want := range []string{"CUST_DIM", "CUST_NAME", "CUST_ID", "NLJOIN(2)", "19.12"} {
		if !strings.Contains(indexRec.Text, want) {
			t.Errorf("adapted text missing %q:\n%s", want, indexRec.Text)
		}
	}
	if strings.Contains(indexRec.Text, "@") {
		t.Errorf("unexpanded tag in: %s", indexRec.Text)
	}
	for _, r := range ranked {
		if r.Confidence <= 0 || r.Confidence > 1 {
			t.Errorf("confidence out of range: %v", r.Confidence)
		}
	}
	// Ranked order is by confidence descending.
	for i := 1; i < len(ranked); i++ {
		if ranked[i-1].Confidence < ranked[i].Confidence {
			t.Error("ranking not descending")
		}
	}
}

func TestPatternBRecommendation(t *testing.T) {
	k := MustCanonical()
	e := k.Entry("loj-both-sides")
	occs := matchEntry(t, e, fixtures.Figure7())
	if len(occs) == 0 {
		t.Fatal("no occurrences in Figure 7")
	}
	ranked := e.Recommend(occs)
	found := false
	for _, r := range ranked {
		if strings.Contains(r.Text, ">HSJOIN(6)") && strings.Contains(r.Text, ">NLJOIN(15)") {
			found = true
		}
	}
	if !found {
		t.Errorf("no recommendation names both LOJ operators: %+v", ranked)
	}
}

func TestPatternDOccurrenceLimit(t *testing.T) {
	k := MustCanonical()
	e := k.Entry("sort-spill")
	// Build a plan with two spilling sorts.
	p := qep.NewPlan("Q2SORT")
	p.Statement = "SELECT 1"
	p.TotalCost = 100
	obj := p.AddObject(&qep.BaseObject{Name: "T", Cardinality: 1000})
	ret := &qep.Operator{ID: 1, Type: "RETURN", TotalCost: 100, IOCost: 50, Cardinality: 10}
	s1 := &qep.Operator{ID: 2, Type: "SORT", TotalCost: 90, IOCost: 45, Cardinality: 10}
	s2 := &qep.Operator{ID: 3, Type: "SORT", TotalCost: 70, IOCost: 30, Cardinality: 10}
	tb := &qep.Operator{ID: 4, Type: "TBSCAN", TotalCost: 40, IOCost: 10, Cardinality: 1000}
	for _, op := range []*qep.Operator{ret, s1, s2, tb} {
		if err := p.AddOperator(op); err != nil {
			t.Fatal(err)
		}
	}
	p.Link(ret, qep.GeneralStream, s1, nil, 10, nil)
	p.Link(s1, qep.GeneralStream, s2, nil, 10, nil)
	p.Link(s2, qep.GeneralStream, tb, nil, 1000, nil)
	p.Link(tb, qep.GeneralStream, nil, obj, 1000, nil)
	if err := p.Resolve(); err != nil {
		t.Fatal(err)
	}

	occs := matchEntry(t, e, p)
	if len(occs) != 2 {
		t.Fatalf("occurrences = %d, want 2", len(occs))
	}
	ranked := e.Recommend(occs)
	// MaxOccurrences: 1 limits the CONFIG recommendation to one line.
	if len(ranked) != 1 {
		t.Errorf("ranked = %d, want 1 (occurrence limit)", len(ranked))
	}
}

func TestApplyDeterministic(t *testing.T) {
	k := MustCanonical()
	e := k.Entry("nljoin-inner-tbscan")
	occs1 := matchEntry(t, e, fixtures.Figure1())
	occs2 := matchEntry(t, e, fixtures.Figure1())
	r1, r2 := e.Recommend(occs1), e.Recommend(occs2)
	if len(r1) != len(r2) {
		t.Fatal("length mismatch")
	}
	for i := range r1 {
		if r1[i].Text != r2[i].Text || r1[i].Confidence != r2[i].Confidence {
			t.Error("nondeterministic Apply")
		}
	}
}

// SortOccurrences compares rows without spelling their fingerprints: the
// order must be the one the fingerprint sort gives — stable, so occurrences
// with equal fingerprints keep their arrival order —, and sorting allocates
// nothing. Alias order is not column order here, and one value is a proper
// prefix of others (".../pop/2", ".../pop/21"), so the ';' after a value
// decides (".../pop/21" first).
func TestSortOccurrencesOrder(t *testing.T) {
	cols := transform.NewColumns([]string{"TOP", "INNER"})
	var occs []transform.Match
	for i := 0; i < 200; i++ {
		// 40 distinct fingerprints, five arrivals of each, told apart by Plan.
		occs = append(occs, transform.Match{
			Result: &transform.Result{Plan: &qep.Plan{ID: fmt.Sprint(i)}},
			Cols:   cols,
			Cells: []rdf.Term{
				rdf.IRI(fmt.Sprintf("urn:pop/%d", []int{2, 21, 3, 20, 1, 11, 12, 0}[i*7919%8])),
				rdf.IRI(fmt.Sprintf("urn:pop/%d", i*104729%5)),
			},
		})
	}
	want := append([]transform.Match(nil), occs...)
	sort.SliceStable(want, func(i, j int) bool {
		return occurrenceKey(asOccurrence(want[i])) < occurrenceKey(asOccurrence(want[j]))
	})
	SortOccurrences(occs)
	for i := range occs {
		if occs[i].Result != want[i].Result {
			t.Fatalf("position %d holds arrival %s, the fingerprint sort puts %s there", i, occs[i].Plan().ID, want[i].Plan().ID)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { SortOccurrences(occs) }); allocs != 0 {
		t.Errorf("%.0f allocations to sort %d occurrences, want none", allocs, len(occs))
	}
}

func TestKBSaveLoadRoundTrip(t *testing.T) {
	k := MustCanonical()
	var buf bytes.Buffer
	if err := k.Save(&buf); err != nil {
		t.Fatal(err)
	}
	k2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if k2.Len() != k.Len() {
		t.Fatalf("loaded entries = %d, want %d", k2.Len(), k.Len())
	}
	for _, e := range k.Entries() {
		e2 := k2.Entry(e.Name)
		if e2 == nil {
			t.Fatalf("entry %s missing after load", e.Name)
		}
		if e2.SPARQL != e.SPARQL {
			t.Errorf("entry %s: SPARQL differs after reload", e.Name)
		}
		if len(e2.Recommendations) != len(e.Recommendations) {
			t.Errorf("entry %s: recommendations differ", e.Name)
		}
	}
	// A loaded KB behaves identically.
	e := k2.Entry("nljoin-inner-tbscan")
	occs := matchEntry(t, e, fixtures.Figure1())
	if len(occs) != 1 {
		t.Errorf("occurrences after reload = %d", len(occs))
	}
}

func TestKBAddValidation(t *testing.T) {
	k := New()
	// Unnamed pattern.
	b := pattern.NewBuilder("", "x")
	b.Pop("SORT")
	unnamed, _ := b.Build()
	if _, err := k.Add(unnamed, Recommendation{Title: "t", Template: "x"}); err == nil {
		t.Error("unnamed pattern accepted")
	}
	// No recommendations.
	if _, err := k.Add(pattern.A()); err == nil {
		t.Error("entry without recommendations accepted")
	}
	// Bad alias in template.
	if _, err := k.Add(pattern.A(), Recommendation{Title: "t", Template: "do @NOSUCH"}); err == nil {
		t.Error("unknown alias accepted")
	}
	// Bad field.
	if _, err := k.Add(pattern.A(), Recommendation{Title: "t", Template: "@TOP.WEIGHT"}); err == nil {
		t.Error("unknown field accepted")
	}
	// Bad helper.
	if _, err := k.Add(pattern.A(), Recommendation{Title: "t", Template: "@TOP(EXPLODE)"}); err == nil {
		t.Error("unknown helper accepted")
	}
	// Empty template.
	if _, err := k.Add(pattern.A(), Recommendation{Title: "t", Template: "  "}); err == nil {
		t.Error("empty template accepted")
	}
	// Duplicate name.
	if _, err := k.Add(pattern.A(), Recommendation{Title: "t", Template: "@TOP"}); err != nil {
		t.Fatalf("valid add failed: %v", err)
	}
	if _, err := k.Add(pattern.A(), Recommendation{Title: "t", Template: "@TOP"}); err == nil {
		t.Error("duplicate entry name accepted")
	}
}

func TestTemplateParsing(t *testing.T) {
	good := map[string]int{ // template -> number of tag nodes
		"plain text only":               0,
		"@TOP":                          1,
		"x @TOP y":                      1,
		"@TOP.NAME and @BASE4(INPUT)":   2,
		"@[A,B]":                        1,
		"@[A, B].NAME":                  1,
		"escaped @@ at":                 0,
		"create idx on @T(COLUMNS) now": 1,
	}
	for tmpl, wantTags := range good {
		nodes, err := parseTemplate(tmpl)
		if err != nil {
			t.Errorf("parseTemplate(%q): %v", tmpl, err)
			continue
		}
		tags := 0
		for _, n := range nodes {
			if n.literal == "" {
				tags++
			}
		}
		if tags != wantTags {
			t.Errorf("parseTemplate(%q): tags = %d, want %d", tmpl, tags, wantTags)
		}
	}
	bad := []string{
		"@",
		"text @ text",
		"@[A,B",
		"@[]",
		"@[ ]",
		"@TOP(",
		"@TOP()",
	}
	for _, tmpl := range bad {
		if _, err := parseTemplate(tmpl); err == nil {
			t.Errorf("parseTemplate(%q): expected error", tmpl)
		}
	}
}

func TestTemplateEscapedAt(t *testing.T) {
	k := MustCanonical()
	e := k.Entry("nljoin-inner-tbscan")
	occs := matchEntry(t, e, fixtures.Figure1())
	got, err := expandTemplate("email admin@@example.com about @TOP", occs[0])
	if err != nil {
		t.Fatal(err)
	}
	if got != "email admin@example.com about NLJOIN(2)" {
		t.Errorf("expanded = %q", got)
	}
}

func TestFieldAccessors(t *testing.T) {
	k := MustCanonical()
	e := k.Entry("nljoin-inner-tbscan")
	occs := matchEntry(t, e, fixtures.Figure1())
	o := occs[0]
	cases := map[string]string{
		"@TOP.NAME":     "NLJOIN",
		"@TOP.TYPE":     "NLJOIN",
		"@TOP.ID":       "2",
		"@TOP.COST":     "15771",
		"@TOP.IOCOST":   "1318",
		"@TOP.CARD":     "19.12",
		"@BASE4.NAME":   "CUST_DIM",
		"@BASE4.TYPE":   "TABLE",
		"@BASE4.CARD":   "4043",
		"@[TOP, BASE4]": "NLJOIN(2), CUST_DIM",
		// A base object has no cost: the gap is rendered, not an error that
		// would fail the whole report of every plan the pattern matches.
		"@BASE4.COST":          "(n/a)",
		"@BASE4.IOCOST":        "(n/a)",
		"@BASE4.SELFCOST":      "(n/a)",
		"@[TOP, BASE4].IOCOST": "1318, (n/a)",
	}
	for tmpl, want := range cases {
		got, err := expandTemplate(tmpl, o)
		if err != nil {
			t.Errorf("%s: %v", tmpl, err)
			continue
		}
		if got != want {
			t.Errorf("%s = %q, want %q", tmpl, got, want)
		}
	}
	// SELFCOST is numeric and present.
	if got, err := expandTemplate("@SCAN3.SELFCOST", o); err != nil || got == "" {
		t.Errorf("SELFCOST = %q, %v", got, err)
	}
}

func TestHelperFunctions(t *testing.T) {
	k := MustCanonical()
	e := k.Entry("nljoin-inner-tbscan")
	o := matchEntry(t, e, fixtures.Figure1())[0]

	// INPUT on the base object: columns flowing from CUST_DIM into TBSCAN.
	got, err := expandTemplate("@BASE4(INPUT)", o)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"CUST_NAME", "CUST_ID"} {
		if !strings.Contains(got, want) {
			t.Errorf("INPUT = %q missing %q", got, want)
		}
	}
	// Correlation qualifiers (Q1.) are stripped.
	if strings.Contains(got, "Q1") {
		t.Errorf("INPUT = %q should strip qualifiers", got)
	}

	// PREDICATE on the join: columns in its join predicate.
	got, err = expandTemplate("@TOP(PREDICATE)", o)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "CUST_ID") {
		t.Errorf("PREDICATE = %q", got)
	}

	// COLUMNS on the base object.
	got, err = expandTemplate("@base4(columns)", o)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "REGION") {
		t.Errorf("COLUMNS = %q", got)
	}

	// Unknown alias errors.
	if _, err := expandTemplate("@GHOST(INPUT)", o); err == nil {
		t.Error("unknown alias accepted")
	}
}

func TestFeaturesAndConfidence(t *testing.T) {
	k := MustCanonical()
	e := k.Entry("nljoin-inner-tbscan")
	occs := matchEntry(t, e, fixtures.Figure1())
	f := Features(occs[0])
	if len(f) != NumFeatures {
		t.Fatalf("features = %v", f)
	}
	for i, v := range f {
		if v < 0 || v > 1 {
			t.Errorf("feature %d = %v out of [0,1]", i, v)
		}
	}
	// NLJOIN dominates the plan cost -> high cost share.
	if f[0] < 0.9 {
		t.Errorf("cost share = %v, want ~1", f[0])
	}
	c := Confidence(e.Profile, f, 1)
	if c <= 0 || c > 1 {
		t.Errorf("confidence = %v", c)
	}
	// Weight scales confidence.
	if Confidence(e.Profile, f, 0.5) >= c {
		t.Error("weight did not reduce confidence")
	}
	// Zero weight defaults to 1.
	if Confidence(e.Profile, f, 0) != c {
		t.Error("zero weight should default to 1")
	}
}

func TestDefaultProfile(t *testing.T) {
	p := pattern.B() // two join pops + top join
	f := DefaultProfile(p)
	if f[3] != 1 { // all non-object pops are joins
		t.Errorf("join fraction = %v", f[3])
	}
	pc := pattern.C() // one scan pop + base object
	fc := DefaultProfile(pc)
	if fc[4] != 1 {
		t.Errorf("scan fraction = %v", fc[4])
	}
}

func TestLoadRejectsBrokenKB(t *testing.T) {
	if _, err := Load(strings.NewReader("not json")); err == nil {
		t.Error("bad JSON accepted")
	}
	if _, err := Load(strings.NewReader(`{"version":1,"entries":[{"name":"x","recommendations":[{"title":"t","template":"@TOP"}]}]}`)); err == nil {
		t.Error("entry without pattern accepted")
	}
}

func TestExtendedKB(t *testing.T) {
	k := MustExtended()
	if k.Len() != 7 {
		t.Fatalf("entries = %d, want 7", k.Len())
	}
	e := k.Entry("shared-temp")
	if e == nil {
		t.Fatal("shared-temp entry missing")
	}
	occs := matchEntry(t, e, fixtures.SharedTemp())
	if len(occs) != 2 {
		t.Fatalf("occurrences = %d, want 2", len(occs))
	}
	ranked := e.Recommend(occs)
	// MaxOccurrences 1 keeps one line despite two symmetric matches.
	if len(ranked) != 1 {
		t.Fatalf("ranked = %d, want 1", len(ranked))
	}
	text := ranked[0].Text
	if !strings.Contains(text, "TEMP(6)") {
		t.Errorf("text lacks TEMP context: %s", text)
	}
	if !strings.Contains(text, "NLJOIN(3)") && !strings.Contains(text, "HSJOIN(4)") {
		t.Errorf("text lacks consumer context: %s", text)
	}

	// Expensive subquery entry adapts too.
	e = k.Entry("expensive-subquery")
	occs = matchEntry(t, e, fixtures.SharedTemp())
	if len(occs) != 1 {
		t.Fatalf("expensive-subquery occurrences = %d", len(occs))
	}
	ranked = e.Recommend(occs)
	if !strings.Contains(ranked[0].Text, "600") {
		t.Errorf("cost context missing: %s", ranked[0].Text)
	}
}

func TestRemoveAndSnapshot(t *testing.T) {
	base := MustCanonical()
	snap := base.Snapshot()
	n := base.Len()
	if !base.Remove("loj-both-sides") {
		t.Fatal("Remove(loj-both-sides) = false")
	}
	if base.Remove("loj-both-sides") {
		t.Error("second Remove(loj-both-sides) = true")
	}
	if base.Len() != n-1 || base.Entry("loj-both-sides") != nil {
		t.Errorf("entry still present after removal: len = %d", base.Len())
	}
	// The earlier snapshot is unaffected by the mutation.
	if snap.Len() != n || snap.Entry("loj-both-sides") == nil {
		t.Errorf("snapshot changed by Remove: len = %d", snap.Len())
	}
	// Removal frees the name for re-adding.
	e := snap.Entry("loj-both-sides")
	if _, err := base.Add(e.Pattern, e.Recommendations...); err != nil {
		t.Fatalf("re-add after remove: %v", err)
	}
}
