package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"testing"

	"optimatch/internal/core"
	"optimatch/internal/fixtures"
	"optimatch/internal/kb"
	"optimatch/internal/pattern"
	"optimatch/internal/qep"
	"optimatch/internal/sparql"
	"optimatch/internal/transform"
	"optimatch/internal/workload"
)

// encodeJSONReference is the encoder encodeJSON replaced, verbatim: the
// oracle every JSON body is held to.
func encodeJSONReference(w io.Writer, v interface{}) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// matchBody, recBody and reportBody are the wire structs the search, SPARQL
// and kb/run bodies were encoded from before they were appended from their
// rows; matchesToWire and reportsToWire built them. With encodeJSON they are
// the oracle those bodies are held to.
type matchBody struct {
	Plan     string            `json:"plan"`
	Bindings map[string]string `json:"bindings"` // alias -> display name
}

func matchesToWire(ms []transform.Match) []matchBody {
	out := make([]matchBody, 0, len(ms))
	for _, m := range ms {
		names := m.Cols.Names()
		mb := matchBody{Plan: m.Plan().ID, Bindings: make(map[string]string, len(names))}
		for c, name := range names {
			mb.Bindings[name] = m.Display(c)
		}
		out = append(out, mb)
	}
	return out
}

type recBody struct {
	Entry      string  `json:"entry"`
	Title      string  `json:"title"`
	Category   string  `json:"category,omitempty"`
	Confidence float64 `json:"confidence"`
	Text       string  `json:"text"`
}

type reportBody struct {
	Plan            string    `json:"plan"`
	Message         string    `json:"message"`
	Recommendations []recBody `json:"recommendations,omitempty"`
}

func reportsToWire(reports []core.PlanReport) []reportBody {
	out := make([]reportBody, 0, len(reports))
	for i := range reports {
		rb := reportBody{Plan: reports[i].Plan.ID, Message: reports[i].Message()}
		for _, rec := range reports[i].Recommendations {
			rb.Recommendations = append(rb.Recommendations, recBody{
				Entry:      rec.Entry.Name,
				Title:      rec.Recommendation.Title,
				Category:   rec.Recommendation.Category,
				Confidence: rec.Confidence,
				Text:       rec.Text,
			})
		}
		out = append(out, rb)
	}
	return out
}

// variantA is pattern A under name with its inner-cardinality threshold set to
// inner: an entry that differs from the canonical one in one FILTER constant,
// which pattern A contains when inner is at least 100 as a number and as a
// spelling.
func variantA(name string, inner float64) *pattern.Pattern {
	b := pattern.NewBuilder(name, "NLJOIN repeatedly scanning a large inner table")
	top := b.Pop("NLJOIN").Alias("TOP")
	outer := b.Pop(pattern.TypeAny)
	scan := b.Pop("TBSCAN").Alias("SCAN3")
	base := b.Pop(pattern.TypeBaseObj).Alias("BASE4")
	top.OuterChild(outer)
	top.InnerChild(scan)
	outer.Where("hasEstimateCardinality", ">", 1)
	scan.Where("hasEstimateCardinality", ">", inner)
	scan.Child(base)
	return b.MustBuild()
}

// TestReadBodiesByteIdentical drives the 24-plan `qepgen -seed 42` history
// through the handler — uploads with knowledge-base edits interleaved, and
// after every few uploads a kb/run, a search per extended pattern and raw
// SPARQL queries — plus error bodies, and holds every body to the bytes the
// reference encoder writes for the same value.
func TestReadBodiesByteIdentical(t *testing.T) {
	w, err := workload.Generate(workload.Config{
		Seed: 42, NumPlans: 24, MinOps: 30, MaxOps: 80, InjectA: 4, InjectB: 3, InjectC: 5, HardFraction: 0.35,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, k := core.New(), kb.MustExtended()
	ts := httptest.NewServer(New(eng, k).Handler())
	t.Cleanup(ts.Close)
	ctx := context.Background()

	bc := &bodyChecker{t: t, url: ts.URL}
	check := bc.check
	entry := func(p *pattern.Pattern) string {
		b, err := json.Marshal(addEntryRequest{Pattern: p, Recommendations: []kb.Recommendation{{
			Title: `Index "inner <&> co`, Category: "index\u2028", Template: "Create index on @BASE4.NAME for @SCAN3.CARD rows.",
		}}})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	queries := []string{
		sortQuery,
		`PREFIX preduri: <http://optimatch/pred/>
SELECT ?pop ?card WHERE { ?pop preduri:hasPopType "TBSCAN" ; preduri:hasEstimateCardinality ?card . FILTER(?card > 500) }`,
		`PREFIX preduri: <http://optimatch/pred/>
SELECT ?type (COUNT(?pop) AS ?n) WHERE { ?pop preduri:hasPopType ?type . } GROUP BY ?type ORDER BY DESC(?n) ?type LIMIT 3`,
	}
	thresholds := []float64{250, 1600, 2500, 150}

	for i, p := range w.Plans {
		check("POST", "/api/plans", qep.Text(p), http.StatusCreated,
			planInfo{ID: p.ID, Operators: p.NumOps(), TotalCost: p.TotalCost})
		if i%6 != 5 {
			continue
		}
		round := i / 6
		name := fmt.Sprintf("nljoin-inner-tbscan-over-%v", thresholds[round])
		check("POST", "/api/kb/entries", entry(variantA(name, thresholds[round])), http.StatusCreated,
			entryInfo{Name: name, Description: "NLJOIN repeatedly scanning a large inner table", Recommendations: 1})
		if round == 2 {
			check("DELETE", "/api/kb/entries/"+pattern.A().Name, "", http.StatusOK, map[string]string{"deleted": pattern.A().Name})
		}

		reports, err := eng.RunKB(ctx, k.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		check("POST", "/api/kb/run", "", http.StatusOK, reportsToWire(reports))
		for _, sp := range pattern.Extended() {
			doc, err := sp.ToJSON()
			if err != nil {
				t.Fatal(err)
			}
			matches, err := eng.FindPattern(ctx, sp)
			if err != nil {
				t.Fatal(err)
			}
			check("POST", "/api/search", string(doc), http.StatusOK,
				map[string]interface{}{"pattern": sp.Name, "matches": matchesToWire(matches)})
		}
		for _, text := range queries {
			q, err := sparql.Parse(text)
			if err != nil {
				t.Fatal(err)
			}
			matches, err := eng.FindSPARQL(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			check("POST", "/api/sparql", text, http.StatusOK, map[string]interface{}{"matches": matchesToWire(matches)})
		}
	}

	_, searchErr := pattern.FromJSON([]byte(`{"name":"<&>"`))
	_, sparqlErr := sparql.Parse(`SELECT ?x WHERE { ?x <a> "\u2028<&>" `)
	for _, tc := range []struct {
		method, path, body string
		status             int
		err                error
	}{
		{"POST", "/api/search", `{"name":"<&>"`, http.StatusUnprocessableEntity, searchErr},
		{"POST", "/api/sparql", `SELECT ?x WHERE { ?x <a> "\u2028<&>" `, http.StatusBadRequest, sparqlErr},
		{"DELETE", "/api/plans/" + url.PathEscape(`<"a&\b>`), "", http.StatusNotFound, fmt.Errorf("plan %q not loaded", `<"a&\b>`)},
		{"DELETE", "/api/kb/entries/ghost", "", http.StatusNotFound, fmt.Errorf("kb entry %q not found", "ghost")},
	} {
		if tc.err == nil {
			t.Fatalf("%s %s: the request is not an error", tc.method, tc.path)
		}
		check(tc.method, tc.path, tc.body, tc.status, errorBody{Error: tc.err.Error()})
	}
	t.Logf("%d bodies byte-identical", bc.bodies)
}

// bodyChecker issues requests to one server and holds each answer to the
// bytes the reference encoder writes for v, the value the handlers encoded
// before the row bodies were appended: the status and v's encoding, or, where
// v does not encode, the error body the render's error was answered with.
type bodyChecker struct {
	t      *testing.T
	url    string
	bodies int
}

func (bc *bodyChecker) check(method, path, body string, status int, v interface{}) {
	t := bc.t
	t.Helper()
	resp, got := cacheReq(t, method, bc.url+path, body, nil)
	if resp.StatusCode != status {
		t.Fatalf("%s %s: status %d, want %d: %.300s", method, path, resp.StatusCode, status, got)
	}
	var want bytes.Buffer
	if err := encodeJSONReference(&want, v); err != nil {
		want.Reset()
		if err := encodeJSONReference(&want, errorBody{Error: err.Error()}); err != nil {
			t.Fatal(err)
		}
	}
	if got != want.String() {
		n := 0
		for n < len(got) && n < want.Len() && got[n] == want.Bytes()[n] {
			n++
		}
		t.Fatalf("%s %s: body differs from the reference encoder's at byte %d of %d:\ngot:  %.200q\nwant: %.200q",
			method, path, n, want.Len(), got[n:], want.String()[n:])
	}
	bc.bodies++
}

// TestEdgeBodiesByteIdentical holds the row bodies to the oracle on the
// edges the history above does not reach: no matches, an unbound OPTIONAL
// cell, a projected name repeated, a plan ID and an object name that need
// escapes, a recommendation without a category beside plans with none, and a
// NaN confidence, which the oracle cannot encode and the route answers with
// the same status and error body as before.
func TestEdgeBodiesByteIdentical(t *testing.T) {
	plans := fixtures.All()
	q2 := plans[0] // the plan pattern A matches
	q2.ID = "Q<&>\"\\\u00e9"
	for name, obj := range q2.Objects {
		if name == "CUST_DIM" {
			obj.Name = "CUST_DIM<&>\u00e9\u2028\"\\"
			delete(q2.Objects, name)
			q2.Objects[obj.Name] = obj
		}
	}
	run := func(weight float64) (*core.Engine, *kb.KnowledgeBase, *bodyChecker) {
		eng, k := core.New(), kb.New()
		for _, p := range plans {
			if _, err := eng.LoadText(qep.Text(p)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := k.Add(pattern.A(), kb.Recommendation{Title: "Index the inner table", Weight: weight,
			Template: "Create index on @BASE4.NAME for @TOP."}); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(New(eng, k).Handler())
		t.Cleanup(ts.Close)
		return eng, k, &bodyChecker{t: t, url: ts.URL}
	}
	ctx := context.Background()
	eng, k, bc := run(0.9)

	reports, err := eng.RunKB(ctx, k.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(reports, func(r core.PlanReport) bool { return r.Plan.ID == q2.ID && r.HasRecommendations() }) ||
		!slices.ContainsFunc(reports, func(r core.PlanReport) bool { return r.Message() == core.NoRecommendation }) {
		t.Fatalf("want a recommendation for %q and a plan without one: %+v", q2.ID, reportsToWire(reports))
	}
	bc.check("POST", "/api/kb/run", "", http.StatusOK, reportsToWire(reports))

	for _, sp := range []*pattern.Pattern{pattern.A(), variantA("nothing", 1e12)} {
		doc, err := sp.ToJSON()
		if err != nil {
			t.Fatal(err)
		}
		matches, err := eng.FindPattern(ctx, sp)
		if err != nil {
			t.Fatal(err)
		}
		if sp.Name == pattern.A().Name && (len(matches) != 1 || matches[0].Plan().ID != q2.ID ||
			matches[0].Display(matches[0].Column("BASE4")) != "CUST_DIM<&>\u00e9\u2028\"\\") {
			t.Fatalf("pattern A: %d matches, want one in %q binding the renamed object", len(matches), q2.ID)
		}
		bc.check("POST", "/api/search", string(doc), http.StatusOK,
			map[string]interface{}{"pattern": sp.Name, "matches": matchesToWire(matches)})
	}
	for _, tc := range []struct {
		text string
		want func([]transform.Match) bool
	}{
		{`PREFIX preduri: <http://optimatch/pred/>
SELECT ?s WHERE { ?s preduri:hasPopType "NO SUCH TYPE" }`,
			func(ms []transform.Match) bool { return len(ms) == 0 }},
		{`PREFIX preduri: <http://optimatch/pred/>
SELECT ?obj ?name ?none WHERE { ?obj preduri:hasPopType "BASE OB" ; preduri:hasName ?name .
  OPTIONAL { ?obj preduri:hasNoSuchPredicate ?none } }`,
			func(ms []transform.Match) bool { return len(ms) > 0 && ms[0].Term(2).Value == "" }},
		{`PREFIX preduri: <http://optimatch/pred/>
SELECT ?t ?s ?t WHERE { ?s preduri:hasPopType ?t }`,
			func(ms []transform.Match) bool { return len(ms) > 0 && len(ms[0].Cols.Names()) == 3 }},
	} {
		q, err := sparql.Parse(tc.text)
		if err != nil {
			t.Fatal(err)
		}
		matches, err := eng.FindSPARQL(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !tc.want(matches) {
			t.Fatalf("%s: %d matches, not the edge the case is for", tc.text, len(matches))
		}
		text := tc.text
		bc.check("POST", "/api/sparql", text, http.StatusOK, map[string]interface{}{"matches": matchesToWire(matches)})
	}

	eng, k, bc = run(math.NaN())
	if reports, err = eng.RunKB(ctx, k.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if _, err := json.Marshal(reportsToWire(reports)); err == nil {
		t.Fatal("no NaN confidence to refuse")
	}
	bc.check("POST", "/api/kb/run", "", http.StatusInternalServerError, reportsToWire(reports))
}

// kbRunBody is the kb/run body over the fixture plans and the canonical
// knowledge base.
func kbRunBody(tb testing.TB) []byte {
	eng := core.New()
	if err := eng.LoadPlans(fixtures.All()); err != nil {
		tb.Fatal(err)
	}
	rec := httptest.NewRecorder()
	New(eng, nil).Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/api/kb/run", nil))
	if rec.Code != http.StatusOK {
		tb.Fatalf("kb/run: status %d", rec.Code)
	}
	return rec.Body.Bytes()
}

// FuzzEncodeJSON holds encodeJSON to the encoder it replaced: whatever
// json.Unmarshal accepts into an interface{} encodes to exactly the bytes the
// reference encoder writes, and so does the input itself as a
// json.RawMessage, whose strings keep their own escapes and invalid UTF-8.
func FuzzEncodeJSON(f *testing.F) {
	for _, seed := range []string{
		`{"a":{},"b":[],"c":[{},[],{"d":[[],{}]}],"e":{"f":[]}}`,
		`["\"","\\","\\\"","\\\\\"\\","a\\\\",{"\\\"":"\"\\"}]`,
		`{"<>&":"<script>&amp;</script>","k":"\u003c\u0026"}`,
		"[\"\u2028\u2029\",\"\\u2028\"]",
		"{\"\xff\":\"\xfe\xc3(\"}",
		`[1e21,1E-7,-0.0,1e+300,0.000001,5e-324,123456789012345678901234567890]`,
		`null`, `true`, ` "x" `, `0`, `[]`, `{}`,
	} {
		f.Add([]byte(seed))
	}
	f.Add(kbRunBody(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		var v interface{}
		if json.Unmarshal(data, &v) != nil {
			return
		}
		for _, v := range []interface{}{v, json.RawMessage(data)} {
			var got, want bytes.Buffer
			gotErr, wantErr := encodeJSON(&got, v), encodeJSONReference(&want, v)
			if (gotErr == nil) != (wantErr == nil) || !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%T %q:\nencodeJSON = %q (%v)\nreference  = %q (%v)", v, data, got.Bytes(), gotErr, want.Bytes(), wantErr)
			}
		}
	})
}

// FuzzAppendJSON holds closeString, with which the row bodies spell a match's
// displayed values, to json.Marshal on any bytes behind bytes already in the
// buffer, and appendReportBody to the oracle on a report whose strings are
// that string and whose confidence is any float64: NaN and ±Inf erroring as
// Marshal does.
func FuzzAppendJSON(f *testing.F) {
	strs := []string{
		"", "Q1", "NLJOIN(2)", "plain ascii ~ with space", "\xff", "a\xc3(b", "\xed\xa0\x80",
		" ", "x y", "\x00\x01\x1f\x7f\t\n\r", "<script>&amp;</script>", `"""`, `\\\`, `\"\\"`,
		"é ü 漢字 😀", "a b",
	}
	floats := []float64{
		0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e21, math.Nextafter(1e21, 0), -1e21,
		5e-324, math.SmallestNonzeroFloat64, 2.2250738585072014e-308, math.MaxFloat64, 0.1, 1.0 / 3, 123456789,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	for i := range max(len(strs), len(floats)) {
		f.Add(strs[i%len(strs)], floats[i%len(floats)])
	}
	f.Fuzz(func(t *testing.T, s string, x float64) {
		prefix := []byte("[1,")
		want, _ := json.Marshal(s)
		if got := closeString(append(append(bytes.Clone(prefix), '"'), s...), len(prefix)+1); !bytes.Equal(got, append(bytes.Clone(prefix), want...)) {
			t.Fatalf("closeString(%q) = %q, json.Marshal = %q", s, got[len(prefix):], want)
		}
		reports := []core.PlanReport{{
			Plan: &qep.Plan{ID: s},
			Recommendations: []kb.Ranked{{
				Entry:          &kb.Entry{Name: s},
				Recommendation: kb.Recommendation{Title: s, Category: s},
				Text:           s,
				Confidence:     x,
			}},
		}}
		got, gotErr := appendReportBody(nil, reports)
		var oracle bytes.Buffer
		wantErr := encodeJSONReference(&oracle, reportsToWire(reports))
		if (gotErr == nil) != (wantErr == nil) || gotErr == nil && !bytes.Equal(got, oracle.Bytes()) {
			t.Fatalf("appendReportBody(%q, %v) = %q (%v), oracle %q (%v)", s, x, got, gotErr, oracle.Bytes(), wantErr)
		}
	})
}
