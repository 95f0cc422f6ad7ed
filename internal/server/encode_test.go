package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"optimatch/internal/core"
	"optimatch/internal/fixtures"
	"optimatch/internal/kb"
	"optimatch/internal/pattern"
	"optimatch/internal/qep"
	"optimatch/internal/sparql"
	"optimatch/internal/workload"
)

// encodeJSONReference is the encoder encodeJSON replaced, verbatim: the
// oracle every JSON body is held to.
func encodeJSONReference(w io.Writer, v interface{}) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
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

	bodies := 0
	check := func(method, path, body string, status int, v interface{}) {
		t.Helper()
		resp, got := cacheReq(t, method, ts.URL+path, body, nil)
		if resp.StatusCode != status {
			t.Fatalf("%s %s: status %d, want %d: %.300s", method, path, resp.StatusCode, status, got)
		}
		var want bytes.Buffer
		if err := encodeJSONReference(&want, v); err != nil {
			t.Fatal(err)
		}
		if got != want.String() {
			n := 0
			for n < len(got) && n < want.Len() && got[n] == want.Bytes()[n] {
				n++
			}
			t.Fatalf("%s %s: body differs from the reference encoder's at byte %d of %d:\ngot:  %.200q\nwant: %.200q",
				method, path, n, want.Len(), got[n:], want.String()[n:])
		}
		bodies++
	}
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
	t.Logf("%d bodies byte-identical", bodies)
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
