package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"optimatch/internal/core"
	"optimatch/internal/fixtures"
	"optimatch/internal/kb"
	"optimatch/internal/obs"
	"optimatch/internal/pattern"
	"optimatch/internal/qep"
	"optimatch/internal/rdf"
	"optimatch/internal/store"
	"optimatch/internal/transform"
)

func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	eng := core.New()
	if err := eng.LoadPlans(fixtures.All()); err != nil {
		t.Fatal(err)
	}
	s := New(eng, nil)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func getJSON(t *testing.T, url string, wantStatus int, into interface{}) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
}

func postBody(t *testing.T, url, body string, wantStatus int, into interface{}) {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
}

func TestHealthAndPlanList(t *testing.T) {
	_, ts := testServer(t)
	var health map[string]string
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &health)
	if health["status"] != "ok" {
		t.Errorf("health = %v", health)
	}
	var plans []planInfo
	getJSON(t, ts.URL+"/api/plans", http.StatusOK, &plans)
	if len(plans) != 5 {
		t.Fatalf("plans = %d", len(plans))
	}
	found := false
	for _, p := range plans {
		if p.ID == "Q2" && p.Operators == 5 {
			found = true
		}
	}
	if !found {
		t.Errorf("Q2 missing from %v", plans)
	}
}

func TestUploadRenderAndRDF(t *testing.T) {
	_, ts := testServer(t)
	extra := fixtures.SharedTemp()
	var info planInfo
	postBody(t, ts.URL+"/api/plans", qep.Text(extra), http.StatusCreated, &info)
	if info.ID != "QCSE" || info.Operators != 8 {
		t.Errorf("uploaded = %+v", info)
	}
	// Duplicate upload rejected as a conflict with served state.
	postBody(t, ts.URL+"/api/plans", qep.Text(extra), http.StatusConflict, nil)
	// Garbage rejected.
	postBody(t, ts.URL+"/api/plans", "not a plan", http.StatusUnprocessableEntity, nil)

	// Render.
	resp, err := http.Get(ts.URL + "/api/plans/QCSE/render")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "TEMP") {
		t.Errorf("render output missing TEMP")
	}
	// RDF.
	resp2, err := http.Get(ts.URL + "/api/plans/QCSE/rdf")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	n, _ = resp2.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "hasPopType") {
		t.Errorf("rdf output missing predicates")
	}
	// Unknown plan -> 404.
	getJSON(t, ts.URL+"/api/plans/GHOST/render", http.StatusNotFound, nil)
}

// A statement ID, an argument key and an object name are free text in an
// explain file and part of an IRI in the plan's graph. The N-Triples served
// for such a plan must be N-Triples: before IRIs were escaped, `a>b c` put a
// raw '>' and a space inside <...> and rdf.ParseNTriples refused line 1.
func TestPlanRDFEscapesIRIs(t *testing.T) {
	s, ts := testServer(t)
	const id = "a>b c"
	p := fixtures.Renamed(fixtures.Figure1(), id)
	p.Operators[2].Args["MAX PAGES<^>"] = "ALL"
	const object = "CUST{DIM}|`\\\""
	text := strings.ReplaceAll(qep.Text(p), "CUST_DIM", object)
	postBody(t, ts.URL+"/api/plans", text, http.StatusCreated, nil)

	resp, err := http.Get(ts.URL + "/api/plans/" + url.PathEscape(id) + "/rdf")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET rdf: status %d, %v", resp.StatusCode, err)
	}
	g, err := rdf.ParseNTriples(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("the served N-Triples do not parse: %v", err)
	}
	if want := s.eng.Result(id).Graph; g.Len() != want.Len() {
		t.Errorf("read back %d triples, the plan's graph has %d", g.Len(), want.Len())
	}
	var again bytes.Buffer
	if err := rdf.WriteNTriples(&again, g); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), body) {
		t.Error("the graph read back serializes differently from what was served")
	}
	for _, iri := range []string{
		transform.PopNS + id + "/plan", transform.ArgNS + "MAX PAGES<^>", transform.PopNS + id + "/obj/" + object,
	} {
		if g.Dict().Lookup(rdf.IRI(iri)) == rdf.NoID {
			t.Errorf("IRI %q did not come back", iri)
		}
	}
}

func TestSearchEndpoint(t *testing.T) {
	_, ts := testServer(t)
	data, err := pattern.A().ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Pattern string      `json:"pattern"`
		Matches []matchBody `json:"matches"`
	}
	postBody(t, ts.URL+"/api/search", string(data), http.StatusOK, &out)
	if len(out.Matches) != 1 || out.Matches[0].Plan != "Q2" {
		t.Fatalf("matches = %+v", out.Matches)
	}
	if out.Matches[0].Bindings["BASE4"] != "CUST_DIM" {
		t.Errorf("bindings = %v", out.Matches[0].Bindings)
	}
	// Malformed pattern -> 422.
	postBody(t, ts.URL+"/api/search", `{"pops":[]}`, http.StatusUnprocessableEntity, nil)
}

func TestSPARQLEndpoint(t *testing.T) {
	_, ts := testServer(t)
	query := `PREFIX preduri: <http://optimatch/pred/>
SELECT ?s WHERE { ?s preduri:hasPopType "SORT" }`
	var out struct {
		Matches []matchBody `json:"matches"`
	}
	postBody(t, ts.URL+"/api/sparql", query, http.StatusOK, &out)
	if len(out.Matches) != 1 || out.Matches[0].Plan != "Q9" {
		t.Errorf("matches = %+v", out.Matches)
	}
	postBody(t, ts.URL+"/api/sparql", "", http.StatusBadRequest, nil)
	postBody(t, ts.URL+"/api/sparql", "nonsense", http.StatusBadRequest, nil)
}

func TestKBEndpoints(t *testing.T) {
	_, ts := testServer(t)
	var entries []entryInfo
	getJSON(t, ts.URL+"/api/kb", http.StatusOK, &entries)
	if len(entries) != 4 {
		t.Fatalf("entries = %d", len(entries))
	}

	// Add an entry over the wire.
	req := addEntryRequest{
		Pattern: pattern.F(),
		Recommendations: []kb.Recommendation{{
			Title: "review CSE", Template: "check @TOP shared by @CONSUMER2 and @CONSUMER3",
		}},
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	postBody(t, ts.URL+"/api/kb/entries", string(body), http.StatusCreated, nil)
	getJSON(t, ts.URL+"/api/kb", http.StatusOK, &entries)
	if len(entries) != 5 {
		t.Fatalf("entries after add = %d", len(entries))
	}
	// Duplicate name rejected.
	postBody(t, ts.URL+"/api/kb/entries", string(body), http.StatusUnprocessableEntity, nil)
	// Entry without pattern rejected.
	postBody(t, ts.URL+"/api/kb/entries", `{"recommendations":[]}`, http.StatusBadRequest, nil)

	// Run the KB.
	var reports []reportBody
	postBody(t, ts.URL+"/api/kb/run", "", http.StatusOK, &reports)
	if len(reports) != 5 {
		t.Fatalf("reports = %d", len(reports))
	}
	var q2 *reportBody
	for i := range reports {
		if reports[i].Plan == "Q2" {
			q2 = &reports[i]
		}
	}
	if q2 == nil || len(q2.Recommendations) == 0 {
		t.Fatalf("Q2 report = %+v", q2)
	}
	if !strings.Contains(q2.Recommendations[0].Text, "CUST_DIM") {
		t.Errorf("recommendation lacks context: %s", q2.Recommendations[0].Text)
	}
}

func TestNilKBDefaultsToCanonical(t *testing.T) {
	s := New(core.New(), nil)
	if s.kb.Len() != 4 {
		t.Errorf("default kb entries = %d", s.kb.Len())
	}
}

func doDelete(t *testing.T, url string, wantStatus int) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("DELETE %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
}

func TestDeletePlanEndpoint(t *testing.T) {
	_, ts := testServer(t)
	doDelete(t, ts.URL+"/api/plans/Q2", http.StatusOK)
	doDelete(t, ts.URL+"/api/plans/Q2", http.StatusNotFound)
	var plans []planInfo
	getJSON(t, ts.URL+"/api/plans", http.StatusOK, &plans)
	if len(plans) != 4 {
		t.Errorf("plans after delete = %d", len(plans))
	}
	// The removed ID is free for re-upload.
	for _, p := range fixtures.All() {
		if p.ID == "Q2" {
			postBody(t, ts.URL+"/api/plans", qep.Text(p), http.StatusCreated, nil)
		}
	}
}

func TestDeleteKBEntryEndpoint(t *testing.T) {
	_, ts := testServer(t)
	doDelete(t, ts.URL+"/api/kb/entries/loj-both-sides", http.StatusOK)
	doDelete(t, ts.URL+"/api/kb/entries/loj-both-sides", http.StatusNotFound)
	var entries []entryInfo
	getJSON(t, ts.URL+"/api/kb", http.StatusOK, &entries)
	if len(entries) != 3 {
		t.Errorf("entries after delete = %d", len(entries))
	}
}

// TestMetricsWithoutStore: a server over a memory store counts its plans and
// entries, exports no optimatch_store_* series, and cannot compact.
func TestMetricsWithoutStore(t *testing.T) {
	eng := core.New()
	if err := eng.LoadPlans(fixtures.All()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(eng, nil, WithMetrics(obs.NewRegistry())).Handler())
	t.Cleanup(ts.Close)
	m := scrape(t, ts.URL)
	if m["optimatch_core_plans_loaded"] != 5 || m["optimatch_kb_entries"] != 4 {
		t.Errorf("plans loaded %v, kb entries %v; want 5 and 4", m["optimatch_core_plans_loaded"], m["optimatch_kb_entries"])
	}
	for series := range m {
		if strings.HasPrefix(series, "optimatch_store_") {
			t.Errorf("%s exported without a store", series)
		}
	}
	// Compaction needs a durable store.
	postBody(t, ts.URL+"/api/admin/compact", "", http.StatusNotImplemented, nil)
}

// storeServer builds a server over a durable store in dir.
func storeServer(t *testing.T, dir string, opts ...Option) (*store.Store, *httptest.Server) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	ts := httptest.NewServer(New(st.Engine(), st.KB(), append([]Option{WithStore(st)}, opts...)...).Handler())
	t.Cleanup(ts.Close)
	return st, ts
}

func TestStoreBackedServerSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	st, ts := storeServer(t, dir)

	for _, p := range fixtures.All() {
		postBody(t, ts.URL+"/api/plans", qep.Text(p), http.StatusCreated, nil)
	}
	req := addEntryRequest{
		Pattern: pattern.F(),
		Recommendations: []kb.Recommendation{{
			Title: "review CSE", Template: "check @TOP shared by @CONSUMER2 and @CONSUMER3",
		}},
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	postBody(t, ts.URL+"/api/kb/entries", string(body), http.StatusCreated, nil)
	doDelete(t, ts.URL+"/api/plans/Q9", http.StatusOK)

	if got := st.Stats().AppendedRecords; got != 7 {
		t.Fatalf("%d records appended, want 7", got)
	}
	// Compaction over the API shrinks the WAL without changing state, and
	// answers with the store's stats.
	var compacted store.Stats
	postBody(t, ts.URL+"/api/admin/compact", "", http.StatusOK, &compacted)
	if compacted.WALBytes != 0 || compacted.Generation != 1 || compacted.AppendedRecords != 7 {
		t.Fatalf("store stats after compact = %+v", compacted)
	}
	ts.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: a fresh store over the same directory serves the same state.
	st2, ts2 := storeServer(t, dir)
	var plans []planInfo
	getJSON(t, ts2.URL+"/api/plans", http.StatusOK, &plans)
	if len(plans) != 4 {
		t.Fatalf("plans after restart = %d", len(plans))
	}
	for _, p := range plans {
		if p.ID == "Q9" {
			t.Error("deleted plan resurrected")
		}
	}
	var entries []entryInfo
	getJSON(t, ts2.URL+"/api/kb", http.StatusOK, &entries)
	if len(entries) != 5 {
		t.Fatalf("kb entries after restart = %d", len(entries))
	}
	// Where start-up time went: the snapshot's four plans, no log records.
	if st := st2.Stats(); st.RecoveredPlans != 4 || st.RecoveredRecords != 0 || st.RecoveryMillis <= 0 {
		t.Errorf("store stats after restart = %+v, want 4 plans recovered from the snapshot in a positive time", st)
	}
}

// TestPoisonedEntryRefused posts the three patterns that used to be saved,
// journaled and then fail every knowledge-base scan with a 500 — also after
// every restart — because nobody parsed an entry's query until a scan did.
// Each is a 422 where it is posted, and nothing else changes.
func TestPoisonedEntryRefused(t *testing.T) {
	st, ts := storeServer(t, t.TempDir())
	for _, p := range fixtures.All() {
		postBody(t, ts.URL+"/api/plans", qep.Text(p), http.StatusCreated, nil)
	}
	var before, after []entryInfo
	getJSON(t, ts.URL+"/api/kb", http.StatusOK, &before)
	appended := st.Stats().AppendedRecords

	for _, prop := range []string{
		`{"id":"hasTotalCost","sign":">","value":"Inf"}`,
		`{"id":"has TotalCost","sign":">","value":"1"}`,
		`{"id":"hasTotalCost}","sign":">","value":"1"}`,
	} {
		body := `{"pattern":{"name":"poison","pops":[{"ID":1,"type":"NLJOIN","popProperties":[` + prop +
			`]}]},"recommendations":[{"title":"t","template":"look at @TOP"}]}`
		var e errorBody
		postBody(t, ts.URL+"/api/kb/entries", body, http.StatusUnprocessableEntity, &e)
		if !strings.Contains(e.Error, "pop 1 property") || strings.Contains(e.Error, "offset") {
			t.Errorf("%s: error %q does not name the field", prop, e.Error)
		}
		postBody(t, ts.URL+"/api/kb/run", "", http.StatusOK, nil)
	}
	getJSON(t, ts.URL+"/api/kb", http.StatusOK, &after)
	if !reflect.DeepEqual(before, after) {
		t.Errorf("knowledge base changed:\n%v\n%v", before, after)
	}
	if got := st.Stats().AppendedRecords; got != appended {
		t.Errorf("a refused entry was journaled: %d records appended, want %d", got, appended)
	}
}

// TestDuplicateAliasRefused: a pattern whose two pops share a handler alias
// in two spellings answered one way in search and another in a knowledge-base
// template. Both routes refuse it with a 422 naming the two pops.
func TestDuplicateAliasRefused(t *testing.T) {
	_, ts := testServer(t)
	pat := `{"name":"twice","pops":[{"ID":1,"type":"NLJOIN","alias":"X","popProperties":[]},` +
		`{"ID":2,"type":"TBSCAN","alias":"x","popProperties":[]}]}`
	for path, body := range map[string]string{
		"/api/search":     pat,
		"/api/kb/entries": `{"pattern":` + pat + `,"recommendations":[{"title":"t","template":"look at @X"}]}`,
	} {
		var e errorBody
		postBody(t, ts.URL+path, body, http.StatusUnprocessableEntity, &e)
		if !strings.Contains(e.Error, "pops 1 and 2") {
			t.Errorf("%s: error %q does not name both pops", path, e.Error)
		}
	}
}

// TestInapplicableFieldEntryServes posts an entry whose template asks a
// base-object handler for a field only operators have. Validation cannot know
// what an ANY handler will bind, so the entry is saved — and used to fail
// every knowledge-base run over a plan its pattern matches with a 500, for
// everyone, until someone deleted it. Expansion is total now: the run answers
// and renders the gap.
func TestInapplicableFieldEntryServes(t *testing.T) {
	_, ts := storeServer(t, t.TempDir())
	postBody(t, ts.URL+"/api/plans", qep.Text(fixtures.Figure1()), http.StatusCreated, nil)
	p := pattern.A()
	p.Name = "cost-of-a-table"
	body, err := json.Marshal(addEntryRequest{
		Pattern:         p,
		Recommendations: []kb.Recommendation{{Title: "t", Template: "@BASE4 costs @BASE4.COST"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	postBody(t, ts.URL+"/api/kb/entries", string(body), http.StatusCreated, nil)
	resp, run := cacheReq(t, "POST", ts.URL+"/api/kb/run", "", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(run, "CUST_DIM costs (n/a)") {
		t.Fatalf("kb/run = %d, want 200 with the inapplicable field rendered as (n/a):\n%.400s", resp.StatusCode, run)
	}
}

// TestETagDoesNotSurviveRestart: the engine generation a validator embeds
// restarts from the number of replay steps that changed the plan table (runs
// that loaded a plan, plus removals), so after delete, re-upload
// under the same ID and compaction, a restarted server reaches the old
// generation number with different bytes behind it. A validator minted by
// one process must not match in another.
func TestETagDoesNotSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	st, ts := storeServer(t, dir)
	x := qep.Text(fixtures.Renamed(fixtures.Figure1(), "Q1"))
	y := qep.Text(fixtures.Renamed(fixtures.Figure7(), "Q1"))

	postBody(t, ts.URL+"/api/plans", x, http.StatusCreated, nil)
	resp, bodyX := cacheReq(t, "GET", ts.URL+"/api/plans/Q1/rdf", "", nil)
	etag := resp.Header.Get("ETag")
	if resp, _ := cacheReq(t, "GET", ts.URL+"/api/plans/Q1/rdf", "", map[string]string{"If-None-Match": etag}); resp.StatusCode != http.StatusNotModified {
		t.Fatalf("same process, same generation: status %d, want 304", resp.StatusCode)
	}
	doDelete(t, ts.URL+"/api/plans/Q1", http.StatusOK)
	postBody(t, ts.URL+"/api/plans", y, http.StatusCreated, nil)
	postBody(t, ts.URL+"/api/admin/compact", "", http.StatusOK, nil)
	ts.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	_, ts2 := storeServer(t, dir)
	resp, bodyY := cacheReq(t, "GET", ts2.URL+"/api/plans/Q1/rdf", "", map[string]string{"If-None-Match": etag})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("validator from before the restart: status %d, want 200", resp.StatusCode)
	}
	if bodyY == bodyX || !strings.Contains(bodyY, "http://optimatch/") {
		t.Fatalf("restarted server did not serve the re-uploaded plan: %.100s", bodyY)
	}
	if got := resp.Header.Get("ETag"); got == etag || got == "" {
		t.Fatalf("ETag after restart = %q, want a new validator (was %q)", got, etag)
	}
}

// TestConcurrentKBReadsAndWrites hammers the KB read paths — the entry list,
// kb/run and /metrics — while entries are being added and
// removed, over a memory store and over a durable one. The server holds no
// lock of its own: run with -race this fails if any path touches the entry
// list without the knowledge base's.
func TestConcurrentKBReadsAndWrites(t *testing.T) {
	for _, input := range []struct {
		name  string
		start func(t *testing.T) *httptest.Server
	}{
		{"memory", func(t *testing.T) *httptest.Server {
			eng := core.New()
			if err := eng.LoadPlans(fixtures.All()); err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(New(eng, nil, WithMetrics(obs.NewRegistry())).Handler())
			t.Cleanup(ts.Close)
			return ts
		}},
		{"durable", func(t *testing.T) *httptest.Server {
			_, ts := storeServer(t, t.TempDir(), WithMetrics(obs.NewRegistry()))
			for _, p := range fixtures.All() {
				postBody(t, ts.URL+"/api/plans", qep.Text(p), http.StatusCreated, nil)
			}
			return ts
		}},
	} {
		t.Run(input.name, func(t *testing.T) { hammerKB(t, input.start(t)) })
	}
}

func hammerKB(t *testing.T, ts *httptest.Server) {
	const writers, removers, readers, iters = 8, 4, 8, 25
	var wg sync.WaitGroup
	var removed atomic.Int64
	// Remover r deletes the entries writer r has added so far, one per round,
	// picked from the entry list it reads. It starts once writer r's first add
	// has answered, so however the goroutines are scheduled there is something
	// to remove.
	added := make([]chan struct{}, writers)
	for i := range added {
		added[i] = make(chan struct{})
	}
	for rm := 0; rm < removers; rm++ {
		wg.Add(1)
		go func(rm int) {
			defer wg.Done()
			<-added[rm]
			prefix := fmt.Sprintf("hammer-%d-", rm)
			for i := 0; i < iters; i++ {
				resp, err := http.Get(ts.URL + "/api/kb")
				if err != nil {
					t.Error(err)
					return
				}
				var entries []entryInfo
				err = json.NewDecoder(resp.Body).Decode(&entries)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				for _, e := range entries {
					if strings.HasPrefix(e.Name, prefix) {
						req, err := http.NewRequest(http.MethodDelete, ts.URL+"/api/kb/entries/"+e.Name, nil)
						if err != nil {
							t.Error(err)
							return
						}
						resp, err := http.DefaultClient.Do(req)
						if err != nil {
							t.Error(err)
							return
						}
						resp.Body.Close()
						if resp.StatusCode != http.StatusOK {
							t.Errorf("remove entry %s: status %d", e.Name, resp.StatusCode)
						}
						removed.Add(1)
						break
					}
				}
			}
		}(rm)
	}
	for wtr := 0; wtr < writers; wtr++ {
		wg.Add(1)
		go func(wtr int) {
			defer wg.Done()
			answered := sync.OnceFunc(func() { close(added[wtr]) })
			defer answered()
			for i := 0; i < iters; i++ {
				b := pattern.NewBuilder(fmt.Sprintf("hammer-%d-%d", wtr, i), "race test")
				b.Pop("SORT").Alias("TOP")
				req := addEntryRequest{
					Pattern:         b.MustBuild(),
					Recommendations: []kb.Recommendation{{Title: "t", Template: "inspect @TOP"}},
				}
				body, err := json.Marshal(req)
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := http.Post(ts.URL+"/api/kb/entries", "application/json", strings.NewReader(string(body)))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusCreated {
					t.Errorf("add entry: status %d", resp.StatusCode)
				}
				answered()
			}
		}(wtr)
	}
	for rdr := 0; rdr < readers; rdr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				for _, r := range []struct{ method, path string }{
					{"GET", "/api/kb"}, {"POST", "/api/kb/run"}, {"GET", "/metrics"},
				} {
					req, err := http.NewRequest(r.method, ts.URL+r.path, nil)
					if err != nil {
						t.Error(err)
						return
					}
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						t.Error(err)
						return
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("%s %s: status %d", r.method, r.path, resp.StatusCode)
					}
				}
			}
		}()
	}
	wg.Wait()
	var entries []entryInfo
	getJSON(t, ts.URL+"/api/kb", http.StatusOK, &entries)
	if want := 4 + writers*iters - int(removed.Load()); len(entries) != want || removed.Load() == 0 {
		t.Errorf("entries = %d after %d removals, want %d and some removals", len(entries), removed.Load(), want)
	}
}

// The benchmark's qGroup shape orders on the COUNT's alias: /api/sparql must
// return, plan by plan, the k most frequent operator types — counted here from
// the unordered, unlimited form of the same query.
func TestSPARQLGroupedTopKPerPlan(t *testing.T) {
	_, ts := testServer(t)
	const grouped = `PREFIX preduri: <http://optimatch/pred/>
SELECT ?type (COUNT(?pop) AS ?n) WHERE { ?pop preduri:hasPopType ?type . }
GROUP BY ?type`
	type row struct {
		typ string
		n   float64
	}
	perPlan := func(query string) (plans []string, rows map[string][]row) {
		var out struct {
			Matches []matchBody `json:"matches"`
		}
		postBody(t, ts.URL+"/api/sparql", query, http.StatusOK, &out)
		rows = make(map[string][]row)
		for _, m := range out.Matches {
			n, err := strconv.ParseFloat(m.Bindings["n"], 64)
			if err != nil {
				t.Fatalf("plan %s: count %q: %v", m.Plan, m.Bindings["n"], err)
			}
			if _, seen := rows[m.Plan]; !seen {
				plans = append(plans, m.Plan)
			}
			rows[m.Plan] = append(rows[m.Plan], row{m.Bindings["type"], n})
		}
		return plans, rows
	}

	plans, all := perPlan(grouped)
	_, top := perPlan(grouped + "\nORDER BY DESC(?n) ?type\nLIMIT 3")
	if len(plans) < 2 {
		t.Fatalf("%d plans answered", len(plans))
	}
	ranked := false
	for _, plan := range plans {
		want := all[plan]
		sort.Slice(want, func(a, b int) bool {
			if want[a].n != want[b].n {
				return want[a].n > want[b].n
			}
			return want[a].typ < want[b].typ
		})
		ranked = ranked || len(want) > 3 && want[0].n > want[len(want)-1].n
		if want = want[:min(3, len(want))]; !reflect.DeepEqual(top[plan], want) {
			t.Errorf("plan %s: top 3 %v, want %v", plan, top[plan], want)
		}
	}
	if !ranked {
		t.Error("no plan has more than 3 types of different frequency: the check is vacuous")
	}
}
