package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"optimatch/internal/cache"
	"optimatch/internal/core"
	"optimatch/internal/fixtures"
	"optimatch/internal/kb"
	"optimatch/internal/obs"
	"optimatch/internal/qep"
	"optimatch/internal/rdf"
	"optimatch/internal/store"
)

// doReq issues one request and returns the status code.
func doReq(t *testing.T, method, url, body string) int {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

// TestStatusCodes pins the API's error contract across every failure class:
// oversized body -> 413, duplicate plan -> 409, unknown resource -> 404,
// invalid payload -> 422, durability failure -> 500.
func TestStatusCodes(t *testing.T) {
	eng := core.New()
	if err := eng.LoadPlans(fixtures.All()); err != nil {
		t.Fatal(err)
	}
	s := New(eng, nil, WithMaxBody(4<<10))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// A store-backed server whose store is closed under it: every durable
	// mutation hits store.ErrClosed, the 500 class.
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	closedTS := httptest.NewServer(New(st.Engine(), st.KB(), WithStore(st)).Handler())
	t.Cleanup(closedTS.Close)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	q2 := qep.Text(fixtures.All()[0])
	oversized := strings.Repeat("x", 8<<10)
	tests := []struct {
		name   string
		method string
		base   *httptest.Server
		path   string
		body   string
		want   int
	}{
		{"oversized plan upload", "POST", ts, "/api/plans", oversized, http.StatusRequestEntityTooLarge},
		{"oversized search", "POST", ts, "/api/search", oversized, http.StatusRequestEntityTooLarge},
		{"oversized sparql", "POST", ts, "/api/sparql", oversized, http.StatusRequestEntityTooLarge},
		{"oversized kb entry", "POST", ts, "/api/kb/entries", oversized, http.StatusRequestEntityTooLarge},
		{"duplicate plan", "POST", ts, "/api/plans", q2, http.StatusConflict},
		{"unknown plan delete", "DELETE", ts, "/api/plans/GHOST", "", http.StatusNotFound},
		{"unknown plan rdf", "GET", ts, "/api/plans/GHOST/rdf", "", http.StatusNotFound},
		{"unknown kb entry delete", "DELETE", ts, "/api/kb/entries/ghost", "", http.StatusNotFound},
		{"garbage plan", "POST", ts, "/api/plans", "not a plan", http.StatusUnprocessableEntity},
		{"garbage sparql", "POST", ts, "/api/sparql", "nonsense", http.StatusBadRequest},
		{"closed store upload", "POST", closedTS, "/api/plans", q2, http.StatusInternalServerError},
		{"closed store kb delete", "DELETE", closedTS, "/api/kb/entries/loj-both-sides", "", http.StatusInternalServerError},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := doReq(t, tc.method, tc.base.URL+tc.path, tc.body); got != tc.want {
				t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, got, tc.want)
			}
		})
	}
	// The oversized rejections must not have loaded anything.
	if got := eng.NumPlans(); got != len(fixtures.All()) {
		t.Errorf("plans after rejected uploads = %d", got)
	}
}

// TestDuplicatePlanConflictWithStore pins 409 on the durable path too — the
// same sentinel the optimatchd -load/-data restart loop keys on.
func TestDuplicatePlanConflictWithStore(t *testing.T) {
	_, ts := storeServer(t, t.TempDir())
	q2 := qep.Text(fixtures.All()[0])
	postBody(t, ts.URL+"/api/plans", q2, http.StatusCreated, nil)
	postBody(t, ts.URL+"/api/plans", q2, http.StatusConflict, nil)
	// 409 left the plan served and intact.
	var plans []planInfo
	getJSON(t, ts.URL+"/api/plans", http.StatusOK, &plans)
	if len(plans) != 1 {
		t.Errorf("plans after conflict = %d, want 1", len(plans))
	}
}

// TestPlanRDFServedFromEngineCache pins the /api/plans/{id}/rdf fix: the
// endpoint serves the engine's own transformed graph, so repeated GETs are
// byte-identical and match exactly what the matcher evaluates against.
func TestPlanRDFServedFromEngineCache(t *testing.T) {
	eng := core.New()
	if err := eng.LoadPlans(fixtures.All()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(eng, nil).Handler())
	t.Cleanup(ts.Close)

	get := func() []byte {
		resp, err := http.Get(ts.URL + "/api/plans/Q2/rdf")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	first, second := get(), get()
	if !bytes.Equal(first, second) {
		t.Error("repeated GETs returned different N-Triples")
	}
	// And they are the engine's graph, not a re-transformation.
	var engineGraph bytes.Buffer
	if err := rdf.WriteNTriples(&engineGraph, eng.Result("Q2").Graph); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, engineGraph.Bytes()) {
		t.Error("served RDF differs from the engine's cached graph")
	}
}

// metrics parses a text exposition into series ("name{labels}" or bare
// "name") → value. Label values may contain spaces, so a series ends at its
// line's last space.
func metrics(t *testing.T, exposition string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(exposition, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if i < 0 || err != nil {
			t.Fatalf("malformed exposition line %q", line)
		}
		out[line[:i]] = v
	}
	return out
}

// scrape reads GET /metrics of the server at base through metrics.
func scrape(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, body := cacheReq(t, "GET", base+"/metrics", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	return metrics(t, body)
}

// TestEvalBailoutMetric pins the evaluator's two series to exact values: a
// query whose required constant no plan contains is executed once per plan,
// and every execution bails out.
func TestEvalBailoutMetric(t *testing.T) {
	reg := obs.NewRegistry()
	eng := core.New()
	if err := eng.LoadPlans(fixtures.All()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(eng, nil, WithMetrics(reg)).Handler())
	t.Cleanup(ts.Close)
	postBody(t, ts.URL+"/api/sparql", `PREFIX preduri: <http://optimatch/pred/>
SELECT ?s WHERE { ?s preduri:hasPopType "NO_SUCH_TYPE" }`, http.StatusOK, nil)

	m := scrape(t, ts.URL)
	plans := float64(len(fixtures.All()))
	for _, path := range []string{"all", "constant_bailout"} {
		if v := m[`optimatch_sparql_eval_total{path="`+path+`"}`]; v != plans {
			t.Errorf("optimatch_sparql_eval_total{path=%q} = %v, want %v (one per plan)", path, v, plans)
		}
	}
}

// TestMetricsEndToEnd drives upload -> search -> kb/run -> delete against a
// fully instrumented store-backed server and asserts the counters and
// histograms of every layer moved, and that the exposition parses.
func TestMetricsEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	st, err := store.Open(dir,
		store.WithEngineOptions(core.WithInstrumentation(EngineInstrumentation(reg))),
		store.WithInstrumentation(StoreInstrumentation(reg)),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	ts := httptest.NewServer(New(st.Engine(), st.KB(), WithStore(st), WithMetrics(reg)).Handler())
	t.Cleanup(ts.Close)

	for _, p := range fixtures.All() {
		postBody(t, ts.URL+"/api/plans", qep.Text(p), http.StatusCreated, nil)
	}
	query := `PREFIX preduri: <http://optimatch/pred/>
SELECT ?s WHERE { ?s preduri:hasPopType "SORT" }`
	postBody(t, ts.URL+"/api/sparql", query, http.StatusOK, nil)
	postBody(t, ts.URL+"/api/kb/run", "", http.StatusOK, nil)
	doDelete(t, ts.URL+"/api/plans/Q9", http.StatusOK)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)

	// Every non-comment line must be valid exposition format.
	// Label values may themselves contain spaces and braces (route patterns
	// like "DELETE /api/plans/{id}"), so the label block is matched greedily.
	line := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.+\})? -?[0-9+.eInf-]+$`)
	for _, l := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if l == "" || strings.HasPrefix(l, "#") {
			continue
		}
		if !line.MatchString(l) {
			t.Errorf("malformed exposition line: %q", l)
		}
	}

	// One series per layer must have moved: HTTP, core scan stages, sparql
	// evaluator (its required-constant bail-out included: some fixture plan
	// lacks a constant some canonical entry requires), store.
	m := metrics(t, out)
	positive := []string{
		`optimatch_http_requests_total{route="POST /api/plans",method="POST",class="2xx"}`,
		`optimatch_http_request_seconds_count{route="POST /api/kb/run"}`,
		`optimatch_core_plan_match_seconds_count`,
		`optimatch_core_kb_scan_seconds_count`,
		`optimatch_core_search_seconds_count`,
		`optimatch_core_plans_loaded`,
		`optimatch_sparql_eval_total{path="all"}`,
		// A cold kb/run joins: every evaluated pair runs patterns on rows and
		// tries their matches.
		`optimatch_sparql_join_rows_total`,
		`optimatch_sparql_match_rows_total`,
		// The canonical KB patterns use descendant (`hasChildPop+`) paths,
		// so a kb/run must run closure BFS walks.
		`optimatch_sparql_path_total{kind="memo_miss"}`,
		`optimatch_sparql_path_bfs_steps_total`,
		`optimatch_sparql_path_bitset_bytes_total`,
		`optimatch_sparql_eval_total{path="constant_bailout"}`,
		`optimatch_store_wal_fsync_seconds_count`,
		`optimatch_kb_entries`,
	}
	for _, series := range positive {
		if v := m[series]; v <= 0 {
			t.Errorf("series %s = %v, want > 0", series, v)
		}
	}
	// There is one evaluator: no series counts a second one.
	for _, gone := range []string{"specialized", "fallback"} {
		if v, ok := m[`optimatch_sparql_eval_total{path="`+gone+`"}`]; ok {
			t.Errorf(`optimatch_sparql_eval_total{path=%q} = %v, want the series absent`, gone, v)
		}
	}
	// The delete left 4 of 5 plans; the store opened with the canonical 4
	// entries.
	if v, k := m["optimatch_core_plans_loaded"], m["optimatch_kb_entries"]; v != 4 || k != 4 {
		t.Errorf("optimatch_core_plans_loaded = %v, optimatch_kb_entries = %v, want 4 and 4", v, k)
	}
	// The engine has no prefilter and no shards to report on.
	for _, family := range []string{
		"optimatch_core_prefilter_probe_seconds",
		"optimatch_core_prefilter_pairs_total",
		"optimatch_core_prefilter_shard_skips_total",
		"optimatch_core_shard_plans",
		"optimatch_core_shard_generation",
	} {
		if strings.Contains(out, family) {
			t.Errorf("metric family %s is still exposed", family)
		}
	}

	// Request IDs are minted and echoed.
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.Header.Get("X-Request-ID") == "" {
		t.Error("response missing X-Request-ID")
	}
}

// TestAccessLogAndSlowRequests asserts the middleware writes one structured
// line per request and a WARN line past the slow threshold.
func TestAccessLogAndSlowRequests(t *testing.T) {
	var buf syncBuffer // the line is logged after the handler returns, possibly after the client has its answer
	log := obs.NewLogger(&buf, 0 /* info */, "json")
	eng := core.New()
	if err := eng.LoadPlans(fixtures.All()); err != nil {
		t.Fatal(err)
	}
	// Threshold of 0 disables slow logging; 1ns flags everything.
	ts := httptest.NewServer(New(eng, nil, WithLogger(log), WithSlowThreshold(1),
		WithResultCache(cache.New(cache.Config{MaxBytes: 1 << 20}))).Handler())
	t.Cleanup(ts.Close)

	getJSON(t, ts.URL+"/api/plans", http.StatusOK, nil)
	out := buf.String()
	for _, want := range []string{
		`"msg":"request"`, `"route":"GET /api/plans"`, `"status":200`, `"request_id"`,
		`"msg":"slow request"`, `"level":"WARN"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("access log missing %s:\n%s", want, out)
		}
	}
	if strings.Contains(out, `"cache"`) {
		t.Errorf("a route with no X-Cache logged a cache outcome:\n%s", out)
	}
	// Both lines of a read say what the response cache did with it.
	for _, tc := range []struct {
		hdr  map[string]string
		want string
	}{{nil, "miss"}, {nil, "hit"}, {map[string]string{"Cache-Control": "no-cache"}, "bypass"}} {
		logged := len(buf.String())
		if resp, _ := cacheReq(t, "POST", ts.URL+"/api/sparql", sortQuery, tc.hdr); resp.Header.Get("X-Cache") != tc.want {
			t.Fatalf("X-Cache = %q, want %s", resp.Header.Get("X-Cache"), tc.want)
		}
		waitFor(t, func() bool { return strings.Count(buf.String()[logged:], "\n") == 2 })
		for _, line := range strings.Split(strings.TrimSpace(buf.String()[logged:]), "\n") {
			if !strings.Contains(line, `"cache":"`+tc.want+`"`) {
				t.Errorf("log line missing cache=%s: %s", tc.want, line)
			}
		}
	}
	// Client-supplied request IDs are honored end to end.
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "client-abc-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "client-abc-123" {
		t.Errorf("X-Request-ID = %q, want client-abc-123", got)
	}
	if !strings.Contains(buf.String(), `"request_id":"client-abc-123"`) {
		t.Error("client request ID missing from access log")
	}
}

// TestStatsGainsObservabilityCounters pins the statistics a memory-backed
// server exports on /metrics: the counter groups move, and nothing is served
// that counts what no longer exists.
func TestStatsGainsObservabilityCounters(t *testing.T) {
	eng := core.New()
	if err := eng.LoadPlans(fixtures.All()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(eng, nil, WithMetrics(obs.NewRegistry())).Handler())
	t.Cleanup(ts.Close)
	postBody(t, ts.URL+"/api/kb/run", "", http.StatusOK, nil)
	postBody(t, ts.URL+"/api/kb/run", "", http.StatusOK, nil)
	m := scrape(t, ts.URL)
	if m["optimatch_core_plans_loaded"] != 5 || m["optimatch_kb_entries"] != 4 {
		t.Errorf("plans loaded %v, kb entries %v; want 5 and 4", m["optimatch_core_plans_loaded"], m["optimatch_kb_entries"])
	}
	// Executions, join rows and match rows move on kb/run; the canonical KB
	// descendant patterns run closures.
	for _, series := range []string{
		`optimatch_sparql_eval_total{path="all"}`,
		"optimatch_sparql_join_rows_total",
		"optimatch_sparql_match_rows_total",
		`optimatch_sparql_path_total{kind="memo_miss"}`,
		"optimatch_sparql_path_bfs_steps_total",
	} {
		if v := m[series]; v <= 0 {
			t.Errorf("series %s = %v, want > 0 after kb/run", series, v)
		}
	}
	// No prefilter, no query cache, one evaluator and no per-predicate CSR:
	// no series counts them.
	for series := range m {
		for _, gone := range []string{"prefilter", "query_cache", "csr", `path="specialized"`, `path="fallback"`} {
			if strings.Contains(series, gone) {
				t.Errorf("%s exported", series)
			}
		}
	}
}

// TestKBPairsSkippedMetric runs kb/run over a knowledge base holding a family:
// pattern A and two variants with tighter inner thresholds, which pattern A
// contains. On a plan where pattern A finds nothing neither variant is
// evaluated, and optimatch_kb_pairs_skipped_total counts them.
func TestKBPairsSkippedMetric(t *testing.T) {
	reg := obs.NewRegistry()
	eng := core.New()
	if err := eng.LoadPlans(fixtures.All()); err != nil {
		t.Fatal(err)
	}
	k := kb.MustCanonical()
	for _, inner := range []float64{200, 5000} {
		if _, err := k.Add(variantA(fmt.Sprintf("nljoin-inner-tbscan-over-%v", inner), inner), kb.Recommendation{Title: "t", Template: "index @BASE4"}); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(New(eng, k, WithMetrics(reg)).Handler())
	t.Cleanup(ts.Close)

	postBody(t, ts.URL+"/api/kb/run", "", http.StatusOK, nil)
	m := scrape(t, ts.URL)
	skipped := m["optimatch_kb_pairs_skipped_total"]
	if skipped <= 0 || skipped != float64(eng.KBPairsSkipped()) {
		t.Errorf("optimatch_kb_pairs_skipped_total = %v after kb/run, the engine counts %d; want them equal and > 0", skipped, eng.KBPairsSkipped())
	}
	pairs := float64(len(fixtures.All()) * k.Len())
	if all := m[`optimatch_sparql_eval_total{path="all"}`]; all+skipped != pairs {
		t.Errorf("%v pairs evaluated and %v skipped, want %v in all", all, skipped, pairs)
	}
}

// TestHTTPMethodLabelBounded: a method outside the standard nine is the
// client's own token, and 1 000 of them add one series, labelled OTHER.
func TestHTTPMethodLabelBounded(t *testing.T) {
	reg := obs.NewRegistry()
	eng := core.New()
	h := New(eng, nil, WithMetrics(reg)).Handler()
	series := func() (n int, exposition string) {
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(b.String(), "\n") {
			if strings.HasPrefix(line, "optimatch_http_requests_total{") {
				n++
			}
		}
		return n, b.String()
	}
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/healthz", nil))
	before, _ := series()
	for i := 0; i < 1000; i++ {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(fmt.Sprintf("INVENTED%d", i), "/healthz", nil))
	}
	after, exposition := series()
	if after != before+1 {
		t.Errorf("1000 invented methods added %d series, want 1", after-before)
	}
	if v := metrics(t, exposition)[`optimatch_http_requests_total{route="unrouted",method="OTHER",class="4xx"}`]; v != 1000 {
		t.Errorf("OTHER series = %v, want 1000:\n%s", v, exposition)
	}
}
