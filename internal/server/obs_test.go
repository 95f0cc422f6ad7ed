package server

import (
	"bytes"
	"encoding/json"
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

// metricValue extracts the value of one exposition line by exact series
// match ("name{labels}" or bare "name"), or -1 if absent. Label values may
// contain spaces, so match by prefix rather than cutting at the first space.
func metricValue(t *testing.T, exposition, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		value, ok := strings.CutPrefix(line, series+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("series %s has malformed value %q", series, value)
		}
		return v
	}
	return -1
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

	_, metrics := cacheReq(t, "GET", ts.URL+"/metrics", "", nil)
	plans := float64(len(fixtures.All()))
	for _, path := range []string{"all", "constant_bailout"} {
		if v := metricValue(t, metrics, `optimatch_sparql_eval_total{path="`+path+`"}`); v != plans {
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
	positive := []string{
		`optimatch_http_requests_total{route="POST /api/plans",method="POST",class="2xx"}`,
		`optimatch_http_request_seconds_count{route="POST /api/kb/run"}`,
		`optimatch_core_plan_match_seconds_count`,
		`optimatch_core_kb_scan_seconds_count`,
		`optimatch_core_search_seconds_count`,
		`optimatch_core_pool_tasks_total`,
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
		`optimatch_store_appended_records_total`,
		`optimatch_kb_entries`,
	}
	for _, series := range positive {
		if v := metricValue(t, out, series); v <= 0 {
			t.Errorf("series %s = %v, want > 0", series, v)
		}
	}
	// There is one evaluator: no series counts a second one.
	for _, gone := range []string{"specialized", "fallback"} {
		if v := metricValue(t, out, `optimatch_sparql_eval_total{path="`+gone+`"}`); v != -1 {
			t.Errorf(`optimatch_sparql_eval_total{path=%q} = %v, want the series absent`, gone, v)
		}
	}
	// The delete left 4 of 5 plans.
	if v := metricValue(t, out, "optimatch_core_plans_loaded"); v != 4 {
		t.Errorf("optimatch_core_plans_loaded = %v, want 4", v)
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

// TestStatsGainsObservabilityCounters pins the /api/stats body: the counter
// groups move, and nothing is served that counts what no longer exists.
func TestStatsGainsObservabilityCounters(t *testing.T) {
	_, ts := testServer(t)
	postBody(t, ts.URL+"/api/kb/run", "", http.StatusOK, nil)
	postBody(t, ts.URL+"/api/kb/run", "", http.StatusOK, nil)
	var stats statsBody
	getJSON(t, ts.URL+"/api/stats", http.StatusOK, &stats)
	if stats.Plans != 5 || stats.KBEntries != 4 {
		t.Errorf("plans or kbEntries wrong: %+v", stats)
	}
	if stats.Eval.Specialized == 0 || stats.Eval.JoinRows == 0 || stats.Eval.MatchRows == 0 {
		t.Errorf("eval.executions, eval.joinRows or eval.matchRows = 0 after kb/run: %+v", stats.Eval)
	}
	// No prefilter, no query cache, one evaluator and no per-predicate CSR:
	// their groups and counters are gone from the body, the execution count
	// is served under its own name.
	var raw struct {
		Prefilter, QueryCache json.RawMessage
		Eval                  map[string]json.RawMessage
	}
	getJSON(t, ts.URL+"/api/stats", http.StatusOK, &raw)
	if raw.Prefilter != nil || raw.QueryCache != nil {
		t.Errorf("legacy groups served: prefilter %s, queryCache %s", raw.Prefilter, raw.QueryCache)
	}
	for _, key := range []string{"specialized", "fallback"} {
		if _, ok := raw.Eval[key]; ok {
			t.Errorf("eval.%s served", key)
		}
	}
	if _, ok := raw.Eval["executions"]; !ok || strings.Contains(string(raw.Eval["path"]), "csrBuilds") {
		t.Errorf("eval = %v, want executions and no path.csrBuilds", raw.Eval)
	}
	// The canonical KB descendant patterns run closures.
	if p := stats.Eval.Path; p.MemoMisses == 0 || p.BFSSteps == 0 {
		t.Errorf("eval.path counters did not move: %+v", stats.Eval.Path)
	}
}
