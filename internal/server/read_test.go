package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"optimatch/internal/cache"
	"optimatch/internal/core"
	"optimatch/internal/fixtures"
	"optimatch/internal/obs"
	"optimatch/internal/pattern"
)

// TestSearchSpellingsShareEntry: /api/search is keyed on the canonical
// pattern document, so every spelling of one pattern is one cache entry —
// and a pattern that differs only in its name is another, because the name
// is echoed in the body.
func TestSearchSpellingsShareEntry(t *testing.T) {
	_, ts, _ := cachedTestServer(t)
	data, err := pattern.A().ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]interface{}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	marshal := func(v interface{}) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	// A map marshals its keys sorted and without whitespace: both differ
	// from the struct order and the indent ToJSON wrote.
	reordered := marshal(doc)
	if reordered == string(data) || !strings.Contains(reordered, `"value":100`) {
		t.Fatalf("reordered spelling is not a different spelling of pattern A: %s", reordered)
	}
	if _, ok := doc["planDetails"]; !ok {
		t.Fatal("ToJSON no longer writes planDetails; the omitted-vs-empty case tests nothing")
	}
	delete(doc, "planDetails")
	omitted := marshal(doc)

	resp, first := cacheReq(t, "POST", ts.URL+"/api/search", string(data), nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first request: status %d, X-Cache %q, want 200 miss", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	for name, body := range map[string]string{
		"reordered keys, no whitespace": reordered,
		"extra whitespace":              " \n\t" + strings.ReplaceAll(string(data), "\n", "\n\n \t") + "\n ",
		"planDetails omitted":           omitted,
		"1e2 for 100":                   strings.Replace(reordered, `"value":100`, `"value":1e2`, 1),
	} {
		resp, got := cacheReq(t, "POST", ts.URL+"/api/search", body, nil)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
			t.Errorf("%s: status %d, X-Cache %q, want 200 hit", name, resp.StatusCode, resp.Header.Get("X-Cache"))
		}
		if got != first {
			t.Errorf("%s: body differs from the first response", name)
		}
	}

	doc["name"] = "another-name"
	resp, renamed := cacheReq(t, "POST", ts.URL+"/api/search", marshal(doc), nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("renamed pattern: status %d, X-Cache %q, want 200 miss", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if !strings.Contains(renamed, `"pattern": "another-name"`) {
		t.Fatalf("renamed pattern's body does not echo its name: %.200s", renamed)
	}
}

// TestSPARQLSpellingsShareEntry: /api/sparql is keyed on the canonical query
// — the parsed query printed again — so every spelling of one query is one
// cache entry, and another FILTER threshold is another. A syntax error
// answers 400 without asking the cache.
func TestSPARQLSpellingsShareEntry(t *testing.T) {
	_, ts, c := cachedTestServer(t)
	query := func(threshold string) string {
		return "PREFIX preduri: <http://optimatch/pred/>\n" +
			"SELECT ?pop ?card WHERE { ?pop preduri:hasPopType \"TBSCAN\" . ?pop preduri:hasEstimateCardinality ?card . FILTER(?card > " + threshold + ") }"
	}
	resp, first := cacheReq(t, "POST", ts.URL+"/api/sparql", query("100"), nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first request: status %d, X-Cache %q, want 200 miss", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if !strings.Contains(first, `"plan"`) {
		t.Fatalf("the query matches nothing; the spellings compare empty bodies: %s", first)
	}
	for name, body := range map[string]string{
		"full IRIs": `SELECT ?pop ?card WHERE { ?pop <http://optimatch/pred/hasPopType> "TBSCAN" . ` +
			`?pop <http://optimatch/pred/hasEstimateCardinality> ?card . FILTER(?card > 100) }`,
		"keyword case":            strings.NewReplacer("SELECT", "select", "WHERE", "Where", "FILTER", "filter", "PREFIX", "prefix").Replace(query("100")),
		"whitespace and comments": "# the same query\n" + strings.ReplaceAll(query("100"), " ", "\n\t  # a comment\n "),
		"$ variables":             strings.ReplaceAll(query("100"), "?", "$"),
	} {
		resp, got := cacheReq(t, "POST", ts.URL+"/api/sparql", body, nil)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
			t.Errorf("%s: status %d, X-Cache %q, want 200 hit", name, resp.StatusCode, resp.Header.Get("X-Cache"))
		}
		if got != first {
			t.Errorf("%s: body differs from the first response", name)
		}
	}

	resp, _ = cacheReq(t, "POST", ts.URL+"/api/sparql", query("1000"), nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("another threshold: status %d, X-Cache %q, want 200 miss", resp.StatusCode, resp.Header.Get("X-Cache"))
	}

	before := c.Stats()
	for _, body := range []string{query("100") + " }", "", " \n"} {
		if resp, _ := cacheReq(t, "POST", ts.URL+"/api/sparql", body, nil); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%q: status %d, want 400", body, resp.StatusCode)
		}
	}
	if after := c.Stats(); after.Misses != before.Misses || after.Collapsed != before.Collapsed || after.Hits != before.Hits {
		t.Errorf("syntax errors moved the cache: %+v, then %+v", before, after)
	}
}

// readCase names one of the four read routes and a request it answers 200.
type readCase struct {
	name     string
	route    func(*Server) readRoute
	method   string
	path     string // on the mux, with id filled in
	body     string // the good body
	badBody  string // a body parse refuses ("" when the route reads none)
	id       string // {id} path value
	badID    string // an {id} parse refuses
	parseErr int
	fallback int
}

func readCases(t *testing.T) []readCase {
	t.Helper()
	data, err := pattern.A().ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	return []readCase{
		{name: "search", route: (*Server).searchRoute, method: "POST", path: "/api/search", body: string(data), badBody: "{",
			parseErr: http.StatusUnprocessableEntity, fallback: http.StatusUnprocessableEntity},
		{name: "sparql", route: (*Server).sparqlRoute, method: "POST", path: "/api/sparql", body: sortQuery, badBody: " \n",
			parseErr: http.StatusBadRequest, fallback: http.StatusUnprocessableEntity},
		{name: "kbrun", route: (*Server).runKBRoute, method: "POST", path: "/api/kb/run",
			fallback: http.StatusInternalServerError},
		{name: "rdf", route: (*Server).planRDFRoute, method: "GET", path: "/api/plans/Q2/rdf", id: "Q2", badID: "GHOST",
			parseErr: http.StatusNotFound, fallback: http.StatusInternalServerError},
	}
}

// TestReadPathPrecedence pins, for each of the four read routes, the order
// in which serveRead's steps fail: every request below carries all the faults
// of the later steps too, and the earliest one must answer. Render failures
// are injected by swapping the closure the route's own parse returned.
func TestReadPathPrecedence(t *testing.T) {
	const maxBody = 4 << 10
	oversized := strings.Repeat("x", 2*maxBody)
	for _, rc := range readCases(t) {
		t.Run(rc.name, func(t *testing.T) {
			// drive runs one request (or the same one times over) through
			// serveRead on a fresh server; renderErr, when set, replaces the
			// route's render.
			type fault struct {
				body, id   string
				badTimeout bool
				renderErr  error
				hangUp     bool // the client's context is cancelled
				shutdown   bool // the server's base context is cancelled
				times      int
			}
			drive := func(f fault) (*httptest.ResponseRecorder, int64) {
				eng := core.New()
				if err := eng.LoadPlans(fixtures.All()); err != nil {
					t.Fatal(err)
				}
				base, stop := context.WithCancel(context.Background())
				defer stop()
				s := New(eng, nil, WithMaxBody(maxBody), WithBaseContext(base),
					WithResultCache(cache.New(cache.Config{MaxBytes: 1 << 20})))
				if f.shutdown {
					stop()
				}
				var renders atomic.Int64
				rt := rc.route(s)
				parse := rt.parse
				rt.parse = func(r *http.Request, body []byte) (string, renderFunc, error) {
					part, render, err := parse(r, body)
					if err != nil || f.renderErr == nil {
						return part, render, err
					}
					return part, func(context.Context, *bytes.Buffer) error {
						renders.Add(1)
						return f.renderErr
					}, nil
				}
				var rec *httptest.ResponseRecorder
				for i := 0; i < max(f.times, 1); i++ {
					req := httptest.NewRequest(rc.method, "/", strings.NewReader(f.body))
					req.SetPathValue("id", f.id)
					if f.badTimeout {
						req.Header.Set("X-Timeout-Ms", "soon")
					}
					if f.hangUp {
						ctx, cancel := context.WithCancel(req.Context())
						cancel()
						req = req.WithContext(ctx)
					}
					rec = httptest.NewRecorder()
					s.serveRead(rt)(rec, req)
					if got := rec.Header().Get("ETag"); got != "" && rec.Code != http.StatusOK {
						t.Errorf("status %d carries ETag %q", rec.Code, got)
					}
					if got := rec.Header().Get("X-Cache"); got != "" && rec.Code != http.StatusOK {
						t.Errorf("status %d carries X-Cache %q", rec.Code, got)
					}
				}
				return rec, renders.Load()
			}
			boom := errors.New("boom")

			if rc.badBody != "" {
				if rec, _ := drive(fault{body: oversized, badTimeout: true, renderErr: boom}); rec.Code != http.StatusRequestEntityTooLarge {
					t.Errorf("oversized body, bad deadline, failing render: status %d, want 413", rec.Code)
				}
			}
			if rc.parseErr != 0 {
				if rec, _ := drive(fault{body: rc.badBody, id: rc.badID, badTimeout: true, renderErr: boom}); rec.Code != rc.parseErr {
					t.Errorf("parse error, bad deadline, failing render: status %d, want %d", rec.Code, rc.parseErr)
				}
			}
			if rec, n := drive(fault{body: rc.body, id: rc.id, badTimeout: true, renderErr: boom}); rec.Code != http.StatusBadRequest || n != 0 {
				t.Errorf("bad deadline, failing render: status %d after %d renders, want 400 after none", rec.Code, n)
			}
			for _, tc := range []struct {
				name string
				f    fault
				want int
			}{
				{"deadline", fault{renderErr: context.DeadlineExceeded}, http.StatusGatewayTimeout},
				{"client gone", fault{renderErr: context.Canceled, hangUp: true}, StatusClientClosedRequest},
				{"shutdown", fault{renderErr: context.Canceled, shutdown: true}, http.StatusServiceUnavailable},
				{"fallback", fault{renderErr: boom}, rc.fallback},
			} {
				tc.f.body, tc.f.id, tc.f.times = rc.body, rc.id, 2
				rec, n := drive(tc.f)
				if rec.Code != tc.want {
					t.Errorf("%s: status %d, want %d", tc.name, rec.Code, tc.want)
				}
				// An error is never stored: the same failing request executes
				// again. (A client that is already gone may be answered
				// before its render is scheduled.)
				if !tc.f.hangUp && n != 2 {
					t.Errorf("%s: %d renders for 2 identical failing requests, want 2", tc.name, n)
				}
			}
			if rec, _ := drive(fault{body: rc.body, id: rc.id}); rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "miss" {
				t.Errorf("no fault: status %d, X-Cache %q, want 200 miss", rec.Code, rec.Header().Get("X-Cache"))
			}
		})
	}
}

// TestMalformedTimeoutOnEveryReadRoute: the deadline covers all four routes,
// /rdf included, so a malformed X-Timeout-Ms is a 400 naming the header on
// each, through the whole handler stack.
func TestMalformedTimeoutOnEveryReadRoute(t *testing.T) {
	_, ts, _ := cachedTestServer(t)
	for _, rc := range readCases(t) {
		resp, body := cacheReq(t, rc.method, ts.URL+rc.path, rc.body, map[string]string{"X-Timeout-Ms": "abc"})
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, "X-Timeout-Ms") {
			t.Errorf("%s: status %d, body %q, want 400 naming X-Timeout-Ms", rc.name, resp.StatusCode, body)
		}
	}
}

// TestBypassOnEveryReadRoute: Cache-Control: no-cache re-executes on each of
// the four routes and says so, through the whole handler stack.
func TestBypassOnEveryReadRoute(t *testing.T) {
	_, ts, c := cachedTestServer(t)
	for _, rc := range readCases(t) {
		for _, directive := range []map[string]string{{"Cache-Control": "no-cache"}, {"Cache-Control": "no-store"}, {"Pragma": "no-cache"}} {
			resp, _ := cacheReq(t, rc.method, ts.URL+rc.path, rc.body, directive)
			if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "bypass" {
				t.Errorf("%s %v: status %d, X-Cache %q, want 200 bypass", rc.name, directive, resp.StatusCode, resp.Header.Get("X-Cache"))
			}
		}
	}
	if st := c.Stats(); st.Hits+st.Misses != 0 {
		t.Errorf("bypassed requests touched the cache: %+v", st)
	}
}

// TestValidatorOnlyOnBodySent: a validator describes a body that was sent
// (200) or could have been (304) — a render that fails leaves none behind.
func TestValidatorOnlyOnBodySent(t *testing.T) {
	s, _, _ := cachedTestServer(t)
	const tag = `"v1"`
	route := func(render renderFunc) readRoute {
		return readRoute{
			name: "test.validator", contentType: "text/plain", fallback: http.StatusInternalServerError,
			validator: func(string, uint64) string { return tag },
			parse:     func(*http.Request, []byte) (string, renderFunc, error) { return "k", render, nil },
		}
	}
	for _, tc := range []struct {
		name   string
		err    error
		hangUp bool
		want   int
	}{
		{"plain error", errors.New("boom"), false, http.StatusInternalServerError},
		{"deadline", context.DeadlineExceeded, false, http.StatusGatewayTimeout},
		{"cancelled", context.Canceled, true, StatusClientClosedRequest},
	} {
		req := httptest.NewRequest("GET", "/", nil)
		if tc.hangUp {
			ctx, cancel := context.WithCancel(req.Context())
			cancel()
			req = req.WithContext(ctx)
		}
		rec := httptest.NewRecorder()
		s.serveRead(route(func(context.Context, *bytes.Buffer) error { return tc.err }))(rec, req)
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, rec.Code, tc.want)
		}
		if got := rec.Header().Get("ETag"); got != "" {
			t.Errorf("%s: status %d carries ETag %q", tc.name, rec.Code, got)
		}
	}

	ok := s.serveRead(route(func(_ context.Context, buf *bytes.Buffer) error {
		buf.WriteString("body")
		return nil
	}))
	rec := httptest.NewRecorder()
	ok(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != http.StatusOK || rec.Header().Get("ETag") != tag || rec.Body.String() != "body" {
		t.Errorf("200: status %d, ETag %q, body %q", rec.Code, rec.Header().Get("ETag"), rec.Body)
	}
	req := httptest.NewRequest("GET", "/", nil)
	req.Header.Set("If-None-Match", tag)
	rec = httptest.NewRecorder()
	ok(rec, req)
	if rec.Code != http.StatusNotModified || rec.Header().Get("ETag") != tag || rec.Body.Len() != 0 {
		t.Errorf("304: status %d, ETag %q, %d body bytes", rec.Code, rec.Header().Get("ETag"), rec.Body.Len())
	}
}

// TestRenderPanicDropsOnlyItsConnection: a render that panics on a worker of
// Engine.Parallel, under the response cache's flight goroutine, reaches the
// handler's goroutine, where net/http recovers it and closes that one
// connection. The daemon keeps serving, and neither in-flight gauge keeps the
// dead request.
func TestRenderPanicDropsOnlyItsConnection(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(core.New(core.WithWorkers(4)), nil, WithMetrics(reg), WithResultCache(cache.New(cache.Config{MaxBytes: 1 << 20})))
	mux := http.NewServeMux()
	mux.HandleFunc("POST /boom", s.gated(1, s.serveRead(readRoute{
		name: "http.boom", contentType: "text/plain", fallback: http.StatusInternalServerError,
		parse: func(*http.Request, []byte) (string, renderFunc, error) {
			return "", func(context.Context, *bytes.Buffer) error {
				s.eng.Parallel(8, func(i int) {
					if i == 3 {
						panic("render broke")
					}
				})
				return nil
			}, nil
		},
	})))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) })
	s.registerStateMetrics()
	serverLog := make(logLines, 16) // room for every line the server logs here, read or not
	ts := httptest.NewUnstartedServer(s.withObservability(mux))
	ts.Config.ErrorLog = log.New(serverLog, "", 0)
	ts.Start()
	defer ts.Close()

	if resp, err := http.Post(ts.URL+"/boom", "text/plain", nil); err == nil {
		resp.Body.Close()
		t.Fatalf("POST /boom answered %d, want the connection dropped", resp.StatusCode)
	}
	if line := <-serverLog; !strings.Contains(line, "panic serving") || !strings.Contains(line, "render broke") {
		t.Errorf("net/http logged %q, want the recovered panic", line)
	}
	if resp, _ := cacheReq(t, "GET", ts.URL+"/healthz", "", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz after the panic: status %d", resp.StatusCode)
	}
	var out strings.Builder
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	m := metrics(t, out.String())
	for _, gauge := range []string{"optimatch_http_in_flight", "optimatch_exec_in_flight"} {
		if v, ok := m[gauge]; !ok || v != 0 {
			t.Errorf("%s = %v after the panic, want 0", gauge, v)
		}
	}
}

// logLines is a log destination that hands each line to the test goroutine.
type logLines chan string

func (l logLines) Write(p []byte) (int, error) {
	l <- string(p)
	return len(p), nil
}
