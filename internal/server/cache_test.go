package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"optimatch/internal/cache"
	"optimatch/internal/core"
	"optimatch/internal/fixtures"
	"optimatch/internal/kb"
	"optimatch/internal/obs"
	"optimatch/internal/pattern"
	"optimatch/internal/qep"
)

const sortQuery = `PREFIX preduri: <http://optimatch/pred/>
SELECT ?s WHERE { ?s preduri:hasPopType "SORT" }`

// cachedTestServer builds a server with a response cache, mirroring the
// optimatchd wiring.
func cachedTestServer(t *testing.T, opts ...Option) (*Server, *httptest.Server, *cache.Cache) {
	t.Helper()
	c := cache.New(cache.Config{MaxBytes: 16 << 20})
	eng := core.New()
	if err := eng.LoadPlans(fixtures.All()); err != nil {
		t.Fatal(err)
	}
	s := New(eng, nil, append([]Option{WithResultCache(c)}, opts...)...)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, c
}

// cacheReq issues one request and returns the response (body fully read
// into a string, connection closed).
func cacheReq(t *testing.T, method, url, body string, hdr map[string]string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

func TestXCacheMissThenHit(t *testing.T) {
	_, ts, _ := cachedTestServer(t)

	resp, first := cacheReq(t, "POST", ts.URL+"/api/sparql", sortQuery, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first X-Cache = %q, want miss", got)
	}
	resp, second := cacheReq(t, "POST", ts.URL+"/api/sparql", sortQuery, nil)
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second X-Cache = %q, want hit", got)
	}
	if first != second {
		t.Fatalf("cached body differs:\n%s\nvs\n%s", first, second)
	}
}

func TestXCacheBypassHeader(t *testing.T) {
	_, ts, c := cachedTestServer(t)

	noCache := map[string]string{"Cache-Control": "no-cache"}
	resp, first := cacheReq(t, "POST", ts.URL+"/api/sparql", sortQuery, noCache)
	if got := resp.Header.Get("X-Cache"); got != "bypass" {
		t.Fatalf("X-Cache = %q, want bypass", got)
	}
	if st := c.Stats(); st.Hits+st.Misses != 0 {
		t.Fatalf("bypassed request touched the cache: %+v", st)
	}
	// The bypass is per-request: the next plain request misses, executes
	// and returns the same bytes.
	resp, second := cacheReq(t, "POST", ts.URL+"/api/sparql", sortQuery, nil)
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("X-Cache = %q, want miss", got)
	}
	if first != second {
		t.Fatal("bypassed and cached bodies differ")
	}
}

// Without ORDER BY the rows of a response are still a function of the loaded
// plans alone (rdf.Graph.Match iterates in an order fixed by each graph's Add
// sequence), so at one generation every execution of a body renders the same
// bytes, and a cache hit is indistinguishable from executing again.
func TestUnorderedResponseIsByteStable(t *testing.T) {
	_, ts, _ := cachedTestServer(t)
	const query = `PREFIX preduri: <http://optimatch/pred/>
SELECT ?pop ?t ?c WHERE { ?pop preduri:hasPopType ?t . ?pop preduri:hasEstimateCardinality ?c }`

	noCache := map[string]string{"Cache-Control": "no-cache"}
	_, first := cacheReq(t, "POST", ts.URL+"/api/sparql", query, noCache)
	if !strings.Contains(first, "TBSCAN") {
		t.Fatalf("query matched nothing worth comparing: %s", first)
	}
	for i := 0; i < 5; i++ {
		resp, again := cacheReq(t, "POST", ts.URL+"/api/sparql", query, noCache)
		if got := resp.Header.Get("X-Cache"); got != "bypass" {
			t.Fatalf("X-Cache = %q, want bypass", got)
		}
		if again != first {
			t.Fatalf("execution %d of one body at one generation rendered other bytes:\n%s\nvs\n%s", i+2, first, again)
		}
	}
	cacheReq(t, "POST", ts.URL+"/api/sparql", query, nil) // miss: fills the cache
	resp, hit := cacheReq(t, "POST", ts.URL+"/api/sparql", query, nil)
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("X-Cache = %q, want hit", got)
	}
	if hit != first {
		t.Fatal("cache hit differs from the uncached executions")
	}
}

// A server without WithResultCache still answers, reporting bypass.
func TestXCacheDisabled(t *testing.T) {
	_, ts := testServer(t)
	resp, _ := cacheReq(t, "POST", ts.URL+"/api/sparql", sortQuery, nil)
	if got := resp.Header.Get("X-Cache"); got != "bypass" {
		t.Fatalf("X-Cache = %q, want bypass with no cache configured", got)
	}
}

func TestSearchCached(t *testing.T) {
	_, ts, _ := cachedTestServer(t)
	data, err := pattern.A().ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	body := string(data)

	resp, first := cacheReq(t, "POST", ts.URL+"/api/search", body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, first)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first X-Cache = %q, want miss", got)
	}
	resp, second := cacheReq(t, "POST", ts.URL+"/api/search", body, nil)
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second X-Cache = %q, want hit", got)
	}
	if first != second {
		t.Fatal("cached search body differs")
	}
}

func TestKBRunCachedAndInvalidatedByPlanMutation(t *testing.T) {
	s, ts, _ := cachedTestServer(t)

	resp, first := cacheReq(t, "POST", ts.URL+"/api/kb/run", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first X-Cache = %q, want miss", got)
	}
	resp, second := cacheReq(t, "POST", ts.URL+"/api/kb/run", "", nil)
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second X-Cache = %q, want hit", got)
	}
	if first != second {
		t.Fatal("cached kb/run body differs")
	}

	// A plan mutation bumps the generation: the old entry is orphaned and
	// the next run misses.
	if err := s.eng.LoadPlans([]*qep.Plan{fixtures.Renamed(fixtures.Clean(), "CACHE-X")}); err != nil {
		t.Fatal(err)
	}
	resp, _ = cacheReq(t, "POST", ts.URL+"/api/kb/run", "", nil)
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("post-mutation X-Cache = %q, want miss", got)
	}
}

func TestPlanRDFETag(t *testing.T) {
	s, ts, _ := cachedTestServer(t)

	resp, body := cacheReq(t, "GET", ts.URL+"/api/plans/Q2/rdf", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" || !strings.HasPrefix(etag, `"qep-`) {
		t.Fatalf("ETag = %q", etag)
	}
	if resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("X-Cache = %q, want miss", resp.Header.Get("X-Cache"))
	}
	if !strings.Contains(body, "http://optimatch/") {
		t.Fatalf("N-Triples body looks wrong: %.100s", body)
	}

	// Revalidation: matching If-None-Match answers 304 with no body.
	resp, body = cacheReq(t, "GET", ts.URL+"/api/plans/Q2/rdf", "", map[string]string{"If-None-Match": etag})
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("status = %d, want 304", resp.StatusCode)
	}
	if body != "" {
		t.Fatalf("304 carried a body: %q", body)
	}
	if resp.Header.Get("ETag") != etag {
		t.Fatalf("304 ETag = %q, want %q", resp.Header.Get("ETag"), etag)
	}
	// Wildcard and list forms match too; weak comparison accepted.
	for _, h := range []string{"*", `"other", ` + etag, "W/" + etag} {
		resp, _ = cacheReq(t, "GET", ts.URL+"/api/plans/Q2/rdf", "", map[string]string{"If-None-Match": h})
		if resp.StatusCode != http.StatusNotModified {
			t.Fatalf("If-None-Match %q: status = %d, want 304", h, resp.StatusCode)
		}
	}

	// A generation bump changes the validator: the old tag revalidates as
	// a full 200 with a new ETag, served from a fresh cache entry.
	if err := s.eng.LoadPlans([]*qep.Plan{fixtures.Renamed(fixtures.Clean(), "ETAG-X")}); err != nil {
		t.Fatal(err)
	}
	resp, _ = cacheReq(t, "GET", ts.URL+"/api/plans/Q2/rdf", "", map[string]string{"If-None-Match": etag})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-mutation status = %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("ETag"); got == etag || got == "" {
		t.Fatalf("post-mutation ETag = %q, want a new tag", got)
	}

	// Second GET at the new generation is a cache hit with identical bytes.
	resp2, bodyA := cacheReq(t, "GET", ts.URL+"/api/plans/Q2/rdf", "", nil)
	if resp2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("X-Cache = %q, want hit", resp2.Header.Get("X-Cache"))
	}
	respB, bodyB := cacheReq(t, "GET", ts.URL+"/api/plans/Q2/rdf", "", map[string]string{"Cache-Control": "no-store"})
	if respB.Header.Get("X-Cache") != "bypass" {
		t.Fatalf("X-Cache = %q, want bypass", respB.Header.Get("X-Cache"))
	}
	if bodyA != bodyB {
		t.Fatal("cached and bypassed RDF bodies differ")
	}
}

// TestStatsCacheGroup pins the cache's statistics as /metrics exports them.
func TestStatsCacheGroup(t *testing.T) {
	_, ts, _ := cachedTestServer(t, WithMetrics(obs.NewRegistry()))
	// One cold cacheable request is exactly one lookup and one flight; the
	// identical request after it is exactly one hit.
	for i, want := range []struct{ hits, misses float64 }{{0, 1}, {1, 1}} {
		cacheReq(t, "POST", ts.URL+"/api/kb/run", "", nil)
		m := scrape(t, ts.URL)
		hits, misses := m[`optimatch_cache_requests_total{result="hit"}`], m[`optimatch_cache_requests_total{result="miss"}`]
		collapsed, entries := m[`optimatch_cache_requests_total{result="collapsed"}`], m["optimatch_cache_entries"]
		if hits != want.hits || misses != want.misses || collapsed != 0 || entries != 1 {
			t.Fatalf("after kb/run #%d: hit/miss/collapsed series = %v/%v/%v, entries %v; want %v/%v/0, 1 (one request is one lookup)",
				i+1, hits, misses, collapsed, entries, want.hits, want.misses)
		}
	}

	// A cache-less server exports no optimatch_cache_* series.
	eng := core.New()
	plain := httptest.NewServer(New(eng, nil, WithMetrics(obs.NewRegistry())).Handler())
	t.Cleanup(plain.Close)
	for series := range scrape(t, plain.URL) {
		if strings.HasPrefix(series, "optimatch_cache_") {
			t.Errorf("%s exported without a cache", series)
		}
	}
}

// TestCacheMetricsExported moves what a hit and a miss cannot. Under a budget
// that holds either of two SPARQL answers but not both, the second evicts the
// first; a kb/run answer larger than the whole budget is not stored.
func TestCacheMetricsExported(t *testing.T) {
	requests := []struct{ path, body string }{
		{"/api/sparql", sortQuery},
		{"/api/sparql", `PREFIX preduri: <http://optimatch/pred/>
SELECT ?s WHERE { ?s preduri:hasPopType "TBSCAN" }`},
		{"/api/kb/run", ""},
	}
	// What each answer is charged, read off a cache with room for all three.
	_, ts, _ := cachedTestServer(t, WithMetrics(obs.NewRegistry()))
	charged := make([]float64, len(requests))
	for i, req := range requests {
		before := scrape(t, ts.URL)["optimatch_cache_bytes"]
		cacheReq(t, "POST", ts.URL+req.path, req.body, nil)
		charged[i] = scrape(t, ts.URL)["optimatch_cache_bytes"] - before
	}
	budget := max(charged[0], charged[1])
	if charged[0] <= 0 || charged[1] <= 0 || charged[2] <= budget {
		t.Fatalf("charged %v: want two positive SPARQL answers and a kb/run answer larger than either", charged)
	}

	eng := core.New()
	if err := eng.LoadPlans(fixtures.All()); err != nil {
		t.Fatal(err)
	}
	bounded := httptest.NewServer(New(eng, nil, WithMetrics(obs.NewRegistry()),
		WithResultCache(cache.New(cache.Config{MaxBytes: int64(budget)}))).Handler())
	t.Cleanup(bounded.Close)
	for _, req := range requests {
		cacheReq(t, "POST", bounded.URL+req.path, req.body, nil)
	}
	m := scrape(t, bounded.URL)
	for series, want := range map[string]float64{
		`optimatch_cache_requests_total{result="miss"}`: 3,
		"optimatch_cache_evictions_total":               1,
		"optimatch_cache_rejected_total":                1,
		"optimatch_cache_entries":                       1,
		"optimatch_cache_bytes":                         charged[1],
	} {
		if m[series] != want {
			t.Errorf("%s = %v, want %v", series, m[series], want)
		}
	}
	// There is no TTL: no series counts expiries. The hit ratio is the hit
	// series over the three of optimatch_cache_requests_total.
	for _, gone := range []string{"optimatch_cache_expired_total", "optimatch_cache_hit_ratio"} {
		if v, ok := m[gone]; ok {
			t.Errorf("%s = %v, want the series absent", gone, v)
		}
	}
}

// TestResponseCacheHammer races plan uploads/deletes and KB entry edits
// against cached and Cache-Control: no-cache reads of the three exec routes,
// all through Handler(), under the race detector. Whenever the engine
// generation and the KB cache key are the same before and after a
// cached/bypassed pair, no mutation overlapped it: the two bodies must be
// byte-identical, and identical to every other body — hit, miss, collapsed
// or bypassed — observed at that state.
func TestResponseCacheHammer(t *testing.T) {
	s, _, _ := cachedTestServer(t)
	h := s.Handler()
	do := func(method, path, body string, noCache bool) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		if noCache {
			req.Header.Set("Cache-Control", "no-cache")
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	state := func() string {
		return fmt.Sprintf("gen %d, %s", s.eng.Generation(), s.kb.CacheKey())
	}

	searchBody, err := pattern.A().ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	routes := []struct{ path, body string }{
		{"/api/kb/run", ""},
		{"/api/search", string(searchBody)},
		{"/api/sparql", sortQuery},
	}
	entryBody, err := json.Marshal(addEntryRequest{
		Pattern:         pattern.F(),
		Recommendations: []kb.Recommendation{{Title: "review CSE", Template: "check @TOP"}},
	})
	if err != nil {
		t.Fatal(err)
	}

	// pair issues one cached and one bypassed read of a route and, if no
	// mutation overlapped them, checks both bodies against every other body
	// seen at that state. It returns the cached read's X-Cache outcome.
	var seen sync.Map // route + state -> body
	pair := func(path, body string) string {
		before := state()
		cached := do("POST", path, body, false)
		bypassed := do("POST", path, body, true)
		if cached.Code != http.StatusOK || bypassed.Code != http.StatusOK {
			t.Errorf("%s: status %d cached, %d bypassed", path, cached.Code, bypassed.Code)
		}
		if got := bypassed.Header().Get("X-Cache"); got != "bypass" {
			t.Errorf("%s with no-cache: X-Cache = %q", path, got)
		}
		if state() == before {
			for _, rec := range []*httptest.ResponseRecorder{cached, bypassed} {
				got := rec.Body.String()
				if prev, loaded := seen.LoadOrStore(path+" at "+before, got); loaded && prev.(string) != got {
					t.Errorf("%s at %s: X-Cache %s body differs from an earlier one:\n--- first\n%s\n--- now\n%s",
						path, before, rec.Header().Get("X-Cache"), prev, got)
				}
			}
		}
		return cached.Header().Get("X-Cache")
	}

	const (
		readers = 4
		iters   = 40
	)
	deadline := time.Now().Add(10 * time.Second)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters && time.Now().Before(deadline) && !t.Failed(); i++ {
				for _, route := range routes {
					pair(route.path, route.body)
				}
			}
		}()
	}
	wg.Add(2)
	go func() { // plan mutator
		defer wg.Done()
		for i := 0; i < iters && time.Now().Before(deadline); i++ {
			id := fmt.Sprintf("HAMMER-%d", i)
			if rec := do("POST", "/api/plans", qep.Text(fixtures.Renamed(fixtures.SortSpill(), id)), false); rec.Code != http.StatusCreated {
				t.Errorf("upload %s: status %d", id, rec.Code)
				return
			}
			if rec := do("DELETE", "/api/plans/"+id, "", false); rec.Code != http.StatusOK {
				t.Errorf("delete %s: status %d", id, rec.Code)
				return
			}
		}
	}()
	go func() { // KB mutator
		defer wg.Done()
		for i := 0; i < iters && time.Now().Before(deadline); i++ {
			if rec := do("POST", "/api/kb/entries", string(entryBody), false); rec.Code != http.StatusCreated {
				t.Errorf("add entry: status %d: %s", rec.Code, rec.Body)
				return
			}
			if rec := do("DELETE", "/api/kb/entries/"+pattern.F().Name, "", false); rec.Code != http.StatusOK {
				t.Errorf("delete entry: status %d", rec.Code)
				return
			}
		}
	}()
	wg.Wait()

	// At quiescence the second pair's cached read is a hit by construction,
	// so every route has had a hit compared with a bypass.
	for _, route := range routes {
		pair(route.path, route.body)
		if got := pair(route.path, route.body); got != "hit" {
			t.Errorf("%s at quiescence: X-Cache = %q, want hit", route.path, got)
		}
	}
}
