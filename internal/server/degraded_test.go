package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"optimatch/internal/cache"
	"optimatch/internal/core"
	"optimatch/internal/faultfs"
	"optimatch/internal/fixtures"
	"optimatch/internal/kb"
	"optimatch/internal/obs"
	"optimatch/internal/pattern"
	"optimatch/internal/qep"
	"optimatch/internal/store"
	"optimatch/internal/storefs"
)

// degradedTestServer builds the full daemon wiring — durable store behind a
// fault injector, response cache, metrics registry — so the HTTP
// contract under storage faults is tested end to end.
func degradedTestServer(t *testing.T) (*faultfs.FS, *store.Store, *httptest.Server, *obs.Registry) {
	t.Helper()
	ffs := faultfs.Wrap(storefs.OS{})
	c := cache.New(cache.Config{MaxBytes: 16 << 20})
	reg := obs.NewRegistry()
	st, err := store.Open(t.TempDir(), store.WithFS(ffs))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	s := New(st.Engine(), st.KB(),
		WithStore(st), WithResultCache(c), WithMetrics(reg))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ffs, st, ts, reg
}

// readyState decodes a /readyz body's status field.
func readyState(t *testing.T, body string) string {
	t.Helper()
	var rb readyzBody
	if err := json.Unmarshal([]byte(body), &rb); err != nil {
		t.Fatalf("/readyz body %q: %v", body, err)
	}
	return rb.Status
}

func TestDegradedModeHTTPContract(t *testing.T) {
	ffs, st, ts, _ := degradedTestServer(t)
	plans := fixtures.All()

	// Healthy baseline: writes land, /readyz reports ok, the cacheable read
	// paths go miss -> hit.
	resp, _ := cacheReq(t, "POST", ts.URL+"/api/plans", qep.Text(plans[0]), nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status = %d", resp.StatusCode)
	}
	resp, body := cacheReq(t, "GET", ts.URL+"/readyz", "", nil)
	if resp.StatusCode != http.StatusOK || readyState(t, body) != "ok" {
		t.Fatalf("/readyz = %d %s", resp.StatusCode, body)
	}
	rdfURL := ts.URL + "/api/plans/" + plans[0].ID + "/rdf"
	resp, rdfWant := cacheReq(t, "GET", rdfURL, "", nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first rdf = %d, X-Cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	resp, runWant := cacheReq(t, "POST", ts.URL+"/api/kb/run", "", nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first kb/run = %d, X-Cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}

	// Break the disk under the next WAL append.
	ffs.FailNth(faultfs.OpWrite, 1, faultfs.KindENOSPC)
	resp, body = cacheReq(t, "POST", ts.URL+"/api/plans", qep.Text(plans[1]), nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degrading upload status = %d, body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got == "" {
		t.Fatal("degrading upload missing Retry-After")
	}

	// Every write now refuses with 503 + Retry-After without killing the
	// process: plans, batches, deletes, KB entries, compaction.
	for _, w := range []struct{ method, path, body string }{
		{"POST", "/api/plans", qep.Text(plans[2])},
		{"POST", "/api/plans:batch", `"` + plans[2].ID + `"`},
		{"DELETE", "/api/plans/" + plans[0].ID, ""},
		{"DELETE", "/api/kb/entries/none", ""},
		{"POST", "/api/admin/compact", ""},
	} {
		resp, body := cacheReq(t, w.method, ts.URL+w.path, w.body, nil)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s %s while degraded = %d, body %s", w.method, w.path, resp.StatusCode, body)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s %s while degraded missing Retry-After", w.method, w.path)
		}
	}

	// Readiness flips to 503/degraded while liveness-style reads keep
	// working, including cache hits with the bytes from before the fault.
	resp, body = cacheReq(t, "GET", ts.URL+"/readyz", "", nil)
	if resp.StatusCode != http.StatusServiceUnavailable || readyState(t, body) != "degraded" {
		t.Fatalf("/readyz while degraded = %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("/readyz while degraded missing Retry-After")
	}
	// The failed mutation was never published: the data generation did not
	// move, so even the first read after the fault is a hit on what was cached
	// before it (TestFailedWriteOrphansNothing pins that per kind of write).
	resp, got := cacheReq(t, "GET", rdfURL, "", nil)
	if resp.StatusCode != http.StatusOK || got != rdfWant {
		t.Fatalf("rdf while degraded = %d, bytes match %v", resp.StatusCode, got == rdfWant)
	}
	resp, got = cacheReq(t, "GET", rdfURL, "", nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" || got != rdfWant {
		t.Fatalf("repeat rdf while degraded = %d, X-Cache %q, bytes match %v",
			resp.StatusCode, resp.Header.Get("X-Cache"), got == rdfWant)
	}
	resp, got = cacheReq(t, "POST", ts.URL+"/api/kb/run", "", nil)
	if resp.StatusCode != http.StatusOK || got != runWant {
		t.Fatalf("kb/run while degraded = %d, bytes match %v", resp.StatusCode, got == runWant)
	}
	resp, got = cacheReq(t, "POST", ts.URL+"/api/kb/run", "", nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" || got != runWant {
		t.Fatalf("repeat kb/run while degraded = %d, X-Cache %q, bytes match %v",
			resp.StatusCode, resp.Header.Get("X-Cache"), got == runWant)
	}
	resp, _ = cacheReq(t, "GET", ts.URL+"/api/plans", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan listing while degraded = %d", resp.StatusCode)
	}

	// The degraded state is visible to scrapes.
	m := scrape(t, ts.URL)
	if v := m["optimatch_store_degraded"]; v != 1 {
		t.Errorf("optimatch_store_degraded = %v, want 1", v)
	}
	if v := m[`optimatch_store_fault_total{op="append"}`]; v != 1 {
		t.Errorf(`optimatch_store_fault_total{op="append"} = %v, want 1`, v)
	}

	// Reopen on a still-broken disk answers 503 and stays degraded.
	ffs.FailNth(faultfs.OpRead, 1, faultfs.KindErr)
	resp, body = cacheReq(t, "POST", ts.URL+"/api/admin/reopen", "", nil)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("reopen on broken disk = %d %s", resp.StatusCode, body)
	}

	// Heal the disk: reopen succeeds, readiness recovers, writes land again.
	ffs.Clear()
	resp, body = cacheReq(t, "POST", ts.URL+"/api/admin/reopen", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reopen after heal = %d %s", resp.StatusCode, body)
	}
	var reopened reopenBody
	if err := json.Unmarshal([]byte(body), &reopened); err != nil {
		t.Fatalf("reopen body: %v", err)
	}
	if reopened.Health.State != store.HealthOK || reopened.Stats.Reopens != 1 || reopened.Stats.ReopenFailures != 1 {
		t.Fatalf("reopen body = %+v", reopened)
	}
	resp, body = cacheReq(t, "GET", ts.URL+"/readyz", "", nil)
	if resp.StatusCode != http.StatusOK || readyState(t, body) != "ok" {
		t.Fatalf("/readyz after reopen = %d %s", resp.StatusCode, body)
	}
	resp, _ = cacheReq(t, "POST", ts.URL+"/api/plans", qep.Text(plans[1]), nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload after reopen = %d", resp.StatusCode)
	}
	if st.Engine().Plan(plans[1].ID) == nil {
		t.Fatal("post-reopen upload not applied")
	}
	m = scrape(t, ts.URL)
	if v, ok := m["optimatch_store_degraded"]; !ok || v != 0 {
		t.Errorf("optimatch_store_degraded after reopen = %v, want 0", v)
	}
	if v := m[`optimatch_store_reopen_total{result="ok"}`]; v != 1 {
		t.Errorf("reopen ok counter = %v, want 1", v)
	}
	if v := m[`optimatch_store_reopen_total{result="error"}`]; v != 1 {
		t.Errorf("reopen error counter = %v, want 1", v)
	}
}

// TestFailedWriteOrphansNothing: a write the journal refused happened nowhere
// a reader can tell. The engine generation and the knowledge base's cache key
// are what they were, so the first read after the failed write is served from
// the cache under the validator minted before it — for a single upload, a
// batch, and a knowledge-base entry.
func TestFailedWriteOrphansNothing(t *testing.T) {
	plans := fixtures.All()
	entry, err := json.Marshal(addEntryRequest{
		Pattern:         pattern.G(),
		Recommendations: []kb.Recommendation{{Title: "t", Template: "inspect @TOP"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := json.Marshal(qep.Text(plans[2]))
	if err != nil {
		t.Fatal(err)
	}
	writes := []struct{ name, path, body string }{
		{"upload", "/api/plans", qep.Text(plans[1])},
		{"batch", "/api/plans:batch", string(batch) + "\n"},
		{"kb-entry", "/api/kb/entries", string(entry)},
	}
	for _, w := range writes {
		for _, op := range []faultfs.Op{faultfs.OpWrite, faultfs.OpSync} {
			t.Run(w.name+"/"+string(op), func(t *testing.T) {
				ffs, _, ts, _ := degradedTestServer(t)
				if resp, _ := cacheReq(t, "POST", ts.URL+"/api/plans", qep.Text(plans[0]), nil); resp.StatusCode != http.StatusCreated {
					t.Fatalf("upload status = %d", resp.StatusCode)
				}
				reads := []struct{ method, url string }{
					{"GET", ts.URL + "/api/plans/" + plans[0].ID + "/rdf"},
					{"POST", ts.URL + "/api/kb/run"},
				}
				var etags, bodies []string // only /rdf carries a validator; kb/run's ETag is "" both times
				for _, r := range reads {
					resp, body := cacheReq(t, r.method, r.url, "", nil)
					if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
						t.Fatalf("first %s = %d, X-Cache %q", r.url, resp.StatusCode, resp.Header.Get("X-Cache"))
					}
					etags, bodies = append(etags, resp.Header.Get("ETag")), append(bodies, body)
				}
				if etags[0] == "" {
					t.Fatal("rdf response carries no ETag")
				}

				ffs.FailNth(op, 1, faultfs.KindErr)
				if resp, body := cacheReq(t, "POST", ts.URL+w.path, w.body, nil); resp.StatusCode != http.StatusServiceUnavailable {
					t.Fatalf("%s with a failing %s = %d, body %s", w.name, op, resp.StatusCode, body)
				}

				for i, r := range reads {
					resp, body := cacheReq(t, r.method, r.url, "", nil)
					if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" || resp.Header.Get("ETag") != etags[i] || body != bodies[i] {
						t.Fatalf("first %s after the failed %s = %d, X-Cache %q, ETag %q (was %q), bytes match %v; want a hit under the old validator",
							r.url, w.name, resp.StatusCode, resp.Header.Get("X-Cache"), resp.Header.Get("ETag"), etags[i], body == bodies[i])
					}
				}
			})
		}
	}
}

// TestReopenClosedStoreIs500: a closed store never comes back, so reopening
// one is no retryable 503 but the 500 a closed store is on every other route,
// with no Retry-After.
func TestReopenClosedStoreIs500(t *testing.T) {
	_, st, ts, _ := degradedTestServer(t)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/api/admin/reopen", "/api/admin/compact"} {
		resp, body := cacheReq(t, "POST", ts.URL+path, "", nil)
		if resp.StatusCode != http.StatusInternalServerError || resp.Header.Get("Retry-After") != "" {
			t.Errorf("%s on a closed store = %d, Retry-After %q, body %s; want 500 without Retry-After",
				path, resp.StatusCode, resp.Header.Get("Retry-After"), body)
		}
	}
	resp, body := cacheReq(t, "GET", ts.URL+"/readyz", "", nil)
	if resp.StatusCode != http.StatusServiceUnavailable || readyState(t, body) != store.HealthClosed {
		t.Errorf("/readyz on a closed store = %d %s", resp.StatusCode, body)
	}
}

// TestReadyzWithoutStore pins the stateless deployment: no durable store
// means no degraded state machine, so readiness is simply ok and reopen is
// explicit about being unavailable.
func TestReadyzWithoutStore(t *testing.T) {
	eng := core.New()
	if err := eng.LoadPlans(fixtures.All()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(eng, nil).Handler())
	t.Cleanup(ts.Close)

	resp, body := cacheReq(t, "GET", ts.URL+"/readyz", "", nil)
	if resp.StatusCode != http.StatusOK || readyState(t, body) != "ok" {
		t.Fatalf("/readyz = %d %s", resp.StatusCode, body)
	}
	resp, _ = cacheReq(t, "POST", ts.URL+"/api/admin/reopen", "", nil)
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("reopen without store = %d", resp.StatusCode)
	}
}
