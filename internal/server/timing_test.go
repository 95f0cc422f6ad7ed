package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// serverTiming lists a response's Server-Timing stages as name or
// name;desc=outcome, in order, after checking that every stage carries a
// duration in milliseconds.
func serverTiming(t *testing.T, h http.Header) []string {
	t.Helper()
	stage := regexp.MustCompile(`^([a-z]+(?:;desc=[a-z]+)?);dur=[0-9]+\.[0-9]{3}$`)
	var out []string
	for _, v := range h.Values("Server-Timing") {
		for _, s := range strings.Split(v, ",") {
			m := stage.FindStringSubmatch(strings.TrimSpace(s))
			if m == nil {
				t.Fatalf("Server-Timing stage %q is not name[;desc=outcome];dur=ms", s)
			}
			out = append(out, m[1])
		}
	}
	return out
}

// TestServerTimingOnReadRoutes: every read route names in Server-Timing the
// stages that ran — the admission wait on a gated route, the cache lookup with
// its outcome, and the render when this request's render succeeded — and
// nothing that did not: a hit, a 304 and an error have no render, /rdf (which
// no gate guards) no admit.
func TestServerTimingOnReadRoutes(t *testing.T) {
	_, ts, _ := cachedTestServer(t, WithAdmission(4, time.Second))
	rdfURL := ts.URL + "/api/plans/Q2/rdf"
	for _, tc := range []struct {
		name, method, url, body string
		hdr                     map[string]string
		status                  int
		want                    string
	}{
		{"gated miss", "POST", ts.URL + "/api/sparql", sortQuery, nil, http.StatusOK, "admit cache;desc=miss render"},
		{"gated hit", "POST", ts.URL + "/api/sparql", sortQuery, nil, http.StatusOK, "admit cache;desc=hit"},
		{"gated bypass", "POST", ts.URL + "/api/sparql", sortQuery, map[string]string{"Cache-Control": "no-cache"}, http.StatusOK, "admit cache;desc=bypass render"},
		{"gated refusal", "POST", ts.URL + "/api/sparql", "SELECT", nil, http.StatusBadRequest, "admit"},
		{"rdf miss", "GET", rdfURL, "", nil, http.StatusOK, "cache;desc=miss render"},
		{"rdf hit", "GET", rdfURL, "", nil, http.StatusOK, "cache;desc=hit"},
		{"rdf head", "HEAD", rdfURL, "", nil, http.StatusOK, "cache;desc=hit"},
		{"rdf unknown plan", "GET", ts.URL + "/api/plans/NOPE/rdf", "", nil, http.StatusNotFound, ""},
	} {
		resp, _ := cacheReq(t, tc.method, tc.url, tc.body, tc.hdr)
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
		if got := strings.Join(serverTiming(t, resp.Header), " "); got != tc.want {
			t.Errorf("%s: Server-Timing stages %q, want %q", tc.name, got, tc.want)
		}
		if tc.name == "rdf hit" {
			resp, _ := cacheReq(t, "GET", rdfURL, "", map[string]string{"If-None-Match": resp.Header.Get("ETag")})
			if got := serverTiming(t, resp.Header); resp.StatusCode != http.StatusNotModified || len(got) != 0 {
				t.Errorf("rdf revalidated: status %d, Server-Timing stages %q, want 304 and none", resp.StatusCode, got)
			}
		}
	}

	// A render that fails: the lookup is named, the render is not.
	s, _, _ := cachedTestServer(t)
	for _, err := range []error{errors.New("boom"), context.DeadlineExceeded} {
		rec := httptest.NewRecorder()
		s.serveRead(readRoute{
			name: "test.timing", contentType: "text/plain", fallback: http.StatusInternalServerError,
			parse: func(*http.Request, []byte) (string, renderFunc, error) {
				return err.Error(), func(context.Context) ([]byte, error) { return nil, err }, nil
			},
		})(rec, httptest.NewRequest("GET", "/", nil))
		if got := strings.Join(serverTiming(t, rec.Header()), " "); rec.Code < 500 || got != "cache;desc=miss" {
			t.Errorf("render error %v: status %d, Server-Timing stages %q, want a 5xx and the lookup alone", err, rec.Code, got)
		}
	}
}

// TestServerTimingConcurrentReads: requests for one uncached body at once —
// one renders, the others join its flight or hit what it stored — and only
// the one whose render ran names a render stage. The render's duration
// crosses from the flight's goroutine to the handler's, which the race
// detector watches here.
func TestServerTimingConcurrentReads(t *testing.T) {
	_, ts, _ := cachedTestServer(t)
	const n = 8
	headers := make([]http.Header, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/api/plans/Q9/rdf")
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			headers[i] = resp.Header
		}(i)
	}
	wg.Wait()
	renders, stages := 0, make([]string, n)
	for i, h := range headers {
		got := strings.Join(serverTiming(t, h), " ")
		stages[i] = got
		switch got {
		case "cache;desc=miss render":
			renders++
		case "cache;desc=collapsed", "cache;desc=hit":
		default:
			t.Errorf("Server-Timing stages %q", got)
		}
	}
	if renders != 1 {
		t.Errorf("%d of %d requests name a render, want 1: %q", renders, n, stages)
	}
}
