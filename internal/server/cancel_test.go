package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"optimatch/internal/cache"
	"optimatch/internal/core"
	"optimatch/internal/fixtures"
	"optimatch/internal/obs"
	"optimatch/internal/workload"
)

// slowQuery joins two unanchored transitive closures with no shared
// variable: a cross product of O(n^2) path relations per plan, far too much
// work to finish inside the test deadlines but cancellable within one
// poll stride.
const slowQuery = `PREFIX preduri: <http://optimatch/pred/>
SELECT ?a ?y WHERE { ?x preduri:hasChildPop+ ?y . ?a preduri:hasChildPop+ ?b }`

const fastQuery = `PREFIX preduri: <http://optimatch/pred/>
SELECT ?op WHERE { ?op preduri:hasPopType "TBSCAN" } LIMIT 1`

// slowServer serves a workload big enough that slowQuery runs for seconds
// if nothing stops it.
func slowServer(t *testing.T, opts ...Option) (*Server, *httptest.Server) {
	t.Helper()
	w, err := workload.Generate(workload.Config{Seed: 3, NumPlans: 30, MinOps: 20, MaxOps: 40})
	if err != nil {
		t.Fatal(err)
	}
	eng := core.New()
	if err := eng.LoadPlans(w.Plans); err != nil {
		t.Fatal(err)
	}
	s := New(eng, nil, opts...)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func TestDeadlineReturns504(t *testing.T) {
	_, ts := slowServer(t, WithQueryTimeout(10*time.Millisecond), WithMetrics(obs.NewRegistry()))
	start := time.Now()
	resp, err := http.Post(ts.URL+"/api/sparql", "text/plain", strings.NewReader(slowQuery))
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", resp.StatusCode, body)
	}
	// The cooperative checks poll every few hundred iterations, so the 504
	// should land promptly after the 10ms deadline — the bound is generous
	// only for loaded CI machines.
	if elapsed > time.Second {
		t.Fatalf("504 took %v; deadline enforcement is not prompt", elapsed)
	}
	if v := scrape(t, ts.URL)["optimatch_exec_deadline_total"]; v != 1 {
		t.Fatalf("optimatch_exec_deadline_total = %v, want 1", v)
	}
}

func TestHeaderShortensDeadlineNeverExtends(t *testing.T) {
	s := New(core.New(), nil, WithQueryTimeout(30*time.Second))

	r := httptest.NewRequest("POST", "/api/sparql", nil)
	r.Header.Set("X-Timeout-Ms", "5")
	ctx, cancel, err := s.execContext(r)
	if err != nil {
		t.Fatal(err)
	}
	d, ok := ctx.Deadline()
	cancel()
	if !ok || time.Until(d) > 10*time.Millisecond {
		t.Fatalf("header did not shorten the deadline (deadline in %v)", time.Until(d))
	}

	// Values above the server cap — including ms counts that would overflow
	// a time.Duration — clamp to the cap instead of extending it.
	for _, above := range []string{"3600000" /* 1h */, "9223372036854775807" /* overflows Duration */} {
		r = httptest.NewRequest("POST", "/api/sparql", nil)
		r.Header.Set("X-Timeout-Ms", above)
		ctx, cancel, err = s.execContext(r)
		if err != nil {
			t.Fatalf("header %q: %v", above, err)
		}
		d, ok = ctx.Deadline()
		cancel()
		if !ok || time.Until(d) > 31*time.Second {
			t.Fatalf("header %q extended the deadline past the cap (deadline in %v)", above, time.Until(d))
		}
	}

	// An absent header runs at the server cap.
	r = httptest.NewRequest("POST", "/api/sparql", nil)
	ctx, cancel, err = s.execContext(r)
	if err != nil {
		t.Fatal(err)
	}
	d, ok = ctx.Deadline()
	cancel()
	if !ok || time.Until(d) < 29*time.Second {
		t.Fatalf("absent header changed the deadline (deadline in %v)", time.Until(d))
	}

	// Malformed and non-positive values are rejected, not silently ignored.
	for _, bad := range []string{"abc", "-5", "0", "1.5", "10s", "99999999999999999999" /* overflows int64 */} {
		r = httptest.NewRequest("POST", "/api/sparql", nil)
		r.Header.Set("X-Timeout-Ms", bad)
		if _, _, err := s.execContext(r); err == nil {
			t.Fatalf("header %q accepted, want an error", bad)
		}
	}
}

// TestMalformedTimeoutHeaderIs400 drives the rejection through the full
// handler stack: a bad X-Timeout-Ms answers 400 with a JSON error body on
// every gated route.
func TestMalformedTimeoutHeaderIs400(t *testing.T) {
	_, ts := slowServer(t, WithQueryTimeout(time.Minute))
	for _, tc := range []struct{ name, value string }{
		{"letters", "abc"},
		{"zero", "0"},
		{"negative", "-5"},
		{"int64 overflow", "99999999999999999999"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, route := range []string{"/api/sparql", "/api/kb/run"} {
				req, _ := http.NewRequest("POST", ts.URL+route, strings.NewReader(fastQuery))
				req.Header.Set("X-Timeout-Ms", tc.value)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				var eb errorBody
				decodeErr := json.NewDecoder(resp.Body).Decode(&eb)
				resp.Body.Close()
				if resp.StatusCode != http.StatusBadRequest {
					t.Fatalf("%s with X-Timeout-Ms %q: status = %d, want 400", route, tc.value, resp.StatusCode)
				}
				if decodeErr != nil || !strings.Contains(eb.Error, "X-Timeout-Ms") {
					t.Fatalf("%s: error body %q does not name the header (decode err %v)", route, eb.Error, decodeErr)
				}
			}
		})
	}
}

// TestRetryAfterHint pins the shed back-off derivation: the queue-wait
// budget rounded up to whole seconds, floored at one.
func TestRetryAfterHint(t *testing.T) {
	for _, tc := range []struct {
		wait time.Duration
		want string
	}{
		{0, "1"},
		{5 * time.Millisecond, "1"},
		{time.Second, "1"},
		{1001 * time.Millisecond, "2"},
		{2500 * time.Millisecond, "3"},
		{10 * time.Second, "10"},
	} {
		if got := retryAfterHint(tc.wait); got != tc.want {
			t.Errorf("retryAfterHint(%v) = %q, want %q", tc.wait, got, tc.want)
		}
	}
}

// deadlineWithConcurrentFastQuery is the acceptance scenario: a doomed slow
// query must not take fast traffic down with it.
func TestDeadlineWithConcurrentFastQuery(t *testing.T) {
	_, ts := slowServer(t, WithQueryTimeout(time.Minute))

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		req, _ := http.NewRequest("POST", ts.URL+"/api/sparql", strings.NewReader(slowQuery))
		req.Header.Set("X-Timeout-Ms", "10")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Errorf("slow query: %v", err)
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Errorf("slow query status = %d, want 504", resp.StatusCode)
		}
	}()

	resp, err := http.Post(ts.URL+"/api/sparql", "text/plain", strings.NewReader(fastQuery))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fast query status = %d, want 200", resp.StatusCode)
	}
	wg.Wait()
}

func TestAdmissionShedsWith503(t *testing.T) {
	s, ts := slowServer(t,
		WithQueryTimeout(time.Minute),
		WithAdmission(1, 5*time.Millisecond),
		WithMetrics(obs.NewRegistry()))

	// Occupy the only slot with a slow query we can abort afterwards.
	slowCtx, stopSlow := context.WithCancel(context.Background())
	defer stopSlow()
	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		req, _ := http.NewRequestWithContext(slowCtx, "POST", ts.URL+"/api/sparql", strings.NewReader(slowQuery))
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()

	waitFor(t, func() bool { return s.exec.inFlight.Load() >= 1 })

	resp, err := http.Post(ts.URL+"/api/sparql", "text/plain", strings.NewReader(fastQuery))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	// The hint derives from the configured queue wait (5ms rounds up to the
	// 1s floor), not a hardcoded constant.
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want %q (ceil of the 5ms queue-wait budget, floored at 1s)", got, "1")
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(eb.Error, "overloaded") {
		t.Fatalf("error body %q does not mention overload", eb.Error)
	}

	// The shed counter is on /metrics, which is ungated. While the slow
	// query holds the slot, it is admitted work, and it and the scrape are
	// requests being served.
	m := scrape(t, ts.URL)
	if v := m["optimatch_exec_shed_total"]; v < 1 {
		t.Fatalf("optimatch_exec_shed_total = %v, want >= 1", v)
	}
	if v := m["optimatch_exec_in_flight"]; v < 1 {
		t.Errorf("optimatch_exec_in_flight = %v while the slow query runs, want >= 1", v)
	}
	if v := m["optimatch_http_in_flight"]; v < 2 {
		t.Errorf("optimatch_http_in_flight = %v during the slow query and the scrape, want >= 2", v)
	}

	stopSlow()
	<-slowDone
	waitFor(t, func() bool { return s.exec.inFlight.Load() == 0 })
}

func TestClientDisconnectLogs499(t *testing.T) {
	var buf syncBuffer
	log := slog.New(slog.NewTextHandler(&buf, nil))
	s, ts := slowServer(t, WithQueryTimeout(time.Minute), WithLogger(log), WithMetrics(obs.NewRegistry()))

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/api/sparql", strings.NewReader(slowQuery))
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()

	waitFor(t, func() bool { return s.exec.inFlight.Load() >= 1 })
	cancel() // client hangs up mid-scan
	<-done

	waitFor(t, func() bool { return scrape(t, ts.URL)["optimatch_exec_cancelled_total"] == 1 })
	waitFor(t, func() bool {
		line := buf.String()
		return strings.Contains(line, "client closed request") &&
			strings.Contains(line, fmt.Sprintf("status=%d", StatusClientClosedRequest))
	})
}

// TestDisconnectDoesNotPoisonNextIdenticalRequest: a client hanging up
// mid-kb/run abandons its cache flight; an identical request arriving while
// the abandoned scan is still winding down must run its own scan and answer
// 200, not inherit the cancellation as a 503.
func TestDisconnectDoesNotPoisonNextIdenticalRequest(t *testing.T) {
	// The first plan evaluation of the first scan parks until windDown
	// closes: the window between "last waiter gone" and "evaluator noticed".
	var once sync.Once
	inScan, windDown := make(chan struct{}), make(chan struct{})
	eng := core.New(core.WithInstrumentation(core.Instrumentation{
		PlanMatch: func(time.Duration) { once.Do(func() { close(inScan); <-windDown }) },
	}))
	if err := eng.LoadPlans(fixtures.All()); err != nil {
		t.Fatal(err)
	}
	c := cache.New(cache.Config{MaxBytes: 16 << 20})
	s := New(eng, nil, WithResultCache(c), WithQueryTimeout(time.Minute))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	ctx, hangUp := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/api/kb/run", nil)
	gone := make(chan struct{})
	go func() {
		defer close(gone)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	<-inScan
	hangUp()
	<-gone
	waitFor(t, func() bool { return s.exec.cancelled.Load() == 1 })

	// The abandoned scan is still parked; the same request arrives again.
	status := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/api/kb/run", "", nil)
		if err != nil {
			t.Error(err)
			status <- 0
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	waitFor(t, func() bool { st := c.Stats(); return st.Misses+st.Collapsed == 2 })
	close(windDown)
	if got := <-status; got != http.StatusOK {
		t.Fatalf("identical request after a disconnect: status = %d, want 200", got)
	}
	if got := s.exec.cancelled.Load(); got != 1 {
		t.Fatalf("exec.cancelled = %d, want 1 (only the client that hung up)", got)
	}
}

func TestKBRunHonoursDeadline(t *testing.T) {
	_, ts := slowServer(t, WithQueryTimeout(time.Minute))
	req, _ := http.NewRequest("POST", ts.URL+"/api/kb/run", nil)
	req.Header.Set("X-Timeout-Ms", "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// A 1ms budget may or may not expire before the scan ends on a fast
	// machine; both 200 and 504 are legal, anything else is not.
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 200 or 504", resp.StatusCode)
	}
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// syncBuffer is a bytes.Buffer safe for the logger goroutine + test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestSemaphoreFIFOAndWeights(t *testing.T) {
	sem := newSemaphore(2)
	if err := sem.Acquire(context.Background(), 2); err != nil {
		t.Fatal(err)
	}

	// A queued waiter is granted in FIFO order on release.
	got := make(chan int, 2)
	ready := make(chan struct{})
	go func() {
		close(ready)
		if err := sem.Acquire(context.Background(), 1); err == nil {
			got <- 1
		}
	}()
	<-ready
	waitFor(t, func() bool {
		sem.mu.Lock()
		defer sem.mu.Unlock()
		return sem.waiters.Len() == 1
	})
	sem.Release(2)
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("queued waiter never granted")
	}
	sem.Release(1)

	// Weights above the size are clamped, not deadlocked.
	if err := sem.Acquire(context.Background(), 99); err != nil {
		t.Fatalf("oversized acquire: %v", err)
	}
	sem.Release(99)

	// A cancelled waiter leaves the queue and does not wedge later grants.
	if err := sem.Acquire(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if err := sem.Acquire(ctx, 1); err == nil {
		t.Fatal("acquire over capacity succeeded")
	}
	sem.Release(2)
	if err := sem.Acquire(context.Background(), 2); err != nil {
		t.Fatalf("post-cancel acquire: %v", err)
	}
	sem.Release(2)
}
