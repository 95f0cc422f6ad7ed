package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"optimatch/internal/cache"
	"optimatch/internal/core"
	"optimatch/internal/fixtures"
	"optimatch/internal/obs"
	"optimatch/internal/qep"
	"optimatch/internal/store"
)

// ndjson renders explain texts as an NDJSON batch body, one JSON string per
// line (the explain text itself is multi-line, hence the JSON framing).
func ndjson(t *testing.T, texts ...string) string {
	t.Helper()
	var b strings.Builder
	for _, text := range texts {
		line, err := json.Marshal(text)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteString("\n")
	}
	return b.String()
}

// fixtureTexts renders n distinctly-named fixture plans to explain text.
func fixtureTexts(n int) []string {
	plans := fixtures.Numbered(n)
	out := make([]string, n)
	for i, p := range plans {
		out[i] = qep.Text(p)
	}
	return out
}

func postBatch(t *testing.T, url, body string) (*http.Response, batchResponse) {
	t.Helper()
	resp, err := http.Post(url+"/api/plans:batch", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var br batchResponse
	if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusInternalServerError {
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			t.Fatalf("decoding batch response: %v", err)
		}
	}
	return resp, br
}

func TestBatchUploadAllCreated(t *testing.T) {
	eng := core.New()
	s := New(eng, nil)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	texts := fixtureTexts(6)
	genBefore := eng.Generation()
	resp, br := postBatch(t, ts.URL, ndjson(t, texts...))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("status = %d, want 201", resp.StatusCode)
	}
	if br.Accepted != len(texts) || br.Rejected != 0 {
		t.Fatalf("accepted/rejected = %d/%d, want %d/0", br.Accepted, br.Rejected, len(texts))
	}
	for i, res := range br.Results {
		if res.Status != http.StatusCreated || res.ID == "" || res.Index != i {
			t.Fatalf("result %d = %+v, want 201 with an ID", i, res)
		}
	}
	if got := eng.NumPlans(); got != len(texts) {
		t.Fatalf("NumPlans = %d, want %d", got, len(texts))
	}
	// The whole batch is one generation bump: a result cache keyed on the
	// generation invalidates once, not per plan.
	if got := eng.Generation(); got != genBefore+1 {
		t.Fatalf("generation moved %d -> %d across one batch, want exactly +1", genBefore, got)
	}
}

func TestBatchUploadMixedOutcomes207(t *testing.T) {
	eng := core.New()
	if err := eng.LoadPlans(fixtures.Numbered(1)); err != nil { // W1 pre-loaded
		t.Fatal(err)
	}
	s := New(eng, nil)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	texts := fixtureTexts(3) // W1 (dup), W2, W3
	body := ndjson(t, texts[0], texts[1], "garbage explain", texts[2]) + "{\"noText\":1}\nnot-json\n"
	resp, br := postBatch(t, ts.URL, body)
	if resp.StatusCode != http.StatusMultiStatus {
		t.Fatalf("status = %d, want 207", resp.StatusCode)
	}
	wantStatus := []int{
		http.StatusConflict,            // duplicate of the pre-loaded W1
		http.StatusCreated,             // fresh
		http.StatusUnprocessableEntity, // parses as JSON, not as a plan
		http.StatusCreated,             // fresh
		http.StatusUnprocessableEntity, // object without "text"
		http.StatusUnprocessableEntity, // not valid JSON at all
	}
	if len(br.Results) != len(wantStatus) {
		t.Fatalf("results = %d, want %d", len(br.Results), len(wantStatus))
	}
	for i, want := range wantStatus {
		if br.Results[i].Status != want {
			t.Fatalf("result %d status = %d (%s), want %d", i, br.Results[i].Status, br.Results[i].Error, want)
		}
		if want != http.StatusCreated && br.Results[i].Error == "" {
			t.Fatalf("result %d rejected without an error message", i)
		}
	}
	if br.Accepted != 2 || br.Rejected != 4 {
		t.Fatalf("accepted/rejected = %d/%d, want 2/4", br.Accepted, br.Rejected)
	}
	if got := eng.NumPlans(); got != 3 {
		t.Fatalf("NumPlans = %d, want 3", got)
	}
}

func TestBatchUploadAllRejected422(t *testing.T) {
	_, ts := testServer(t)
	resp, br := postBatch(t, ts.URL, "\"garbage one\"\n\"garbage two\"\n")
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422", resp.StatusCode)
	}
	if br.Accepted != 0 || br.Rejected != 2 {
		t.Fatalf("accepted/rejected = %d/%d, want 0/2", br.Accepted, br.Rejected)
	}
}

func TestBatchUploadFraming400(t *testing.T) {
	eng := core.New()
	s := New(eng, nil, WithBatchLimits(2, 0))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// Empty body (and blank lines only) is malformed framing.
	for _, body := range []string{"", "\n\n  \n"} {
		resp, _ := postBatch(t, ts.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("empty batch: status = %d, want 400", resp.StatusCode)
		}
	}
	// Over the record limit: rejected before any record is examined.
	resp, _ := postBatch(t, ts.URL, "\"a\"\n\"b\"\n\"c\"\n")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch: status = %d, want 400", resp.StatusCode)
	}
	if got := eng.NumPlans(); got != 0 {
		t.Fatalf("rejected framing loaded %d plans", got)
	}
}

// TestBatchUploadByteBound pins the batch body bound at its boundary: a body
// of exactly the bound is handled, one byte more answers 413 and loads
// nothing — even though the single-plan bound (WithMaxBody, 16 MiB by
// default) is larger — and a plan too large for the batch bound loads through
// POST /api/plans.
func TestBatchUploadByteBound(t *testing.T) {
	var small, big string
	for _, p := range fixtures.All() {
		text := qep.Text(p)
		if small == "" || len(text) < len(small) {
			small = text
		}
		if len(text) > len(big) {
			big = text
		}
	}
	body := ndjson(t, small)
	bound := int64(len(body))
	if int64(len(big)) <= bound {
		t.Fatalf("largest fixture (%d B) fits the %d B bound: no plan to send through POST /api/plans", len(big), bound)
	}
	eng := core.New()
	s := New(eng, nil, WithBatchLimits(0, bound), WithMaxBody(4*bound))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	if resp, br := postBatch(t, ts.URL, body+"\n"); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("body of bound+1 = %d B: status = %d (%+v), want 413", bound+1, resp.StatusCode, br)
	}
	if got := eng.NumPlans(); got != 0 {
		t.Fatalf("a refused batch loaded %d plans", got)
	}
	if resp, br := postBatch(t, ts.URL, body); resp.StatusCode != http.StatusCreated || br.Accepted != 1 {
		t.Fatalf("body of exactly the bound = %d B: status = %d accepted = %d, want 201 / 1", bound, resp.StatusCode, br.Accepted)
	}
	resp, err := http.Post(ts.URL+"/api/plans", "text/plain", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /api/plans of a %d B plan: status = %d, want 201", len(big), resp.StatusCode)
	}
}

// TestBatchUploadObjectRecords: the {"text": ...} record form loads like the
// bare-string form.
func TestBatchUploadObjectRecords(t *testing.T) {
	eng := core.New()
	s := New(eng, nil)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	texts := fixtureTexts(2)
	var b strings.Builder
	for _, text := range texts {
		line, err := json.Marshal(map[string]string{"text": text})
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteString("\n")
	}
	resp, br := postBatch(t, ts.URL, b.String())
	if resp.StatusCode != http.StatusCreated || br.Accepted != 2 {
		t.Fatalf("status = %d accepted = %d, want 201 / 2", resp.StatusCode, br.Accepted)
	}
}

// TestBatchUploadStoreSingleFsync is the durability half of the batch
// contract over HTTP: a store-backed batch of N plans costs one WAL record
// and one fsync, and /metrics exposes the batch counters.
func TestBatchUploadStoreSingleFsync(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	s := New(st.Engine(), st.KB(), WithStore(st), WithMetrics(obs.NewRegistry()))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	texts := fixtureTexts(8)
	before := st.Stats()
	resp, br := postBatch(t, ts.URL, ndjson(t, texts...))
	if resp.StatusCode != http.StatusCreated || br.Accepted != len(texts) {
		t.Fatalf("status = %d accepted = %d, want 201 / %d", resp.StatusCode, br.Accepted, len(texts))
	}
	after := st.Stats()
	if got := after.Fsyncs - before.Fsyncs; got != 1 {
		t.Fatalf("batch of %d plans cost %d fsyncs, want 1", len(texts), got)
	}
	if after.BatchAppends != 1 || after.BatchPlans != int64(len(texts)) {
		t.Fatalf("store batch counters = %d appends / %d plans, want 1 / %d",
			after.BatchAppends, after.BatchPlans, len(texts))
	}

	m := scrape(t, ts.URL)
	requests, accepted := m["optimatch_ingest_batch_requests_total"], m[`optimatch_ingest_batch_records_total{outcome="accepted"}`]
	if requests != 1 || accepted != float64(len(texts)) {
		t.Fatalf("batch requests %v, accepted records %v; want 1 and %d", requests, accepted, len(texts))
	}
	if v := m["optimatch_core_plans_loaded"]; v != float64(len(texts)) {
		t.Fatalf("optimatch_core_plans_loaded = %v, want %d", v, len(texts))
	}
}

// TestBatchHammerRace mixes concurrent batch ingests with cached and
// bypassed KB scans; under -race it proves the snapshot/generation protocol
// holds with the full HTTP stack in the loop.
func TestBatchHammerRace(t *testing.T) {
	c := cache.New(cache.Config{MaxBytes: 16 << 20})
	eng := core.New()
	s := New(eng, nil, WithResultCache(c))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	const batches = 6
	var wg sync.WaitGroup
	for b := 0; b < batches; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			plans := fixtures.Numbered(4)
			texts := make([]string, len(plans))
			for i, p := range plans {
				texts[i] = qep.Text(fixtures.Renamed(p, fmt.Sprintf("H%d-%d", b, i)))
			}
			resp, br := postBatch(t, ts.URL, ndjson(t, texts...))
			if resp.StatusCode != http.StatusCreated || br.Accepted != len(texts) {
				t.Errorf("batch %d: status %d accepted %d", b, resp.StatusCode, br.Accepted)
			}
		}(b)
	}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			hdr := map[string]string{}
			if g%2 == 1 {
				hdr["Cache-Control"] = "no-cache" // bypass: always scans
			}
			for i := 0; i < 3; i++ {
				resp, _ := cacheReq(t, "POST", ts.URL+"/api/kb/run", "", hdr)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("kb/run: status %d", resp.StatusCode)
				}
			}
		}(g)
	}
	wg.Wait()
	if got, want := eng.NumPlans(), batches*4; got != want {
		t.Fatalf("NumPlans = %d, want %d", got, want)
	}
	// A final scan after the dust settles must see every plan exactly once.
	resp, body := cacheReq(t, "POST", ts.URL+"/api/kb/run", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("final kb/run: status %d", resp.StatusCode)
	}
	var reports []reportBody
	if err := json.Unmarshal([]byte(body), &reports); err != nil {
		t.Fatal(err)
	}
	if len(reports) != batches*4 {
		t.Fatalf("final scan reported %d plans, want %d", len(reports), batches*4)
	}
}
