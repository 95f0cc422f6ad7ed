package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"optimatch/internal/cache"
	"optimatch/internal/core"
	"optimatch/internal/fixtures"
	"optimatch/internal/kb"
	"optimatch/internal/obs"
	"optimatch/internal/pattern"
	"optimatch/internal/qep"
	"optimatch/internal/store"
)

// answer is what TestMemoryAndDurableAnswerAlike compares per request.
type answer struct {
	status             int
	body, xCache, etag string // etag with the server's epoch masked
}

// TestMemoryAndDurableAnswerAlike runs one scripted sequence against a server
// over a memory store and one over a durable store: since both mutate through
// the same store code, every request answers with the same status, body,
// X-Cache and (epoch-masked) ETag. /metrics, compact and reopen then differ
// exactly where DESIGN.md §9 says they do.
func TestMemoryAndDurableAnswerAlike(t *testing.T) {
	newCache := func() Option { return WithResultCache(cache.New(cache.Config{MaxBytes: 16 << 20})) }
	mem := New(core.New(), nil, newCache(), WithMetrics(obs.NewRegistry()))
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	dur := New(st.Engine(), st.KB(), WithStore(st), newCache(), WithMetrics(obs.NewRegistry()))
	servers := []*Server{mem, dur}
	urls := make([]string, len(servers))
	lastETag := make([]string, len(servers))
	for i, s := range servers {
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	ask := func(i int, method, path, body string, conditional bool) answer {
		t.Helper()
		hdr := map[string]string{}
		if conditional {
			hdr["If-None-Match"] = lastETag[i]
		}
		resp, got := cacheReq(t, method, urls[i]+path, body, hdr)
		etag := resp.Header.Get("ETag")
		if etag != "" {
			lastETag[i] = etag
		}
		epoch := "-" + strconv.FormatUint(servers[i].epoch, 16) + "-"
		return answer{resp.StatusCode, got, resp.Header.Get("X-Cache"), strings.Replace(etag, epoch, "-EPOCH-", 1)}
	}

	type step struct {
		method, path, body string
		conditional        bool // send the server's last ETag as If-None-Match
		want               int
	}
	var script []step
	entryBody := func(p *pattern.Pattern, template string) string {
		b, err := json.Marshal(addEntryRequest{Pattern: p, Recommendations: []kb.Recommendation{{Title: "t", Template: template}}})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	ndjson := func(texts ...string) string {
		var b strings.Builder
		for _, text := range texts {
			line, err := json.Marshal(text)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(line)
			b.WriteByte('\n')
		}
		return b.String()
	}

	plans := fixtures.All()
	for _, p := range plans {
		script = append(script, step{"POST", "/api/plans", qep.Text(p), false, http.StatusCreated})
	}
	extra := qep.Text(fixtures.SharedTemp())
	inapplicable := pattern.A()
	inapplicable.Name = "cost-of-a-table"
	poisoned := `{"pattern":{"name":"poison","pops":[{"ID":1,"type":"NLJOIN","popProperties":[` +
		`{"id":"hasTotalCost","sign":">","value":"Inf"}]}]},"recommendations":[{"title":"t","template":"look at @TOP"}]}`
	script = append(script,
		step{"POST", "/api/plans", qep.Text(plans[0]), false, http.StatusConflict},
		// A table duplicate, a new plan, its intra-batch duplicate, an unparsable text.
		step{"POST", "/api/plans:batch", ndjson(qep.Text(plans[0]), extra, extra, "not a plan"), false, http.StatusMultiStatus},
		step{"DELETE", "/api/plans/Q9", "", false, http.StatusOK},
		step{"DELETE", "/api/plans/Q9", "", false, http.StatusNotFound},
		step{"POST", "/api/kb/entries", entryBody(pattern.F(), "check @TOP shared by @CONSUMER2 and @CONSUMER3"), false, http.StatusCreated},
		step{"POST", "/api/kb/entries", poisoned, false, http.StatusUnprocessableEntity},
		step{"POST", "/api/kb/entries", entryBody(pattern.F(), "again @TOP"), false, http.StatusUnprocessableEntity},
		step{"POST", "/api/kb/entries", entryBody(inapplicable, "@BASE4 costs @BASE4.COST"), false, http.StatusCreated},
		step{"DELETE", "/api/kb/entries/loj-both-sides", "", false, http.StatusOK},
		step{"DELETE", "/api/kb/entries/loj-both-sides", "", false, http.StatusNotFound},
	)
	for _, p := range []*pattern.Pattern{pattern.A(), pattern.B(), pattern.C(), pattern.D()} {
		b, err := p.ToJSON()
		if err != nil {
			t.Fatal(err)
		}
		script = append(script, step{"POST", "/api/search", string(b), false, http.StatusOK})
	}
	leftOuter := `PREFIX preduri: <http://optimatch/pred/>
SELECT ?pop WHERE { ?pop preduri:hasJoinType "LEFT_OUTER" }`
	script = append(script,
		step{"POST", "/api/sparql", sortQuery, false, http.StatusOK},
		step{"POST", "/api/sparql", leftOuter, false, http.StatusOK},
		step{"POST", "/api/kb/run", "", false, http.StatusOK},
		step{"POST", "/api/kb/run", "", false, http.StatusOK}, // a hit on both
		step{"GET", "/api/plans", "", false, http.StatusOK},
		step{"GET", "/api/kb", "", false, http.StatusOK},
		step{"GET", "/readyz", "", false, http.StatusOK},
	)
	for _, id := range []string{"Q2", "Q21", "Q8", "Q0", "QCSE"} {
		script = append(script, step{"GET", "/api/plans/" + url.PathEscape(id) + "/rdf", "", false, http.StatusOK})
	}
	script = append(script, step{"GET", "/api/plans/QCSE/rdf", "", true, http.StatusNotModified})

	for n, sp := range script {
		var got []answer
		for i := range servers {
			got = append(got, ask(i, sp.method, sp.path, sp.body, sp.conditional))
		}
		if got[0] != got[1] {
			t.Errorf("step %d, %s %s: memory and durable answer differently:\nmemory:  %d X-Cache %q ETag %q\n%.600s\ndurable: %d X-Cache %q ETag %q\n%.600s",
				n, sp.method, sp.path, got[0].status, got[0].xCache, got[0].etag, got[0].body,
				got[1].status, got[1].xCache, got[1].etag, got[1].body)
		}
		if got[0].status != sp.want {
			t.Errorf("step %d, %s %s: status %d, want %d:\n%.600s", n, sp.method, sp.path, got[0].status, sp.want, got[0].body)
		}
	}

	// /metrics: the same series with the same values, plus optimatch_store_*
	// where there is a disk. Only latencies differ — the buckets and sums of
	// the _seconds histograms — and the cache's charged bytes, which count
	// keys that name each knowledge base's process-unique ID.
	memSeries, durSeries := scrape(t, urls[0]), scrape(t, urls[1])
	for _, m := range []map[string]float64{memSeries, durSeries} {
		if m["optimatch_cache_bytes"] <= 0 {
			t.Errorf("optimatch_cache_bytes = %v with %v entries", m["optimatch_cache_bytes"], m["optimatch_cache_entries"])
		}
		delete(m, "optimatch_cache_bytes")
	}
	stored := 0
	for series := range durSeries {
		if strings.HasPrefix(series, "optimatch_store_") {
			delete(durSeries, series)
			stored++
		}
	}
	if stored == 0 {
		t.Error("durable /metrics has no optimatch_store_* series")
	}
	timing := regexp.MustCompile(`_seconds_(bucket|sum)\b`)
	for _, m := range []map[string]float64{memSeries, durSeries} {
		for series := range m {
			if timing.MatchString(series) {
				delete(m, series)
			}
		}
	}
	if !reflect.DeepEqual(memSeries, durSeries) {
		t.Errorf("/metrics differs outside optimatch_store_* and latencies:\nmemory:  %v\ndurable: %v", memSeries, durSeries)
	}

	// Compact and reopen need a disk: 501 in memory, 200 durable. Neither
	// moves the generation, so the next kb/run is still a hit on both.
	for _, path := range []string{"/api/admin/compact", "/api/admin/reopen"} {
		if a := ask(0, "POST", path, "", false); a.status != http.StatusNotImplemented || !strings.Contains(a.body, "-data") {
			t.Errorf("memory %s = %d %s, want 501 naming -data", path, a.status, a.body)
		}
		if a := ask(1, "POST", path, "", false); a.status != http.StatusOK {
			t.Errorf("durable %s = %d %s, want 200", path, a.status, a.body)
		}
	}
	if a, b := ask(0, "POST", "/api/kb/run", "", false), ask(1, "POST", "/api/kb/run", "", false); a != b || a.xCache != "hit" {
		t.Errorf("kb/run after compact: memory X-Cache %q, durable %q, bodies equal %v; want two equal hits", a.xCache, b.xCache, a.body == b.body)
	}
}
