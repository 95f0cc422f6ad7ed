package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sort"
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
// X-Cache and (epoch-masked) ETag. /api/stats, /metrics, compact and reopen
// then differ exactly where DESIGN.md §9 says they do.
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

	// /api/stats: the same document, plus a store group where there is a disk.
	var stats []map[string]json.RawMessage
	for i := range servers {
		var m map[string]json.RawMessage
		if a := ask(i, "GET", "/api/stats", "", false); a.status != http.StatusOK || json.Unmarshal([]byte(a.body), &m) != nil {
			t.Fatalf("/api/stats = %d %s", a.status, a.body)
		}
		stats = append(stats, m)
	}
	if _, ok := stats[0]["store"]; ok {
		t.Error("memory /api/stats has a store group")
	}
	if _, ok := stats[1]["store"]; !ok {
		t.Error("durable /api/stats has no store group")
	}
	delete(stats[1], "store")
	if !reflect.DeepEqual(stats[0], stats[1]) {
		t.Errorf("/api/stats differs outside the store group:\nmemory:  %s\ndurable: %s", stats[0], stats[1])
	}

	// /metrics: the same series, plus optimatch_store_* where there is a disk.
	var series [][]string
	for i := range servers {
		a := ask(i, "GET", "/metrics", "", false)
		var names []string
		for _, line := range strings.Split(a.body, "\n") {
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			names = append(names, strings.FieldsFunc(line, func(r rune) bool { return r == '{' || r == ' ' })[0])
		}
		sort.Strings(names)
		series = append(series, names)
	}
	var durableOnly []string
	for _, name := range series[1] {
		if strings.HasPrefix(name, "optimatch_store_") {
			durableOnly = append(durableOnly, name)
		}
	}
	if len(durableOnly) == 0 {
		t.Error("durable /metrics has no optimatch_store_* series")
	}
	for _, name := range series[0] {
		if strings.HasPrefix(name, "optimatch_store_") {
			t.Errorf("memory /metrics has %s", name)
		}
	}
	if len(series[0])+len(durableOnly) != len(series[1]) {
		t.Errorf("/metrics series differ outside optimatch_store_*:\nmemory:  %v\ndurable: %v", series[0], series[1])
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
