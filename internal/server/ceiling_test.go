package server

import (
	"bytes"
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"optimatch/internal/cache"
	"optimatch/internal/core"
	"optimatch/internal/fixtures"
	"optimatch/internal/qep"
	"optimatch/internal/sparql"
	"optimatch/internal/workload"
)

// TestAnswerCeilingBoundary: a match body of limit-1 or limit bytes is
// appended whole, one of limit+1 bytes is refused with an error naming the
// limit, and a limit inside the rows stops the append at the first row that
// passes it.
func TestAnswerCeilingBoundary(t *testing.T) {
	eng := core.New()
	if err := eng.LoadPlans(fixtures.All()); err != nil {
		t.Fatal(err)
	}
	q, err := sparql.Parse(`PREFIX preduri: <http://optimatch/pred/>
SELECT ?pop ?type WHERE { ?pop preduri:hasPopType ?type }`)
	if err != nil {
		t.Fatal(err)
	}
	matches, err := eng.FindSPARQL(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	name := "pop types"
	full, err := appendMatchBody(nil, matches, &name, math.MaxInt)
	if err != nil || len(matches) < 10 {
		t.Fatalf("%d matches, %v", len(matches), err)
	}
	n := len(full)
	for _, limit := range []int{n + 1, n, n - 1} { // the body is limit-1, limit and limit+1 bytes
		got, err := appendMatchBody([]byte("prefix"), matches, &name, limit)
		if n <= limit {
			if err != nil || !bytes.Equal(got[len("prefix"):], full) {
				t.Errorf("body %d bytes against limit %d: %v", n, limit, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), strconv.Itoa(limit)) {
			t.Errorf("body %d bytes against limit %d: error %v, want one naming the limit", n, limit, err)
		}
	}

	// Row ends are where a row's closing brace stands: strings hold no raw
	// newline, so "\n    }" occurs nowhere else.
	var ends []int
	for i := 0; ; {
		k := bytes.Index(full[i:], []byte("\n    }"))
		if k < 0 {
			break
		}
		i += k + len("\n    }")
		ends = append(ends, i)
	}
	if len(ends) != len(matches) {
		t.Fatalf("%d row ends for %d matches", len(ends), len(matches))
	}
	limit := ends[len(ends)/2] - 1 // the middle row passes it by one byte
	got, err := appendMatchBody(nil, matches, &name, limit)
	if err == nil || len(got) != ends[len(ends)/2] || !bytes.HasPrefix(full, got) {
		t.Errorf("limit %d: stopped after %d bytes (%v), want the %d that end the first row past it",
			limit, len(got), err, ends[len(ends)/2])
	}
}

// TestAnswerOverCeiling is the regression test for a 32 MB answer, made of
// many plans now that one plan's rows stop at the row ceiling: a query of
// every triple over 40 resident plans, each answering a few thousand rows,
// answers 422 naming the byte ceiling, and neither the error nor the body it
// refused is cached.
func TestAnswerOverCeiling(t *testing.T) {
	w, err := workload.Generate(workload.Config{Seed: 1, NumPlans: 40})
	if err != nil {
		t.Fatal(err)
	}
	eng := core.New()
	if err := eng.LoadPlans(w.Plans); err != nil {
		t.Fatal(err)
	}
	const query = `SELECT * WHERE { ?a ?b ?c }`
	q, err := sparql.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	matches, err := eng.FindSPARQL(context.Background(), q)
	if err != nil {
		t.Fatalf("no plan may reach the row ceiling: %v", err)
	}
	if full, _ := appendMatchBody(nil, matches, nil, math.MaxInt); len(full) <= maxAnswerBytes {
		t.Fatalf("the whole answer is %d bytes, not past the ceiling", len(full))
	}
	c := cache.New(cache.Config{MaxBytes: 64 << 20})
	ts := httptest.NewServer(New(eng, nil, WithResultCache(c)).Handler())
	t.Cleanup(ts.Close)
	for i := 0; i < 2; i++ {
		resp, body := cacheReq(t, "POST", ts.URL+"/api/sparql", query, nil)
		if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(body, strconv.Itoa(maxAnswerBytes)) {
			t.Fatalf("request %d: status %d, %d bytes: %.200s", i, resp.StatusCode, len(body), body)
		}
		if got := resp.Header.Get("X-Cache"); got != "" {
			t.Errorf("request %d: X-Cache %q on an error", i, got)
		}
	}
	if st := c.Stats(); st.Misses != 2 || st.Entries != 0 {
		t.Errorf("cache: %d misses, %d entries; want both requests rendered and nothing stored", st.Misses, st.Entries)
	}
}

// TestRowCeilingOverOnePlan is the regression test for the query the byte
// ceiling was first met with: a join with no shared variable over one
// resident plan, whose rows are the product of two triple counts (≈ 700 000).
// It answers 422 naming the row ceiling, is not cached, and is refused after
// sparql.MaxRows rows are built, not all of them: the request allocates 16 MB
// where it allocated 153 MB (≈ 100 MB peak heap) with every row built.
func TestRowCeilingOverOnePlan(t *testing.T) {
	w, err := workload.Generate(workload.Config{Seed: 1, NumPlans: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := cache.New(cache.Config{MaxBytes: 64 << 20})
	ts := httptest.NewServer(New(core.New(), nil, WithResultCache(c)).Handler())
	t.Cleanup(ts.Close)
	if resp, body := cacheReq(t, "POST", ts.URL+"/api/plans", qep.Text(w.Plans[0]), nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %d %s", resp.StatusCode, body)
	}
	const query = `PREFIX preduri: <http://optimatch/pred/>
SELECT * WHERE { ?a ?b ?c . ?d preduri:hasTotalCost ?f }`
	for i := 0; i < 2; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp, body := cacheReq(t, "POST", ts.URL+"/api/sparql", query, nil)
		runtime.ReadMemStats(&after)
		if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(body, strconv.Itoa(sparql.MaxRows)) {
			t.Fatalf("request %d: status %d, %d bytes: %.200s", i, resp.StatusCode, len(body), body)
		}
		if got := resp.Header.Get("X-Cache"); got != "" {
			t.Errorf("request %d: X-Cache %q on an error", i, got)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 32<<20 {
			t.Errorf("request %d allocated %d MB, budget 32: more rows were built than the ceiling lets through", i, alloc>>20)
		}
	}
	if st := c.Stats(); st.Misses != 2 || st.Entries != 0 {
		t.Errorf("cache: %d misses, %d entries; want both requests rendered and nothing stored", st.Misses, st.Entries)
	}
}
