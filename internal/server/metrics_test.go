package server

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"optimatch/internal/core"
	"optimatch/internal/fixtures"
	"optimatch/internal/obs"
	"optimatch/internal/pattern"
	"optimatch/internal/qep"
	"optimatch/internal/store"
)

// restated are the families deleted because another series already says what
// they said; TestOneSeriesPerFact reads each one's fact off what stays.
var restated = []string{
	"optimatch_core_pool_workers",
	"optimatch_core_pool_tasks_total",
	"optimatch_core_pool_fanouts_total",
	"optimatch_store_appended_records_total",
	"optimatch_store_fsyncs_total",
	"optimatch_store_compactions_total",
}

// TestStoreMetricsMove moves every optimatch_store_* family outside degraded
// mode (TestDegradedModeHTTPContract moves those three) to an exact value: an
// upload, a batch of two, a delete, a compaction, one more upload, then a
// restart over a torn WAL tail.
func TestStoreMetricsMove(t *testing.T) {
	dir := t.TempDir()
	open := func() (*store.Store, string) {
		reg := obs.NewRegistry()
		st, err := store.Open(dir, store.WithInstrumentation(StoreInstrumentation(reg)))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		ts := httptest.NewServer(New(st.Engine(), st.KB(), WithStore(st), WithMetrics(reg)).Handler())
		t.Cleanup(ts.Close)
		return st, ts.URL
	}
	expect := func(when string, m map[string]float64, want map[string]float64) {
		t.Helper()
		for series, v := range want {
			if got, ok := m[series]; !ok || got != v {
				t.Errorf("%s: %s = %v (present %v), want %v", when, series, got, ok, v)
			}
		}
	}

	st, url := open()
	plans := fixtures.All()
	postBody(t, url+"/api/plans", qep.Text(plans[0]), http.StatusCreated, nil)
	postBody(t, url+"/api/plans:batch", ndjson(t, qep.Text(plans[1]), qep.Text(plans[2])), http.StatusCreated, nil)
	doDelete(t, url+"/api/plans/"+plans[0].ID, http.StatusOK)
	m := scrape(t, url)
	expect("three mutations", m, map[string]float64{
		"optimatch_store_wal_append_seconds_count":              3,
		"optimatch_store_wal_fsync_seconds_count":               3,
		`optimatch_store_compaction_seconds_count{result="ok"}`: 0,
		"optimatch_store_wal_records":                           3,
		"optimatch_store_last_seq":                              3,
		"optimatch_store_generation":                            0,
		"optimatch_store_batch_appends_total":                   1,
		"optimatch_store_batch_plans_total":                     2,
		"optimatch_store_recovered_records_total":               0,
		"optimatch_store_recovery_truncations_total":            0,
	})
	appended := m["optimatch_store_appended_bytes_total"]
	if appended <= 0 || m["optimatch_store_wal_bytes"] != appended {
		t.Errorf("WAL holds %v bytes, %v appended: want equal and > 0", m["optimatch_store_wal_bytes"], appended)
	}

	postBody(t, url+"/api/admin/compact", "", http.StatusOK, nil)
	expect("compaction", scrape(t, url), map[string]float64{
		`optimatch_store_compaction_seconds_count{result="ok"}`:    1,
		`optimatch_store_compaction_seconds_count{result="error"}`: 0,
		"optimatch_store_generation":                               1,
		"optimatch_store_wal_records":                              0,
		"optimatch_store_wal_bytes":                                0,
		"optimatch_store_appended_bytes_total":                     appended,
		"optimatch_store_last_seq":                                 3,
	})

	postBody(t, url+"/api/plans", qep.Text(plans[3]), http.StatusCreated, nil)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	wal, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wal.WriteString("torn!"); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	_, url = open()
	m = scrape(t, url)
	expect("restart", m, map[string]float64{
		"optimatch_store_recovered_records_total":    1,
		"optimatch_store_recovery_truncations_total": 1,
		"optimatch_store_wal_records":                1,
		"optimatch_store_last_seq":                   4,
		"optimatch_store_generation":                 1,
		"optimatch_store_wal_append_seconds_count":   0,
		"optimatch_store_appended_bytes_total":       0,
	})
	if v := m["optimatch_store_recovery_seconds"]; v <= 0 {
		t.Errorf("optimatch_store_recovery_seconds = %v after a replay, want > 0", v)
	}
}

// TestOneSeriesPerFact reads the fact of every family in restated off the
// series that stay, on a server wired as optimatchd -data wires it, and checks
// that none of them is rendered. The store's Go counters and the engine's pool
// hook, which fed the deleted families, are the oracle.
func TestOneSeriesPerFact(t *testing.T) {
	const workers = 2
	reg := obs.NewRegistry()
	var (
		mu             sync.Mutex
		fanouts, tasks int
		eng            *core.Engine
	)
	hooks := EngineInstrumentation(reg)
	hooks.Pool = func(w, n int) {
		mu.Lock()
		defer mu.Unlock()
		fanouts++
		tasks += n
		// One fan-out is one scan of every plan loaded, on min(workers, plans).
		if plans := eng.NumPlans(); n != plans || w != max(min(workers, plans), 1) {
			t.Errorf("fan-out of %d tasks on %d workers with %d plans loaded", n, w, plans)
		}
	}
	st, err := store.Open(t.TempDir(),
		store.WithEngineOptions(core.WithWorkers(workers), core.WithInstrumentation(hooks)),
		store.WithInstrumentation(StoreInstrumentation(reg)),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	eng = st.Engine()
	ts := httptest.NewServer(New(eng, st.KB(), WithStore(st), WithMetrics(reg)).Handler())
	t.Cleanup(ts.Close)

	plans := fixtures.All()
	for _, p := range plans[:3] {
		postBody(t, ts.URL+"/api/plans", qep.Text(p), http.StatusCreated, nil)
	}
	postBody(t, ts.URL+"/api/plans:batch", ndjson(t, qep.Text(plans[3]), qep.Text(plans[4])), http.StatusCreated, nil)
	search, err := pattern.A().ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	postBody(t, ts.URL+"/api/search", string(search), http.StatusOK, nil)
	postBody(t, ts.URL+"/api/sparql", sortQuery, http.StatusOK, nil)
	postBody(t, ts.URL+"/api/kb/run", "", http.StatusOK, nil)
	postBody(t, ts.URL+"/api/admin/compact", "", http.StatusOK, nil)
	doDelete(t, ts.URL+"/api/plans/"+plans[0].ID, http.StatusOK)
	postBody(t, ts.URL+"/api/kb/run", "", http.StatusOK, nil)

	m := scrape(t, ts.URL)
	for _, family := range restated {
		for series := range m {
			if strings.HasPrefix(series, family) {
				t.Errorf("%s is rendered; its fact is another series'", series)
			}
		}
	}
	mu.Lock()
	defer mu.Unlock()
	stats := st.Stats()
	for _, c := range []struct {
		fact      string
		got, want float64
	}{
		// optimatch_core_pool_fanouts_total: one fan-out per scan.
		{"scans", m["optimatch_core_search_seconds_count"] + m["optimatch_core_kb_scan_seconds_count"], float64(fanouts)},
		// optimatch_store_appended_records_total and _fsyncs_total: one
		// record and one fsync per acknowledged mutation.
		{"appended records", m["optimatch_store_wal_append_seconds_count"], float64(stats.AppendedRecords)},
		{"fsyncs", m["optimatch_store_wal_fsync_seconds_count"], float64(stats.Fsyncs)},
		// optimatch_store_compactions_total.
		{"compactions", m[`optimatch_store_compaction_seconds_count{result="ok"}`], float64(stats.Compactions)},
		// The per-pair histogram counts the executions the evaluator counts.
		{"evaluated pairs", m["optimatch_core_plan_match_seconds_count"], m[`optimatch_sparql_eval_total{path="all"}`]},
	} {
		if c.got != c.want || c.want <= 0 {
			t.Errorf("%s: %v on /metrics, want %v (> 0)", c.fact, c.got, c.want)
		}
	}
	if want := 4*len(plans) - 1; tasks != want {
		t.Errorf("%d tasks over the four scans, want %d", tasks, want)
	}
}
