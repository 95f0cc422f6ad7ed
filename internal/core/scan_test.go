package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"optimatch/internal/kb"
	"optimatch/internal/transform"
	"optimatch/internal/workload"
)

func generated(t *testing.T, cfg workload.Config) []*transform.Result {
	t.Helper()
	w, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return transform.TransformAll(w.Plans)
}

// renderReports serializes KB reports canonically so two engines can be
// compared byte for byte.
func renderReports(reports []PlanReport) string {
	var b strings.Builder
	for i := range reports {
		fmt.Fprintf(&b, "plan %s: %s\n", reports[i].Plan.ID, reports[i].Message())
		for _, rec := range reports[i].Recommendations {
			fmt.Fprintf(&b, "  [%s %.6f] %s: %s\n",
				rec.Entry.Name, rec.Confidence, rec.Recommendation.Title, rec.Text)
		}
	}
	return b.String()
}

// renderMatches flattens a match list, in order, to a canonical string.
func renderMatches(ms []Match) string {
	var b strings.Builder
	for i := range ms {
		b.WriteString(ms[i].String())
		b.WriteString("\n")
	}
	return b.String()
}

// sortedMatches renders FindSPARQL matches order-independently (for queries
// without a total ORDER BY, within-plan row order is not specified).
func sortedMatches(ms []Match) []string {
	out := make([]string, len(ms))
	for i := range ms {
		out[i] = ms[i].String()
	}
	sort.Strings(out)
	return out
}

// TestWorkerPoolParallel runs the bounded worker pool with more workers
// than this machine has cores and checks results against a serial engine —
// the pool must not change outcomes or order (also the race-detector
// coverage for the concurrent scan paths).
func TestWorkerPoolParallel(t *testing.T) {
	rs := generated(t, workload.Config{
		Seed: 3, NumPlans: 30, MinOps: 30, MaxOps: 80,
		InjectA: 5, InjectB: 4, InjectC: 6,
	})
	serial := New(WithWorkers(1))
	pooled := New(WithWorkers(4))
	for _, r := range rs {
		if err := serial.LoadResult(r); err != nil {
			t.Fatal(err)
		}
		if err := pooled.LoadResult(r); err != nil {
			t.Fatal(err)
		}
	}
	k := kb.MustExtended()
	sr, err := serial.RunKB(k)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := pooled.RunKB(k)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderReports(pr), renderReports(sr); got != want {
		t.Fatalf("worker pool changed KB reports:\n--- pooled ---\n%s--- serial ---\n%s", got, want)
	}
	q := transform.Prologue + `SELECT ?pop WHERE { ?pop preduri:hasJoinType "LEFT_OUTER" }`
	sm, err := serial.FindSPARQL(q)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := pooled.FindSPARQL(q)
	if err != nil {
		t.Fatal(err)
	}
	gs, ws := sortedMatches(pm), sortedMatches(sm)
	if len(gs) != len(ws) {
		t.Fatalf("worker pool: %d matches vs %d serial", len(gs), len(ws))
	}
	for i := range gs {
		if gs[i] != ws[i] {
			t.Fatalf("worker pool match %d differs: %s vs %s", i, gs[i], ws[i])
		}
	}
}

// TestQueryCacheReuse pins the parse-once behavior: the same query text
// yields the same parsed object across FindSPARQL calls.
func TestQueryCacheReuse(t *testing.T) {
	e := New()
	text := transform.Prologue + `SELECT ?pop WHERE { ?pop preduri:hasPopType "TBSCAN" }`
	q1, hit, err := e.queries.get(text)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("first lookup reported a cache hit")
	}
	q2, hit, err := e.queries.get(text)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("second lookup reported a cache miss")
	}
	if q1 != q2 {
		t.Error("query cache re-parsed identical text")
	}
	if _, _, err := e.queries.get("SELECT nonsense"); err == nil {
		t.Error("cache swallowed a parse error")
	}
	stats := e.CacheStats()
	if stats.Size != 1 {
		t.Errorf("cache size = %d, want 1", stats.Size)
	}
}
