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

// twinEngines loads the same transformed workload into a default engine and
// a reference engine that evaluates every (plan, query) pair
// (WithPrefilter(false)).
func twinEngines(t *testing.T, rs []*transform.Result) (fast, slow *Engine) {
	t.Helper()
	fast = New()
	slow = New(WithPrefilter(false))
	for _, r := range rs {
		if err := fast.LoadResult(r); err != nil {
			t.Fatal(err)
		}
		if err := slow.LoadResult(r); err != nil {
			t.Fatal(err)
		}
	}
	return fast, slow
}

func generated(t *testing.T, cfg workload.Config) []*transform.Result {
	t.Helper()
	w, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return transform.TransformAll(w.Plans)
}

// renderReports serializes KB reports canonically so the accelerated and
// baseline paths can be compared byte for byte.
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

// TestPrefilterSoundnessKB is the property test for the vocabulary
// prefilter: over generated workloads at several seeds, scanning the full
// knowledge base with the prefilter must produce byte-identical reports to
// the engine that evaluates every pair. That the required-constant verdict
// itself never rules out a pair with matches is checked against the reference
// evaluator in internal/sparql (TestRequiredConstantSoundness).
func TestPrefilterSoundnessKB(t *testing.T) {
	k := kb.MustExtended()
	for _, seed := range []int64{1, 7, 2016} {
		cfg := workload.Config{
			Seed: seed, NumPlans: 40, MinOps: 30, MaxOps: 90,
			InjectA: 6, InjectB: 5, InjectC: 7, InjectD: 4, InjectG: 3,
		}
		rs := generated(t, cfg)
		fast, slow := twinEngines(t, rs)

		fastReports, err := fast.RunKB(k)
		if err != nil {
			t.Fatalf("seed %d: accelerated RunKB: %v", seed, err)
		}
		slowReports, err := slow.RunKB(k)
		if err != nil {
			t.Fatalf("seed %d: baseline RunKB: %v", seed, err)
		}
		if got, want := renderReports(fastReports), renderReports(slowReports); got != want {
			t.Fatalf("seed %d: reports differ between prefilter on and off:\n--- accelerated ---\n%s--- baseline ---\n%s",
				seed, got, want)
		}

		stats := fast.PrefilterStats()
		if stats.Probed == 0 {
			t.Fatalf("seed %d: prefilter never probed", seed)
		}
		if off := slow.PrefilterStats(); off.Probed != 0 || off.Skipped != 0 {
			t.Fatalf("seed %d: disabled prefilter recorded stats %+v", seed, off)
		}
	}
}

// TestPrefilterSoundnessQueries exercises FindSPARQL equivalence on queries
// chosen to probe the analyzer's blind spots: constants that exist nowhere
// in the workload but appear only under OPTIONAL or in one UNION branch must
// not be treated as required (the prefilter must not skip plans for them).
func TestPrefilterSoundnessQueries(t *testing.T) {
	rs := generated(t, workload.Config{
		Seed: 11, NumPlans: 25, MinOps: 30, MaxOps: 80,
		InjectA: 4, InjectB: 3, InjectC: 5,
	})
	fast, slow := twinEngines(t, rs)

	queries := []string{
		// Constant only under OPTIONAL; "NO_SUCH_TYPE" is in no graph.
		transform.Prologue + `
SELECT ?pop ?x WHERE {
  ?pop preduri:hasPopType "NLJOIN" .
  OPTIONAL { ?pop preduri:hasPopType "NO_SUCH_TYPE" . ?pop preduri:hasPopType ?x }
}`,
		// Constant in one UNION branch only.
		transform.Prologue + `
SELECT ?pop WHERE {
  { ?pop preduri:hasPopType "NO_SUCH_TYPE" } UNION { ?pop preduri:hasPopType "TBSCAN" }
}`,
		// Absent constant under NOT EXISTS: filters nothing out.
		transform.Prologue + `
SELECT ?pop WHERE {
  ?pop preduri:hasPopType "HSJOIN" .
  FILTER NOT EXISTS { ?pop preduri:hasPopType "NO_SUCH_TYPE" }
}`,
		// Zero-or-more path over a predicate absent from some graphs.
		transform.Prologue + `
SELECT ?pop WHERE {
  ?pop preduri:hasPopType "TBSCAN" .
  ?pop preduri:hasChildPop* ?desc .
  ?desc preduri:isABaseObj true .
}`,
		// Required constant genuinely absent everywhere: zero matches, and
		// the prefilter should skip every plan.
		transform.Prologue + `
SELECT ?pop WHERE { ?pop preduri:hasPopType "NO_SUCH_TYPE" }`,
	}
	for qi, text := range queries {
		fastMs, err := fast.FindSPARQL(text)
		if err != nil {
			t.Fatalf("query %d: accelerated: %v", qi, err)
		}
		slowMs, err := slow.FindSPARQL(text)
		if err != nil {
			t.Fatalf("query %d: baseline: %v", qi, err)
		}
		got, want := sortedMatches(fastMs), sortedMatches(slowMs)
		if len(got) != len(want) {
			t.Fatalf("query %d: %d matches (accelerated) vs %d (baseline)", qi, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %d: match %d differs:\n  accelerated: %s\n  baseline:    %s",
					qi, i, got[i], want[i])
			}
		}
	}

	if stats := fast.PrefilterStats(); stats.Skipped == 0 {
		t.Error("prefilter skipped nothing across queries with absent required constants")
	}
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
