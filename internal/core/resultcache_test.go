package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"optimatch/internal/cache"
	"optimatch/internal/fixtures"
	"optimatch/internal/kb"
)

func cachedEngine(t *testing.T, opts ...Option) (*Engine, *cache.Cache) {
	t.Helper()
	c := cache.New(cache.Config{MaxBytes: 32 << 20})
	eng := New(append([]Option{WithResultCache(c)}, opts...)...)
	if err := eng.LoadPlans(fixtures.All()); err != nil {
		t.Fatal(err)
	}
	return eng, c
}

// renderMatches flattens a match list to a canonical string so cached and
// uncached results can be compared byte for byte.
func renderMatches(ms []Match) string {
	var b strings.Builder
	for i := range ms {
		b.WriteString(ms[i].String())
		b.WriteString("\n")
	}
	return b.String()
}

func TestResultCacheSearchHit(t *testing.T) {
	eng, c := cachedEngine(t)
	query := kb.MustCanonical().Entries()[0].SPARQL

	first, err := eng.FindSPARQL(query)
	if err != nil {
		t.Fatal(err)
	}
	second, err := eng.FindSPARQL(query)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 miss then 1 hit", st)
	}
	if renderMatches(first) != renderMatches(second) {
		t.Fatalf("cached result differs:\n%s\nvs\n%s", renderMatches(first), renderMatches(second))
	}
}

func TestResultCacheKBScanHit(t *testing.T) {
	eng, c := cachedEngine(t)
	base := kb.MustExtended()

	first, err := eng.RunKB(base)
	if err != nil {
		t.Fatal(err)
	}
	second, err := eng.RunKB(base)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 hit", st)
	}
	if renderReports(first) != renderReports(second) {
		t.Fatal("cached KB report differs from original")
	}
}

// A plan mutation must orphan cached results: the next identical request
// re-executes against the new plan set instead of serving the stale entry.
func TestResultCacheGenerationKeying(t *testing.T) {
	eng, c := cachedEngine(t)
	// Matches every plan with a SORT operator; the renamed SortSpill plan
	// loaded below adds one, so a fresh scan must see it.
	query := `PREFIX preduri: <http://optimatch/pred/>
SELECT ?s WHERE { ?s preduri:hasPopType "SORT" }`

	if _, err := eng.FindSPARQL(query); err != nil {
		t.Fatal(err)
	}
	gen := eng.Generation()
	if err := eng.LoadPlan(fixtures.Renamed(fixtures.SortSpill(), "GEN-EXTRA")); err != nil {
		t.Fatal(err)
	}
	if eng.Generation() == gen {
		t.Fatal("LoadPlan did not bump the generation")
	}
	ms, err := eng.FindSPARQL(query)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("stats after mutation = %+v, want 2 misses, 0 hits", st)
	}
	found := false
	for i := range ms {
		if ms[i].Plan.ID == "GEN-EXTRA" {
			found = true
		}
	}
	if !found {
		t.Fatal("post-mutation scan missed the newly loaded plan")
	}

	if !eng.RemovePlan("GEN-EXTRA") {
		t.Fatal("RemovePlan failed")
	}
	ms, err = eng.FindSPARQL(query)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ms {
		if ms[i].Plan.ID == "GEN-EXTRA" {
			t.Fatal("scan after removal still reports the removed plan")
		}
	}
}

// A KB mutation changes the snapshot's cache key even at a fixed plan set.
func TestResultCacheKBKeying(t *testing.T) {
	eng, c := cachedEngine(t)
	base := kb.MustCanonical()
	if _, err := eng.RunKB(base.Snapshot()); err != nil {
		t.Fatal(err)
	}

	extra := kb.MustExtended().Entries()[len(kb.MustExtended().Entries())-1]
	if base.Entry(extra.Name) != nil {
		t.Fatalf("test entry %q already in canonical KB", extra.Name)
	}
	if _, err := base.Add(extra.Pattern, extra.Recommendations...); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunKB(base.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 2 misses (mutated KB must not hit)", st)
	}
}

// TestResultCacheBypassContext checks the per-call bypass: a
// bypassing context runs uncached and returns a byte-identical report.
func TestResultCacheBypassContext(t *testing.T) {
	eng, c := cachedEngine(t)
	base := kb.MustExtended().Snapshot()

	cached, err := eng.RunKBContext(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	uncached, err := eng.RunKBContext(cache.WithBypass(context.Background()), base)
	if err != nil {
		t.Fatal(err)
	}
	if renderReports(cached) != renderReports(uncached) {
		t.Fatal("bypassed execution differs from cached result at the same generation")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want bypass to leave counters at 1 miss", st)
	}
}

// TestResultCacheHammer interleaves plan and KB mutations with cached and
// uncached reads under the race detector, asserting every cached response
// is byte-identical to an uncached re-execution at the same generation.
func TestResultCacheHammer(t *testing.T) {
	eng, _ := cachedEngine(t)
	query := kb.MustCanonical().Entries()[0].SPARQL

	// kbMu guards the shared KnowledgeBase (like the server's s.mu): the
	// KB type itself is mutably unsynchronized by design.
	var kbMu sync.Mutex
	base := kb.MustCanonical()
	extra := kb.MustExtended().Entries()[len(kb.MustExtended().Entries())-1]

	// seen maps a stable (generation, kb key, kind) observation to its
	// rendered result; every later observation at the same key — cached or
	// not — must render identically.
	var seen sync.Map
	record := func(t *testing.T, key, rendered string) {
		t.Helper()
		if prev, loaded := seen.LoadOrStore(key, rendered); loaded && prev.(string) != rendered {
			t.Errorf("divergent results at %s:\n--- first\n%s\n--- now\n%s", key, prev, rendered)
		}
	}

	const (
		readers  = 4
		mutators = 2
		iters    = 60
	)
	deadline := time.Now().Add(10 * time.Second)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < iters && time.Now().Before(deadline); i++ {
				ctx := context.Background()
				tag := "cached"
				if i%2 == 1 {
					ctx = cache.WithBypass(ctx)
					tag = "bypass"
				}
				_ = tag

				genBefore := eng.Generation()
				ms, err := eng.FindSPARQLContext(ctx, query)
				if err != nil {
					t.Error(err)
					return
				}
				if eng.Generation() == genBefore {
					record(t, fmt.Sprintf("q/%d", genBefore), renderMatches(ms))
				}

				kbMu.Lock()
				snap := base.Snapshot()
				kbMu.Unlock()
				genBefore = eng.Generation()
				reports, err := eng.RunKBContext(ctx, snap)
				if err != nil {
					t.Error(err)
					return
				}
				if eng.Generation() == genBefore {
					record(t, fmt.Sprintf("kb/%d/%s", genBefore, snap.CacheKey()), renderReports(reports))
				}
			}
		}(r)
	}
	for m := 0; m < mutators; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			for i := 0; i < iters && time.Now().Before(deadline); i++ {
				if m == 0 {
					id := fmt.Sprintf("HAMMER-%d", i)
					if err := eng.LoadPlan(fixtures.Renamed(fixtures.Figure8(), id)); err != nil {
						t.Error(err)
						return
					}
					if !eng.RemovePlan(id) {
						t.Errorf("RemovePlan(%s) failed", id)
						return
					}
				} else {
					kbMu.Lock()
					if _, err := base.Add(extra.Pattern, extra.Recommendations...); err != nil {
						kbMu.Unlock()
						t.Error(err)
						return
					}
					base.Remove(extra.Name)
					kbMu.Unlock()
				}
			}
		}(m)
	}
	wg.Wait()
}
