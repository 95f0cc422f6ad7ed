//go:build !race

package core

import (
	"runtime"
	"testing"

	"optimatch/internal/kb"
	"optimatch/internal/workload"
)

// parentScanBytes is what one RunKB(kb.MustExtended()) over the 16 plans
// below allocated at commit 555699b, the last one with the level-at-a-time
// evaluator (one heap row per intermediate binding), measured by this test's
// own loop.
const parentScanBytes = 8_948_707

// TestAllocBudgetKBScan pins the knowledge-base scan's allocation volume
// against the evaluator it replaced: at most 60 % of the parent's bytes per
// scan. (Outside the race build, whose instrumentation allocates.)
func TestAllocBudgetKBScan(t *testing.T) {
	w, err := workload.Generate(workload.Config{
		Seed: 14, NumPlans: 16, InjectA: 3, InjectB: 2, InjectC: 3, InjectD: 2, InjectG: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := New()
	if err := e.LoadPlans(w.Plans); err != nil {
		t.Fatal(err)
	}
	k := kb.MustExtended()
	scan := func() {
		if _, err := e.RunKB(k); err != nil {
			t.Fatal(err)
		}
	}
	scan() // warm-up: query cache, pooled evaluation contexts

	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		scan()
	}
	runtime.ReadMemStats(&after)
	perScan := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes per scan (parent: %d)", perScan, parentScanBytes)
	if perScan > parentScanBytes*6/10 {
		t.Errorf("a scan allocates %d bytes, budget %d (60%% of the parent's %d)", perScan, parentScanBytes*6/10, parentScanBytes)
	}
}
