//go:build !race

package core

import (
	"runtime"
	"testing"

	"optimatch/internal/kb"
	"optimatch/internal/workload"
)

// scanBytesBudget bounds what one RunKB(kb.MustExtended()) over the 16 plans
// below may allocate, measured by this test's own loop: 406 472 B when the
// budget was set (the occurrences' binding maps, fingerprints and rendered
// recommendations — the evaluator itself runs on pooled scratch), with a tenth
// of headroom. The level-at-a-time evaluator of commit 555699b, one heap row
// per intermediate binding, allocated 8 948 707 B; building every occurrence's
// fingerprint inside the sort's comparator cost 16 139 B of the 422 611 B
// measured before SortOccurrences built each once.
const scanBytesBudget = 450_000

// TestAllocBudgetKBScan pins the knowledge-base scan's allocation volume.
// (Outside the race build, whose instrumentation allocates.)
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
	t.Logf("%d bytes per scan", perScan)
	if perScan > scanBytesBudget {
		t.Errorf("a scan allocates %d bytes, budget %d", perScan, scanBytesBudget)
	}
}
