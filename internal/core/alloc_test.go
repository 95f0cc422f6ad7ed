//go:build !race

package core

import (
	"context"
	"runtime"
	"testing"

	"optimatch/internal/fixtures"
	"optimatch/internal/kb"
	"optimatch/internal/pattern"
	"optimatch/internal/qep"
	"optimatch/internal/workload"
)

// TestAllocBudgetKBScan pins what one warm RunKB allocates (outside the race
// build, whose instrumentation allocates), budgets being the measurement when
// they were set plus a tenth.
//
// extended: kb.MustExtended() over 16 generated plans allocated 332 145 B in
// 5 502 allocations — the result rows, the rendered recommendations and their
// features; an occurrence is a view of its row and the evaluator runs on
// pooled scratch. While every occurrence was a fresh alias -> term map, sorted
// on a fingerprint string built per occurrence, the scan allocated 402 302 B
// in 6 173 allocations; building the fingerprints inside the sort's comparator
// had cost 16 139 B more. The level-at-a-time evaluator of commit 555699b, one
// heap row per intermediate binding, allocated 8 948 707 B.
//
// variants: 300 entries over 8 fixture plans allocated 621 885 B in 9 054
// allocations, with the entries whose guard found nothing skipped; evaluating
// all 2 400 pairs allocated 820 896 B in 12 635 (1 213 380 B in 13 834 with
// binding maps). A scan reads each entry's parsed query, column table and
// guard off the knowledge base, so an entry costs what it costs in a knowledge
// base of 14. When the engine resolved entry text
// through an LRU of 256 parsed queries, a scan of 257 or more entries — walked
// in order — evicted every query before its next use and parsed the whole
// knowledge base again: 9 640 349 B in 68 145 allocations here, against
// 928 184 B in 11 530 at 250 entries.
func TestAllocBudgetKBScan(t *testing.T) {
	w, err := workload.Generate(workload.Config{
		Seed: 14, NumPlans: 16, InjectA: 3, InjectB: 2, InjectC: 3, InjectD: 2, InjectG: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name          string
		plans         []*qep.Plan
		k             *kb.KnowledgeBase
		bytes, allocs uint64
	}{
		{"extended", w.Plans, kb.MustExtended(), 365_000, 6_050},
		{"variants", fixtures.Numbered(8), variantKB(t, 300), 684_000, 9_960},
	} {
		e := New()
		if err := e.LoadPlans(tc.plans); err != nil {
			t.Fatal(err)
		}
		scan := func() {
			if _, err := e.RunKB(context.Background(), tc.k); err != nil {
				t.Fatal(err)
			}
		}
		scan() // warm-up: pooled evaluation contexts

		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			scan()
		}
		runtime.ReadMemStats(&after)
		bytes, allocs := (after.TotalAlloc-before.TotalAlloc)/runs, (after.Mallocs-before.Mallocs)/runs
		t.Logf("%s: %d bytes, %d allocations per scan", tc.name, bytes, allocs)
		if bytes > tc.bytes || allocs > tc.allocs {
			t.Errorf("%s: a scan allocates %d bytes in %d allocations, budget %d in %d", tc.name, bytes, allocs, tc.bytes, tc.allocs)
		}
	}
}

// TestAllocBudgetFindPattern pins what one warm pass of the extended
// patterns' matching allocates over the 16 plans of TestAllocBudgetKBScan, on
// queries compiled beforehand: FindPattern less its Compile, which would drown
// the rest. What is left is the result rows and one match list per pass: a
// match is a view of its row, with nothing allocated per match or per column.
//
// 164 814 B in 3 935 allocations when it was set. While every match carried
// its columns de-transformed up front — a []Binding per match and a display
// string per operator column — the same pass allocated 208 132 B in 4 599.
func TestAllocBudgetFindPattern(t *testing.T) {
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
	var compiled []*pattern.Compiled
	for _, p := range pattern.Extended() {
		c, err := pattern.Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		compiled = append(compiled, c)
	}
	matches := 0
	find := func() {
		matches = 0
		for _, c := range compiled {
			ms, err := e.FindCompiled(context.Background(), c)
			if err != nil {
				t.Fatal(err)
			}
			matches += len(ms)
		}
	}
	find() // warm-up: pooled evaluation contexts

	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		find()
	}
	runtime.ReadMemStats(&after)
	bytes, allocs := (after.TotalAlloc-before.TotalAlloc)/runs, (after.Mallocs-before.Mallocs)/runs
	t.Logf("%d bytes, %d allocations per pass of %d matches", bytes, allocs, matches)
	const budget, allocBudget = 182_000, 4_330
	if bytes > budget || allocs > allocBudget {
		t.Errorf("a pass allocates %d bytes in %d allocations, budget %d in %d", bytes, allocs, budget, allocBudget)
	}
}
