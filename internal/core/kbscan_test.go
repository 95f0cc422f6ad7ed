package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"optimatch/internal/kb"
	"optimatch/internal/pattern"
	"optimatch/internal/sparql"
	"optimatch/internal/transform"
	"optimatch/internal/workload"
)

// patternA is pattern A with its outer- and inner-cardinality thresholds as
// parameters.
func patternA(t *testing.T, name string, outerCard, innerCard float64) *pattern.Pattern {
	t.Helper()
	bld := pattern.NewBuilder(name, "variant")
	top := bld.Pop("NLJOIN").Alias("TOP")
	outer := bld.Pop(pattern.TypeAny)
	inner := bld.Pop("TBSCAN").Alias("SCAN3")
	base := bld.Pop(pattern.TypeBaseObj).Alias("BASE4")
	top.OuterChild(outer)
	top.InnerChild(inner)
	outer.Where("hasEstimateCardinality", ">", outerCard)
	inner.Where("hasEstimateCardinality", ">", innerCard)
	inner.Child(base)
	p, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func addVariant(t *testing.T, k *kb.KnowledgeBase, p *pattern.Pattern) {
	t.Helper()
	if _, err := k.Add(p, kb.Recommendation{Title: "Index", Category: "INDEX",
		Template: "Create index on @BASE4.NAME (@BASE4(INPUT))."}); err != nil {
		t.Fatal(err)
	}
}

// variantKB builds n pattern-A variants the way Figure 11's variant knowledge
// base (internal/experiments) builds its pattern-A entries, with a threshold
// of its own per entry: n entries are n distinct query texts.
func variantKB(t *testing.T, n int) *kb.KnowledgeBase {
	t.Helper()
	k := kb.New()
	for i := 0; i < n; i++ {
		addVariant(t, k, patternA(t, fmt.Sprintf("variant-a-%d", i), float64(1+i%5), float64(100+i)))
	}
	return k
}

// scanKB is the knowledge base of the benchmark's kb_scan_cold workload
// (bench/gen.go's scanKB, which the root module cannot import): the extended
// entries and seven pattern-A variants, eight entries of one shape.
func scanKB(t *testing.T) *kb.KnowledgeBase {
	t.Helper()
	k := kb.MustExtended()
	for _, inner := range []float64{150, 250, 400, 650, 1000, 1600, 2500} {
		addVariant(t, k, patternA(t, fmt.Sprintf("nljoin-inner-tbscan-over-%d", int(inner)), 1, inner))
	}
	return k
}

// benchResident returns the benchmark's 64 resident plans at seed 1, generated
// as bench/gen.go's genPlans generates them.
func benchResident(t *testing.T) []*transform.Result {
	t.Helper()
	const n, seed = 64, 1
	ops := make([]int, 0, n)
	for _, parity := range []int{0, 1} {
		for i := parity; i < n; i += 2 {
			ops = append(ops, 60+i*180/(n-1))
		}
	}
	rng, half := rand.New(rand.NewSource(seed)), (n+1)/2
	rng.Shuffle(half, func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	rng.Shuffle(n-half, func(i, j int) { ops[half+i], ops[half+j] = ops[half+j], ops[half+i] })
	share := func(pct int) int { return max(n*pct/100, 1) }
	return generated(t, workload.Config{
		Seed: seed, NumPlans: n, OpCounts: ops,
		InjectA: share(15), InjectB: share(12), InjectC: share(18), InjectD: share(10), InjectG: share(5),
	})
}

// entryByEntry is the oracle RunKB is held to: the scan as it was before
// guards, every entry evaluated on every plan in insertion order, with what
// those evaluations did.
func entryByEntry(t *testing.T, k *kb.KnowledgeBase, rs []*transform.Result) ([]PlanReport, sparql.EvalSnapshot) {
	t.Helper()
	var stats sparql.EvalStats
	reports := make([]PlanReport, len(rs))
	for i, r := range rs {
		reports[i].Plan = r.Plan
		for _, entry := range k.Entries() {
			res, err := entry.Compiled().Parsed.ExecOpts(r.Graph, sparql.ExecOptions{Stats: &stats})
			if err != nil {
				t.Fatal(err)
			}
			if res.Len() == 0 {
				continue
			}
			occs := transform.AppendMatches(nil, r, entry.Compiled().Columns, res.Rows)
			reports[i].Recommendations = append(reports[i].Recommendations, entry.Recommend(occs)...)
		}
		kb.SortRanked(reports[i].Recommendations)
	}
	return reports, stats.Snapshot()
}

// TestRunKBMatchesEntryByEntry: RunKB, which skips an entry whose guard found
// nothing, reports what evaluating every entry on every plan reports, over the
// 24-plan `qepgen -seed 42` history and three workload seeds, for knowledge
// bases with no guard (the extended one), with the benchmark's family of eight
// (guards refused on spelling included) and with 250 variants.
func TestRunKBMatchesEntryByEntry(t *testing.T) {
	histories := map[string][]*transform.Result{
		"qepgen -seed 42": generated(t, workload.Config{
			Seed: 42, NumPlans: 24, MinOps: 30, MaxOps: 80, InjectA: 4, InjectB: 3, InjectC: 5, HardFraction: 0.35,
		}),
	}
	for _, seed := range []int64{1, 7, 2016} {
		histories[fmt.Sprintf("workload seed %d", seed)] = generated(t, workload.Config{
			Seed: seed, NumPlans: 40, MinOps: 30, MaxOps: 90,
			InjectA: 6, InjectB: 5, InjectC: 7, InjectD: 4, InjectG: 3,
		})
	}
	kbs := map[string]*kb.KnowledgeBase{
		"extended":  kb.MustExtended(),
		"kb_scan":   scanKB(t),
		"variants":  variantKB(t, 250),
		"canonical": kb.MustCanonical(),
	}
	for hname, rs := range histories {
		e := New(WithWorkers(3))
		for _, r := range rs {
			if err := e.LoadResult(r); err != nil {
				t.Fatal(err)
			}
		}
		for kname, k := range kbs {
			skippedBefore := e.KBPairsSkipped()
			got, err := e.RunKB(context.Background(), k)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := entryByEntry(t, k, rs)
			if g, w := renderReports(got), renderReports(want); g != w {
				t.Fatalf("%s, %s knowledge base: RunKB reports\n%s--- entry by entry ---\n%s", hname, kname, g, w)
			}
			skipped := e.KBPairsSkipped() - skippedBefore
			if guarded := kname == "kb_scan" || kname == "variants"; guarded != (skipped > 0) {
				t.Errorf("%s, %s knowledge base: %d pairs skipped", hname, kname, skipped)
			}
		}
	}
}

// TestKBScanWork pins what one scan of the benchmark's knowledge base over its
// 64 resident plans evaluates: entry by entry, 14 × 64 = 896 evaluations; with
// guards, the pairs whose guard found nothing go unevaluated and so does their
// join work, while the recommendations stay the same.
func TestKBScanWork(t *testing.T) {
	rs := benchResident(t)
	k := scanKB(t)
	e := New(WithWorkers(2))
	for _, r := range rs {
		if err := e.LoadResult(r); err != nil {
			t.Fatal(err)
		}
	}
	before := e.EvalStats()
	reports, err := e.RunKB(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	after := e.EvalStats()
	want, oracle := entryByEntry(t, k, rs)
	recs := func(reports []PlanReport) (n int) {
		for _, r := range reports {
			n += len(r.Recommendations)
		}
		return n
	}
	got := [5]int64{
		after.Specialized - before.Specialized, after.JoinRows - before.JoinRows, e.KBPairsSkipped(),
		oracle.Specialized, oracle.JoinRows,
	}
	if pinned := [5]int64{511, 27504, 385, 896, 57142}; got != pinned || recs(reports) != recs(want) {
		t.Errorf("evaluations, join rows, skipped pairs; entry by entry evaluations, join rows = %v, pinned at %v; %d recommendations, entry by entry %d",
			got, pinned, recs(reports), recs(want))
	}
}
