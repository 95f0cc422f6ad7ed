package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"optimatch/internal/kb"
	"optimatch/internal/qep"
	"optimatch/internal/transform"
	"optimatch/internal/workload"
)

// TestLoadOrderAcrossMutations pins the one order the repository has: after
// a history of single loads, one batch load and removals spread over the
// table, Plans(), RunKB and FindSPARQL all answer in load order minus the
// removed plans. The same history on an engine built with the frozen
// WithShards / WithPrefilter shims renders the same bytes: the options are
// inert.
func TestLoadOrderAcrossMutations(t *testing.T) {
	w, err := workload.Generate(workload.Config{
		Seed: 2016, NumPlans: 48, MinOps: 25, MaxOps: 80,
		InjectA: 8, InjectB: 6, InjectC: 8, InjectD: 5, InjectG: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	k := kb.MustExtended()
	removed := map[int]bool{3: true, 17: true, 29: true, 41: true, 47: true}

	// First third loaded one by one, middle third as one batch, last third
	// one by one, then the removals (the last plan among them).
	build := func(opts ...Option) *Engine {
		e := New(append(opts, WithWorkers(4))...)
		third := len(w.Plans) / 3
		for _, p := range w.Plans[:third] {
			if err := e.LoadPlans([]*qep.Plan{p}); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.LoadPlans(w.Plans[third : 2*third]); err != nil {
			t.Fatal(err)
		}
		for _, p := range w.Plans[2*third:] {
			if err := e.LoadPlans([]*qep.Plan{p}); err != nil {
				t.Fatal(err)
			}
		}
		for i := range w.Plans {
			if removed[i] && !e.RemovePlan(w.Plans[i].ID) {
				t.Fatalf("plan %s not removed", w.Plans[i].ID)
			}
		}
		return e
	}

	var want []string
	rank := make(map[string]int)
	for i, p := range w.Plans {
		if !removed[i] {
			rank[p.ID] = len(want)
			want = append(want, p.ID)
		}
	}

	e := build()
	var ids []string
	for _, p := range e.Plans() {
		ids = append(ids, p.ID)
	}
	if !slices.Equal(ids, want) {
		t.Fatalf("Plans() order:\n got %v\nwant %v", ids, want)
	}
	reports, err := e.RunKB(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	ids = ids[:0]
	recommended := 0
	for i := range reports {
		ids = append(ids, reports[i].Plan.ID)
		recommended += len(reports[i].Recommendations)
	}
	if !slices.Equal(ids, want) {
		t.Fatalf("RunKB report order:\n got %v\nwant %v", ids, want)
	}
	ms, err := e.FindSPARQL(context.Background(), mustParseSPARQL(t, cancelTestQuery))
	if err != nil {
		t.Fatal(err)
	}
	if recommended == 0 || len(ms) == 0 {
		t.Fatal("the workload produced no recommendations or no matches; the order checks are vacuous")
	}
	last := -1
	for i := range ms {
		r, loaded := rank[ms[i].Plan().ID]
		if !loaded || r < last {
			t.Fatalf("FindSPARQL match %d is of plan %s: removed, or out of load order", i, ms[i].Plan().ID)
		}
		last = r
	}

	shimmed := build(WithShards(8), WithPrefilter(false))
	shimReports, err := shimmed.RunKB(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	shimMs, err := shimmed.FindSPARQL(context.Background(), mustParseSPARQL(t, cancelTestQuery))
	if err != nil {
		t.Fatal(err)
	}
	if renderReports(shimReports) != renderReports(reports) || renderMatches(shimMs) != renderMatches(ms) {
		t.Fatal("WithShards(8), WithPrefilter(false) changed what the engine answers")
	}
	if got, want := shimmed.PrefilterStats(), e.PrefilterStats(); got != want || got.Skipped == 0 {
		t.Fatalf("PrefilterStats view: shimmed %+v, plain %+v; want equal and Skipped > 0", got, want)
	}
}

// TestSnapshotSurvivesMutations pins the discipline that lets a scan read the
// table's slice without copying it: a snapshot taken before {append,
// remove-last, append, remove-middle} lists exactly the plans it listed, and
// keeps doing so while eight goroutines load, batch-load, remove and scan.
// Under -race an in-place removal is also reported as a write racing the scans.
func TestSnapshotSurvivesMutations(t *testing.T) {
	w, err := workload.Generate(workload.Config{Seed: 17, NumPlans: 42, MinOps: 10, MaxOps: 25, InjectA: 4, InjectC: 4})
	if err != nil {
		t.Fatal(err)
	}
	k := kb.MustExtended()
	base, spare := w.Plans[:8], w.Plans[8:10]
	e := New(WithWorkers(2))
	if err := e.LoadPlans(base); err != nil {
		t.Fatal(err)
	}
	listed := func(snap []*transform.Result) string {
		var b strings.Builder
		for _, r := range snap {
			b.WriteString(r.Plan.ID)
			b.WriteByte(' ')
		}
		return b.String()
	}
	snap := e.snapshot()
	want := listed(snap)

	steps := []struct {
		name string
		do   func() bool
	}{
		{"append", func() bool { return e.LoadPlans(spare[:1]) == nil }},
		{"remove-last", func() bool { return e.RemovePlan(spare[0].ID) }},
		{"append after remove-last", func() bool { return e.LoadPlans(spare[1:2]) == nil }},
		{"remove-middle", func() bool { return e.RemovePlan(base[3].ID) }},
	}
	for _, st := range steps {
		if !st.do() {
			t.Fatalf("%s failed", st.name)
		}
		if got := listed(snap); got != want {
			t.Fatalf("after %s the earlier snapshot lists\n %s\nwant\n %s", st.name, got, want)
		}
	}
	if got, want := len(e.snapshot()), len(base); got != want {
		t.Fatalf("table holds %d plans after the four steps, want %d", got, want)
	}

	// Each goroutine owns four plans, so loads and removals never collide;
	// every one checks a snapshot of its own across its mutation or scan.
	own := w.Plans[10:]
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		mine := own[4*g : 4*g+4]
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 6; round++ {
				s := e.snapshot()
				before := listed(s)
				switch g % 4 {
				case 0:
					for _, p := range mine {
						if err := e.LoadPlans([]*qep.Plan{p}); err != nil {
							t.Error(err)
						}
					}
				case 1:
					if err := e.LoadPlans(mine); err != nil {
						t.Error(err)
					}
				default:
					if _, err := e.RunKB(context.Background(), k); err != nil {
						t.Error(err)
					}
				}
				if g%4 < 2 {
					for _, p := range mine {
						if !e.RemovePlan(p.ID) {
							t.Errorf("plan %s not removed", p.ID)
						}
					}
				}
				if after := listed(s); after != before {
					t.Errorf("goroutine %d round %d: snapshot changed under it:\n %s\nwas\n %s", g, round, after, before)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := listed(snap); got != want {
		t.Fatalf("after the hammer the first snapshot lists\n %s\nwant\n %s", got, want)
	}
	if got, want := e.NumPlans(), len(base); got != want {
		t.Fatalf("NumPlans = %d after every goroutine removed what it loaded, want %d", got, want)
	}
}

// TestLoadBatchSingleGenerationBump pins the batch cache-invalidation
// contract: one LoadPlans, however many plans, bumps the data generation
// exactly once; an all-rejected batch does not bump it at all.
func TestLoadBatchSingleGenerationBump(t *testing.T) {
	w, err := workload.Generate(workload.Config{Seed: 5, NumPlans: 16})
	if err != nil {
		t.Fatal(err)
	}
	e := New()
	before := e.Generation()
	if err := e.LoadPlans(w.Plans); err != nil {
		t.Fatal(err)
	}
	if got := e.Generation(); got != before+1 {
		t.Fatalf("generation after %d-plan batch = %d, want %d", len(w.Plans), got, before+1)
	}
	if got := e.NumPlans(); got != len(w.Plans) {
		t.Fatalf("NumPlans = %d, want %d", got, len(w.Plans))
	}

	// Re-loading the same batch rejects every plan as a duplicate and must
	// leave the generation untouched.
	before = e.Generation()
	if err := e.LoadPlans(w.Plans); !errors.Is(err, ErrDuplicatePlan) {
		t.Fatalf("err = %v, want ErrDuplicatePlan", err)
	}
	if got := e.Generation(); got != before {
		t.Fatalf("generation after all-duplicate batch = %d, want unchanged %d", got, before)
	}
}

// TestLoadBatchPerPlanOutcomes exercises the mixed-outcome contract: invalid
// plans, intra-batch duplicates and engine-level duplicates are refused plan
// by plan while the rest of the batch loads, in input order, with one
// generation bump; LoadPlans returns the first refusal in input order. One
// plan, unresolved, is passed more than once: Validate resolves it in place,
// so under -race two pool tasks resolving it would be reported — most surely
// where it is the whole batch, and every worker starts on it at once.
func TestLoadBatchPerPlanOutcomes(t *testing.T) {
	w, err := workload.Generate(workload.Config{Seed: 11, NumPlans: 4})
	if err != nil {
		t.Fatal(err)
	}
	batch := []*qep.Plan{
		{},         // invalid: fails validation
		w.Plans[0], // duplicate of an already-loaded plan
		w.Plans[1], // fresh, unresolved
		w.Plans[1], // intra-batch duplicate: the same plan again
		w.Plans[2], // fresh
	}
	staged := New(WithWorkers(4))
	if err := staged.LoadPlans(w.Plans[:1]); err != nil {
		t.Fatal(err)
	}
	w.Plans[1].Root = nil
	b := staged.stagePlans(batch)
	if err := staged.Publish(b); err != nil {
		t.Fatal(err)
	}
	if b.Errs[0] == nil || errors.Is(b.Errs[0], ErrDuplicatePlan) {
		t.Fatalf("Errs[0] = %v, want a validation error", b.Errs[0])
	}
	for _, i := range []int{1, 3} {
		if !errors.Is(b.Errs[i], ErrDuplicatePlan) {
			t.Fatalf("Errs[%d] = %v, want ErrDuplicatePlan", i, b.Errs[i])
		}
	}
	if b.Errs[2] != nil || b.Errs[4] != nil {
		t.Fatalf("fresh plans refused: %v / %v", b.Errs[2], b.Errs[4])
	}

	e := New(WithWorkers(4))
	if err := e.LoadPlans(w.Plans[:1]); err != nil {
		t.Fatal(err)
	}
	gen := e.Generation()
	w.Plans[1].Root = nil
	err = e.LoadPlans(batch)
	if err == nil || err.Error() != b.Errs[0].Error() {
		t.Fatalf("LoadPlans = %v, want the first refusal %v", err, b.Errs[0])
	}
	if got := e.Generation(); got != gen+1 {
		t.Fatalf("generation %d after one LoadPlans, want %d", got, gen+1)
	}
	var ids []string
	for _, p := range e.Plans() {
		ids = append(ids, p.ID)
	}
	if want := []string{w.Plans[0].ID, w.Plans[1].ID, w.Plans[2].ID}; !slices.Equal(ids, want) {
		t.Fatalf("loaded %v, want %v", ids, want)
	}

	same := make([]*qep.Plan, 8)
	for i := range same {
		same[i] = w.Plans[3]
	}
	w.Plans[3].Root = nil
	e = New(WithWorkers(4))
	if err := e.LoadPlans(same); !errors.Is(err, ErrDuplicatePlan) || e.NumPlans() != 1 {
		t.Fatalf("one plan eight times: %d loaded, error %v; want 1 and ErrDuplicatePlan", e.NumPlans(), err)
	}
}

// TestLoadTextBatch exercises a batch of texts staged and published: parse
// failures are per-record and parsed plans are reported even when loading
// then fails as a duplicate.
func TestLoadTextBatch(t *testing.T) {
	w, err := workload.Generate(workload.Config{Seed: 33, NumPlans: 2})
	if err != nil {
		t.Fatal(err)
	}
	byID := w.Texts()
	texts := []string{byID[w.Plans[0].ID], "not a plan", byID[w.Plans[1].ID], byID[w.Plans[0].ID]}
	e := New()
	b := e.StageTexts(texts)
	if err := e.Publish(b); err != nil {
		t.Fatal(err)
	}
	plans, errs := b.Plans, b.Errs
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("valid texts failed: %v / %v", errs[0], errs[2])
	}
	if errs[1] == nil {
		t.Fatal("garbage text parsed without error")
	}
	if plans[1] != nil {
		t.Fatal("garbage text yielded a plan")
	}
	if !errors.Is(errs[3], ErrDuplicatePlan) {
		t.Fatalf("errs[3] = %v, want ErrDuplicatePlan", errs[3])
	}
	if plans[3] == nil {
		t.Fatal("duplicate text should still report its parsed plan")
	}
	if got := e.NumPlans(); got != 2 {
		t.Fatalf("NumPlans = %d, want 2", got)
	}
}

// textsInOrder returns the workload's explain texts in plan order.
func textsInOrder(w *workload.Workload) []string {
	byID := w.Texts()
	texts := make([]string, len(w.Plans))
	for i, p := range w.Plans {
		texts[i] = byID[p.ID]
	}
	return texts
}

// TestStageTouchesNothing: staging is the half of a load no reader can see.
// The table, every lookup and the generation are what they were until Publish,
// and publishing a batch staging refused whole moves nothing either.
func TestStageTouchesNothing(t *testing.T) {
	w, err := workload.Generate(workload.Config{Seed: 7, NumPlans: 6})
	if err != nil {
		t.Fatal(err)
	}
	texts := textsInOrder(w)
	e := New(WithWorkers(2))
	if err := e.LoadPlans(w.Plans[:1]); err != nil {
		t.Fatal(err)
	}
	gen := e.Generation()

	b := e.StageTexts(texts)
	if !errors.Is(b.Errs[0], ErrDuplicatePlan) {
		t.Fatalf("staging a loaded plan: err = %v, want ErrDuplicatePlan", b.Errs[0])
	}
	for i := 1; i < len(texts); i++ {
		if b.Errs[i] != nil || b.Plans[i] == nil {
			t.Fatalf("staging text %d: plan %v, err %v", i, b.Plans[i], b.Errs[i])
		}
		if e.Plan(b.Plans[i].ID) != nil || e.Result(b.Plans[i].ID) != nil {
			t.Fatalf("staged plan %s is visible before Publish", b.Plans[i].ID)
		}
	}
	if e.NumPlans() != 1 || e.Generation() != gen {
		t.Fatalf("after staging: %d plans at generation %d, want 1 at %d", e.NumPlans(), e.Generation(), gen)
	}

	if err := e.Publish(b); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if e.NumPlans() != len(texts) || e.Generation() != gen+1 {
		t.Fatalf("after Publish: %d plans at generation %d, want %d at %d", e.NumPlans(), e.Generation(), len(texts), gen+1)
	}
	// A batch publishes once.
	if err := e.Publish(b); err != nil || e.Generation() != gen+1 {
		t.Fatalf("second Publish: err %v, generation %d, want nil and %d", err, e.Generation(), gen+1)
	}

	dup := e.StageTexts(texts)
	for i, err := range dup.Errs {
		if !errors.Is(err, ErrDuplicatePlan) {
			t.Fatalf("re-staging text %d: err = %v, want ErrDuplicatePlan", i, err)
		}
	}
	if err := e.Publish(dup); err != nil || e.Generation() != gen+1 || e.NumPlans() != len(texts) {
		t.Fatalf("publishing an all-duplicate batch: err %v, generation %d, %d plans; want nil, %d, %d",
			err, e.Generation(), e.NumPlans(), gen+1, len(texts))
	}
}

// TestPublishRechecksDuplicates: the engine has no mutex around a caller's
// stage-then-publish, so two goroutines can stage one ID while the table does
// not hold it. Publish applies the duplicate rule again: the plan loads once
// and the loser is told ErrDuplicatePlan, by Publish and in Errs.
func TestPublishRechecksDuplicates(t *testing.T) {
	w, err := workload.Generate(workload.Config{Seed: 9, NumPlans: 1})
	if err != nil {
		t.Fatal(err)
	}
	text := w.Texts()[w.Plans[0].ID]
	for round := 0; round < 20; round++ {
		e := New()
		staged := [2]*Staged{e.StageTexts([]string{text}), e.StageTexts([]string{text})}
		var errs [2]error
		var wg sync.WaitGroup
		for g := range staged {
			if staged[g].Errs[0] != nil {
				t.Fatalf("staging against an empty table: %v", staged[g].Errs[0])
			}
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				errs[g] = e.Publish(staged[g])
			}(g)
		}
		wg.Wait()
		won := 0
		for g := range staged {
			switch {
			case errs[g] == nil && staged[g].Errs[0] == nil:
				won++
			case !errors.Is(errs[g], ErrDuplicatePlan) || !errors.Is(staged[g].Errs[0], ErrDuplicatePlan):
				t.Fatalf("loser: Publish = %v, Errs[0] = %v; want ErrDuplicatePlan in both", errs[g], staged[g].Errs[0])
			}
		}
		if won != 1 || e.NumPlans() != 1 || e.Generation() != 1 {
			t.Fatalf("round %d: %d winners, %d plans, generation %d; want 1, 1, 1", round, won, e.NumPlans(), e.Generation())
		}
	}
}

// TestLoadPlansIsStagePublish: LoadPlans of parsed plans and StageTexts +
// Publish of their texts load the same table — plans, per-plan outcomes,
// order and generation — over the 24-plan `qepgen -seed 42` history with a
// duplicate of an earlier batch, a refused plan and a plan passed twice mixed
// in, and LoadPlans returns the first refusal.
func TestLoadPlansIsStagePublish(t *testing.T) {
	w, err := workload.Generate(workload.Config{
		Seed: 42, NumPlans: 24, MinOps: 30, MaxOps: 80, InjectA: 4, InjectB: 3, InjectC: 5, HardFraction: 0.35,
	})
	if err != nil {
		t.Fatal(err)
	}
	texts := textsInOrder(w)
	textBatches := [][]string{
		texts[:8],
		slices.Concat(texts[8:16], texts[3:4], []string{"not a plan"}, texts[16:], texts[20:21]),
	}
	planBatches := [][]*qep.Plan{
		w.Plans[:8],
		slices.Concat(w.Plans[8:16], w.Plans[3:4], []*qep.Plan{{ID: "EMPTY"}}, w.Plans[16:], w.Plans[20:21]),
	}

	plans, stepped := New(WithWorkers(3)), New(WithWorkers(3))
	outcome := func(errs []error) string {
		var b strings.Builder
		for _, err := range errs {
			switch {
			case err == nil:
				b.WriteString("ok ")
			case errors.Is(err, ErrDuplicatePlan):
				b.WriteString("duplicate ")
			default:
				b.WriteString("refused ")
			}
		}
		return b.String()
	}
	for i := range textBatches {
		b := stepped.StageTexts(textBatches[i])
		before := stepped.Generation()
		if err := stepped.Publish(b); err != nil {
			t.Fatalf("Publish: %v", err)
		}
		if stepped.Generation() != before+1 {
			t.Fatalf("Publish moved the generation %d -> %d, want one bump", before, stepped.Generation())
		}
		staged := plans.stagePlans(planBatches[i])
		if got, want := outcome(staged.Errs), outcome(b.Errs); got != want {
			t.Fatalf("per-plan outcomes differ:\n StageTexts %s\n stagePlans %s", want, got)
		}
		var first error
		if j := slices.IndexFunc(staged.Errs, func(err error) bool { return err != nil }); j >= 0 {
			first = staged.Errs[j]
		}
		if err := plans.LoadPlans(planBatches[i]); fmt.Sprint(err) != fmt.Sprint(first) {
			t.Fatalf("LoadPlans = %v, want the first refusal %v", err, first)
		}
	}
	if plans.Generation() != stepped.Generation() || plans.NumPlans() != 24 {
		t.Fatalf("generation %d vs %d, %d plans; want equal generations and 24 plans",
			plans.Generation(), stepped.Generation(), plans.NumPlans())
	}
	var a, b []string
	for _, p := range plans.Plans() {
		a = append(a, p.ID)
	}
	for _, p := range stepped.Plans() {
		b = append(b, p.ID)
	}
	if !slices.Equal(a, b) {
		t.Fatalf("load order differs:\n LoadPlans %v\n stage+publish %v", a, b)
	}
	k := kb.MustExtended()
	ra, err := plans.RunKB(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := stepped.RunKB(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	if renderReports(ra) != renderReports(rb) {
		t.Fatal("the two engines answer RunKB differently")
	}
}
