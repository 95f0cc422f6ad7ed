package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"optimatch/internal/fixtures"
	"optimatch/internal/kb"
	"optimatch/internal/pattern"
	"optimatch/internal/qep"
	"optimatch/internal/sparql"
	"optimatch/internal/transform"
	"optimatch/internal/workload"
)

func engineWithFixtures(t *testing.T) *Engine {
	t.Helper()
	e := New()
	if err := e.LoadPlans(fixtures.All()); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestLoadAndAccessors(t *testing.T) {
	e := engineWithFixtures(t)
	if e.NumPlans() != 5 {
		t.Fatalf("NumPlans = %d", e.NumPlans())
	}
	if e.Plan("Q2") == nil || e.Plan("GHOST") != nil {
		t.Error("Plan lookup wrong")
	}
	if got := len(e.Plans()); got != 5 {
		t.Errorf("Plans() = %d", got)
	}
	// Duplicate plan IDs rejected.
	if err := e.LoadPlans([]*qep.Plan{fixtures.Figure1()}); err == nil {
		t.Error("duplicate plan accepted")
	}
	// Invalid plan rejected.
	if err := e.LoadPlans([]*qep.Plan{qep.NewPlan("EMPTY")}); err == nil {
		t.Error("empty plan accepted")
	}
}

func TestLoadText(t *testing.T) {
	e := New()
	p, err := e.LoadText(qep.Text(fixtures.Figure1()))
	if err != nil {
		t.Fatal(err)
	}
	if p.ID != "Q2" || e.NumPlans() != 1 {
		t.Errorf("loaded plan = %+v", p.ID)
	}
	if _, err := e.LoadText("garbage"); err == nil {
		t.Error("garbage text accepted")
	}
}

// TestReadExplainDir pins what a directory load reads: the explain files in
// os.ReadDir order, by name, other files and subdirectories skipped. Staged and
// published as one batch, they load in that order with one generation bump.
func TestReadExplainDir(t *testing.T) {
	dir := t.TempDir()
	write := func(name, text string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range fixtures.All() {
		name := p.ID + ".exfmt"
		if i == 0 {
			name = p.ID + ".txt"
		}
		write(name, qep.Text(p))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var want []string // plan IDs in the directory's order: each file is named after its plan
	for _, ent := range entries {
		want = append(want, strings.TrimSuffix(ent.Name(), filepath.Ext(ent.Name())))
	}
	// Non-explain files are skipped.
	write("README.md", "hi")
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	names, texts, err := ReadExplainDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != len(want) || len(texts) != len(want) {
		t.Fatalf("read %d names and %d texts, want %d of each", len(names), len(texts), len(want))
	}
	for i, name := range names {
		if got := strings.TrimSuffix(name, filepath.Ext(name)); got != want[i] {
			t.Errorf("file %d is %s, want the directory's order %v", i, name, want)
		}
	}
	e := New()
	if err := e.Publish(e.StageTexts(texts)); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range e.Plans() {
		got = append(got, p.ID)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("load order %v, want the directory's order %v", got, want)
	}
	if g := e.Generation(); g != 1 {
		t.Errorf("generation %d after one batch, want 1", g)
	}
	if _, _, err := ReadExplainDir(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing dir accepted")
	}
}

// TestParallelBound: the write side's pool visits every index once and never
// runs more tasks at a time than WithWorkers allows; with one worker the
// tasks run on the calling goroutine, in order.
func TestParallelBound(t *testing.T) {
	for _, workers := range []int{1, 2, 5} {
		e := New(WithWorkers(workers))
		const n = 200
		var running, peak atomic.Int64
		visits := make([]int, n)
		var order []int // appended without synchronisation when workers == 1: -race checks the claim
		e.Parallel(n, func(i int) {
			now := running.Add(1)
			for {
				p := peak.Load()
				if now <= p || peak.CompareAndSwap(p, now) {
					break
				}
			}
			visits[i]++
			if workers == 1 {
				order = append(order, i)
			}
			runtime.Gosched()
			running.Add(-1)
		})
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, v)
			}
		}
		if got := peak.Load(); got > int64(workers) {
			t.Errorf("workers=%d: %d tasks ran at once", workers, got)
		}
		if workers == 1 && !sort.IntsAreSorted(order) {
			t.Errorf("one worker ran the tasks out of order: %v", order)
		}
	}
	New().Parallel(0, func(int) { t.Error("task run for n = 0") })
}

// A task that panics on a worker goroutine does not end the process:
// Parallel waits until no task is running and panics on its caller with the
// task's panic, and with more than one worker the worker's stack.
func TestParallelRepanicsOnCaller(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e := New(WithWorkers(workers))
		var running atomic.Int64
		var recovered any
		func() {
			defer func() { recovered = recover() }()
			e.Parallel(64, func(i int) {
				running.Add(1)
				defer running.Add(-1)
				if i == 5 {
					panic("task 5 broke")
				}
				runtime.Gosched()
			})
		}()
		msg := fmt.Sprint(recovered)
		if !strings.Contains(msg, "task 5 broke") {
			t.Fatalf("workers=%d: recovered %v, want the task's panic", workers, recovered)
		}
		if workers > 1 && !strings.Contains(msg, "TestParallelRepanicsOnCaller") {
			t.Errorf("workers=%d: the panic lacks the worker's stack:\n%s", workers, msg)
		}
		if n := running.Load(); n != 0 {
			t.Errorf("workers=%d: %d tasks still running when Parallel panicked", workers, n)
		}
	}
}

func TestFindPatternAcrossWorkload(t *testing.T) {
	e := engineWithFixtures(t)
	matches, err := e.FindPattern(context.Background(), pattern.A())
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 {
		t.Fatalf("matches = %d, want 1", len(matches))
	}
	m := matches[0]
	if m.Plan().ID != "Q2" {
		t.Errorf("matched plan = %s", m.Plan().ID)
	}
	if top := m.Operator(m.Column("TOP")); top == nil || top.Type != "NLJOIN" {
		t.Errorf("TOP operator = %+v", top)
	}
	if base := m.Object(m.Column("base4")); base == nil || base.Name != "CUST_DIM" {
		t.Errorf("BASE4 object = %+v", base)
	}
	if c := m.Column("nosuch"); c != -1 || m.Operator(c) != nil || m.Object(c) != nil || m.Display(c) != "" {
		t.Errorf("unknown alias is column %d", c)
	}
	s := m.String()
	for _, want := range []string{"Q2:", "TOP=NLJOIN(2)", "BASE4=CUST_DIM"} {
		if !strings.Contains(s, want) {
			t.Errorf("Match.String() = %q missing %q", s, want)
		}
	}
}

func TestFindSPARQLDirect(t *testing.T) {
	e := engineWithFixtures(t)
	// All SORT operators across the workload.
	matches, err := e.FindSPARQL(context.Background(), mustParseSPARQL(t, `PREFIX preduri: <http://optimatch/pred/>
SELECT ?s WHERE { ?s preduri:hasPopType "SORT" }`))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || matches[0].Plan().ID != "Q9" {
		t.Errorf("matches = %+v", matches)
	}
	// An ungrouped aggregate has one row per plan whether the plan matches
	// nothing because it lacks the constant (every plan but Q9) or not.
	counts, err := e.FindSPARQL(context.Background(), mustParseSPARQL(t, `PREFIX preduri: <http://optimatch/pred/>
SELECT (COUNT(?s) AS ?n) WHERE { ?s preduri:hasPopType "SORT" }`))
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != e.NumPlans() {
		t.Errorf("COUNT over %d plans returned %d rows, want one per plan", e.NumPlans(), len(counts))
	}
}

// mustParseSPARQL parses a query the way FindSPARQL's callers do.
func mustParseSPARQL(t *testing.T, text string) *sparql.Query {
	t.Helper()
	q, err := sparql.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestFindPatternParallelMatchesSerial(t *testing.T) {
	w, err := workload.Generate(workload.Config{Seed: 31, NumPlans: 30, MinOps: 20, MaxOps: 60,
		InjectA: 6, InjectB: 5, InjectC: 7, InjectD: 4})
	if err != nil {
		t.Fatal(err)
	}
	serial := New(WithWorkers(1))
	parallel := New(WithWorkers(8))
	if err := serial.LoadPlans(w.Plans); err != nil {
		t.Fatal(err)
	}
	if err := parallel.LoadPlans(w.Plans); err != nil {
		t.Fatal(err)
	}
	for _, p := range pattern.Canonical() {
		m1, err := serial.FindPattern(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		m2, err := parallel.FindPattern(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		s1 := matchStrings(m1)
		s2 := matchStrings(m2)
		if !reflect.DeepEqual(s1, s2) {
			t.Errorf("%s: parallel != serial:\n%v\nvs\n%v", p.Name, s1, s2)
		}
	}
}

func matchStrings(ms []transform.Match) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.String()
	}
	return out
}

func TestFindPatternAgainstGroundTruth(t *testing.T) {
	w, err := workload.Generate(workload.Config{Seed: 77, NumPlans: 50, MinOps: 20, MaxOps: 80,
		InjectA: 10, InjectB: 9, InjectC: 11, InjectD: 8})
	if err != nil {
		t.Fatal(err)
	}
	e := New()
	if err := e.LoadPlans(w.Plans); err != nil {
		t.Fatal(err)
	}
	keys := map[string]*pattern.Pattern{
		workload.KeyA: pattern.A(),
		workload.KeyB: pattern.B(),
		workload.KeyC: pattern.C(),
		workload.KeyD: pattern.D(),
	}
	for key, p := range keys {
		matches, err := e.FindPattern(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[string]bool)
		for _, m := range matches {
			got[m.Plan().ID] = true
		}
		if len(got) != w.Truth.Count(key) {
			t.Errorf("pattern %s: matched %d plans, injected %d", key, len(got), w.Truth.Count(key))
		}
		for id := range w.Truth[key] {
			if !got[id] {
				t.Errorf("pattern %s: injected plan %s not matched", key, id)
			}
		}
	}
}

func TestRunKB(t *testing.T) {
	e := engineWithFixtures(t)
	reports, err := e.RunKB(context.Background(), kb.MustCanonical())
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 5 {
		t.Fatalf("reports = %d", len(reports))
	}
	byID := make(map[string]*PlanReport)
	for i := range reports {
		byID[reports[i].Plan.ID] = &reports[i]
	}
	// Figure 1 plan: Pattern A's two recommendations.
	q2 := byID["Q2"]
	if !q2.HasRecommendations() || len(q2.Recommendations) != 2 {
		t.Fatalf("Q2 recommendations = %d", len(q2.Recommendations))
	}
	if !strings.Contains(q2.Recommendations[0].Text, "CUST_DIM") {
		t.Errorf("Q2 top recommendation lacks context: %s", q2.Recommendations[0].Text)
	}
	if !strings.Contains(q2.Message(), "recommendation") {
		t.Errorf("message = %q", q2.Message())
	}
	// Figure 7: Pattern B (2 recs) + Pattern C (IXSCAN collapse, 1 rec).
	q21 := byID["Q21"]
	if len(q21.Recommendations) != 3 {
		t.Errorf("Q21 recommendations = %d, want 3", len(q21.Recommendations))
	}
	// Clean plan: nothing.
	q0 := byID["Q0"]
	if q0.HasRecommendations() {
		t.Errorf("Q0 should have no recommendations: %+v", q0.Recommendations)
	}
	if q0.Message() != NoRecommendation {
		t.Errorf("Q0 message = %q", q0.Message())
	}
	// Ranking is descending within each report.
	for _, r := range reports {
		for i := 1; i < len(r.Recommendations); i++ {
			if r.Recommendations[i-1].Confidence < r.Recommendations[i].Confidence {
				t.Errorf("plan %s: recommendations not ranked", r.Plan.ID)
			}
		}
	}
}

func TestSummarize(t *testing.T) {
	e := engineWithFixtures(t)
	reports, err := e.RunKB(context.Background(), kb.MustCanonical())
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(reports)
	if s.TotalPlans != 5 {
		t.Errorf("TotalPlans = %d", s.TotalPlans)
	}
	if s.PlansMatched != 4 { // all fixtures except Clean
		t.Errorf("PlansMatched = %d", s.PlansMatched)
	}
	counts := make(map[string]EntryCount)
	for _, ec := range s.ByEntry {
		counts[ec.Name] = ec
	}
	if counts["nljoin-inner-tbscan"].Plans != 1 || counts["nljoin-inner-tbscan"].Recs != 2 {
		t.Errorf("pattern A counts = %+v", counts["nljoin-inner-tbscan"])
	}
	if counts["scan-cardinality-collapse"].Plans != 2 { // fig7 + fig8
		t.Errorf("pattern C counts = %+v", counts["scan-cardinality-collapse"])
	}
	// Summary is sorted by name.
	for i := 1; i < len(s.ByEntry); i++ {
		if s.ByEntry[i-1].Name > s.ByEntry[i].Name {
			t.Error("summary not sorted")
		}
	}
}

// TestConcurrentEngineUse hammers one engine from many goroutines mixing
// pattern search and knowledge-base scans; the race detector (when enabled)
// and result comparison guard the engine's concurrency contract.
func TestConcurrentEngineUse(t *testing.T) {
	w, err := workload.Generate(workload.Config{Seed: 41, NumPlans: 20, MinOps: 15, MaxOps: 50,
		InjectA: 4, InjectB: 3, InjectC: 5, InjectD: 3})
	if err != nil {
		t.Fatal(err)
	}
	e := New(WithWorkers(4))
	if err := e.LoadPlans(w.Plans); err != nil {
		t.Fatal(err)
	}
	base := kb.MustCanonical()
	wantA, err := e.FindPattern(context.Background(), pattern.A())
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 24)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 3 {
			case 0:
				got, err := e.FindPattern(context.Background(), pattern.A())
				if err != nil {
					errs <- err
					return
				}
				if len(got) != len(wantA) {
					errs <- fmt.Errorf("concurrent FindPattern: %d matches, want %d", len(got), len(wantA))
				}
			case 1:
				if _, err := e.RunKB(context.Background(), base); err != nil {
					errs <- err
				}
			default:
				if _, err := e.FindPattern(context.Background(), pattern.D()); err != nil {
					errs <- err
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestGroundTruthIncludesPatternG extends the exactness check to the
// negative (NOT EXISTS) pattern.
func TestGroundTruthIncludesPatternG(t *testing.T) {
	w, err := workload.Generate(workload.Config{Seed: 43, NumPlans: 30, MinOps: 20, MaxOps: 60, InjectG: 6})
	if err != nil {
		t.Fatal(err)
	}
	e := New()
	if err := e.LoadPlans(w.Plans); err != nil {
		t.Fatal(err)
	}
	matches, err := e.FindPattern(context.Background(), pattern.G())
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, m := range matches {
		got[m.Plan().ID] = true
	}
	if len(got) != 6 {
		t.Errorf("pattern G plans = %d, want 6", len(got))
	}
	for id := range w.Truth[workload.KeyG] {
		if !got[id] {
			t.Errorf("injected plan %s not matched", id)
		}
	}
}

func TestRemovePlan(t *testing.T) {
	e := engineWithFixtures(t)
	if e.RemovePlan("GHOST") {
		t.Error("RemovePlan(GHOST) = true")
	}
	if !e.RemovePlan("Q2") {
		t.Fatal("RemovePlan(Q2) = false")
	}
	if e.Plan("Q2") != nil || e.NumPlans() != 4 {
		t.Errorf("Q2 still visible after removal: NumPlans = %d", e.NumPlans())
	}
	// Removal frees the ID for re-ingest.
	for _, p := range fixtures.All() {
		if p.ID == "Q2" {
			if err := e.LoadPlans([]*qep.Plan{p}); err != nil {
				t.Fatalf("reload after remove: %v", err)
			}
		}
	}
	if e.NumPlans() != 5 {
		t.Errorf("NumPlans after reload = %d", e.NumPlans())
	}
	// Load order is preserved for the survivors plus the re-ingest at the end.
	plans := e.Plans()
	if plans[len(plans)-1].ID != "Q2" {
		t.Errorf("re-ingested plan not last: %v", plans[len(plans)-1].ID)
	}
}
