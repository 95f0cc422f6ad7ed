package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"optimatch/internal/storefs"
)

func testSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec("")
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func names(ms []metricSpec) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

func keys(m map[string]sample) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Every workload, in -quick mode with tracing, reports exactly the metric
// names BENCHMARK.json lists, all finite, the end-to-end ones non-zero, and
// no failed operation.
func TestQuickRunEmitsEveryMetric(t *testing.T) {
	sp := testSpec(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			res, err := runWorkload(runConfig{
				Workload: name, Seed: 2016, Trace: true, Sizes: quickSizes, MinReps: 1,
				TmpDir: dir, SpansPath: filepath.Join(dir, "spans.jsonl"),
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || !res.Correct || res.FailRatio != 0 {
				t.Fatalf("failed %d of %d: %v", res.Failed, res.Attempted, res.Failures)
			}
			if got, want := keys(res.EndToEnd), names(sp.EndToEnd); strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("end-to-end metrics\n got %v\nwant %v", got, want)
			}
			if got, want := keys(res.PerLayer), names(sp.PerLayer); strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("per-layer metrics\n got %v\nwant %v", got, want)
			}
			units := map[string]string{}
			for _, m := range append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...) {
				units[m.Name] = m.Unit
			}
			for _, metrics := range []map[string]sample{res.EndToEnd, res.PerLayer} {
				for k, m := range metrics {
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s is %v", k, m.Value)
					}
					if m.Unit != units[k] {
						t.Errorf("%s has unit %q, BENCHMARK.json says %q", k, m.Unit, units[k])
					}
				}
			}
			for k, m := range res.EndToEnd {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s is %v; the contract wants metrics that are never 0", k, m.Value)
				}
			}
			if res.PerLayer["sparql.fallback_count"].Value != 0 {
				t.Errorf("fallback evaluator ran %v times", res.PerLayer["sparql.fallback_count"].Value)
			}
			if noCache := name == "kb_scan_cold" || name == "search_adhoc"; noCache && res.PerLayer["cache.rep_lookups"].Value != 0 {
				t.Errorf("no-cache workload looked the cache up %v times", res.PerLayer["cache.rep_lookups"].Value)
			}
			if st, err := os.Stat(res.Spans); err != nil || st.Size() == 0 {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

// The command line a driver uses ends with one JSON object holding exactly
// the contract's keys; -out receives a results document with an env block.
func TestDriverLineAndDocument(t *testing.T) {
	sp := testSpec(t)
	out := filepath.Join(t.TempDir(), "doc.json")
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"--workload", "search_adhoc", "--seed", "7", "--trace", "0", "-quick", "-out", out}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
		t.Fatalf("last line has keys %v", line)
	}
	var metrics map[string]struct {
		Value float64
		Unit  string
	}
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(sp.EndToEnd) {
		t.Errorf("%d metrics on the line, %d end-to-end metrics in BENCHMARK.json", len(metrics), len(sp.EndToEnd))
	}
	doc, err := readDocument(out)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Env.Seed != 7 || doc.Env.GoVersion == "" || doc.Env.GOMAXPROCS == 0 || doc.Env.Sizes.Resident != quickSizes.Resident {
		t.Errorf("env block %+v", doc.Env)
	}
	if doc.Workloads["search_adhoc"] == nil || doc.Workloads["search_adhoc"].Ops["search"] == 0 {
		t.Errorf("document lacks the workload or its op counts")
	}
}

// Without BENCHMARK.json (a directory that holds the benchmark and nothing
// else has no program to measure either) the command fails.
func TestFailsWithoutSpec(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-spec", filepath.Join(t.TempDir(), "BENCHMARK.json"), "-quick"}, &stdout, &stderr); code == 0 {
		t.Fatal("exit 0 without a spec")
	}
	if code := realMain([]string{"-workload", "nope", "-quick"}, &stdout, &stderr); code == 0 {
		t.Fatal("exit 0 for an unknown workload")
	}
}

// BENCHMARK.json stays inside the limits of the contract it is written to.
func TestSpecObeysContract(t *testing.T) {
	sp := testSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	var got []string
	for _, w := range sp.Workloads {
		check(w.Name)
		got = append(got, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if strings.Join(got, " ") != strings.Join(workloadNames, " ") {
		t.Errorf("workloads %v, the program runs %v", got, workloadNames)
	}
	setup := false
	for _, m := range sp.EndToEnd {
		check(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v", m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric")
	}
	for _, m := range sp.PerLayer {
		check(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != 0 {
			t.Errorf("per-layer metric %+v", m)
		}
	}
	if len(sp.EndToEnd) < 1 || len(sp.EndToEnd) > 16 || len(sp.PerLayer) < 1 || len(sp.PerLayer) > 128 || sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("list sizes or run_seconds out of range")
	}
}

func TestQuantilesAndMedianOfRepetitions(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if median(xs) != 3 || quantile(xs, 0) != 1 || quantile(xs, 1) != 5 || quantile(xs, 0.25) != 2 {
		t.Errorf("quantiles of %v: median %v q0 %v q1 %v q.25 %v", xs, median(xs), quantile(xs, 0), quantile(xs, 1), quantile(xs, 0.25))
	}
	if quantile([]float64{1, 2}, 0.5) != 1.5 || quantile(nil, 0.5) != 0 {
		t.Error("interpolation or empty input")
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its argument in place")
	}
	m := medianOf("1/s", []float64{10, 30, 20, 40, 50})
	if m.Value != 30 || m.Q1 != 20 || m.Q3 != 40 || m.N != 5 || m.Unit != "1/s" {
		t.Errorf("medianOf = %+v", m)
	}
	if got := m.spread(); math.Abs(got-20.0/30) > 1e-12 {
		t.Errorf("spread = %v", got)
	}
	// Pooled: the percentile is taken over all samples, the quartiles over
	// the per-repetition percentiles.
	p := pooledQuantile("ms", 0.5, [][]float64{{1, 2, 3}, {10, 20, 30}, nil})
	if p.Value != 6.5 || p.N != 6 || p.Q1 != 6.5 || p.Q3 != 15.5 {
		t.Errorf("pooledQuantile = %+v", p)
	}
	if ratio(1, 0) != 0 || ratio(1, 4) != 0.25 || mean(nil) != 0 || mean([]float64{1, 3}) != 2 {
		t.Error("ratio or mean")
	}
}

// p95 needs 200 samples before ten of them lie beyond it.
func TestTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{{0, 0.95, 0}, {100, 0.95, 5}, {199, 0.95, 10}, {200, 0.95, 10}, {201, 0.95, 10}, {220, 0.95, 11}, {21, 0.5, 10}, {20, 0.5, 10}, {19, 0.5, 9}} {
		if got := beyond(c.n, c.q); got != c.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
	if tailOK(180, 0.95) || !tailOK(200, 0.95) {
		t.Error("tailOK")
	}
}

func TestSelfTimeSubtractsCoveredInterval(t *testing.T) {
	spans := []span{
		{Name: "http.kbrun", Start: 0, End: 100, Parent: -1},
		{Name: spanKBScan, Start: 10, End: 90, Parent: 0},
		{Name: spanPlanMatch, Start: 20, End: 50, Parent: 1}, // two workers overlap
		{Name: spanPlanMatch, Start: 40, End: 70, Parent: 1},
		{Name: spanPlanMatch, Start: 80, End: 95, Parent: 1}, // runs past its parent: clipped
	}
	got := selfTimes(spans)
	want := []int64{20, 20, 30, 30, 15}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
	byName := selfByName(spans)
	if math.Abs(byName[spanPlanMatch]-75e-9) > 1e-15 || math.Abs(byName["http.kbrun"]-20e-9) > 1e-15 {
		t.Errorf("selfByName = %v", byName)
	}
}

// Hook spans are recorded when they end, before their parents; finish
// finds the parent by containment and hands the request id down.
func TestRecorderResolvesParents(t *testing.T) {
	r := newRecorder()
	r.ended(spanPlanMatch, time.Millisecond) // off: dropped
	r.on.Store(true)
	const ms = 1_000_000
	r.add(span{Name: spanPlanMatch, Start: 2 * ms, End: 3 * ms, Parent: -1})
	r.add(span{Name: spanKBScan, Start: 1.5 * ms, End: 4 * ms, Parent: -1})
	r.add(span{Name: spanWALFsync, Start: 6 * ms, End: 7 * ms, Parent: -1})
	r.add(span{Name: spanPlanMatch, Start: 9000 * ms, End: 9001 * ms, Parent: -1}) // outside any request
	r.mu.Lock()
	r.reqs = 2
	r.spans = append(r.spans,
		span{Name: "http.kbrun", Start: 1 * ms, End: 5 * ms, Parent: -1, Req: 1},
		span{Name: "http.upload", Start: 5.5 * ms, End: 8 * ms, Parent: -1, Req: 2})
	r.mu.Unlock()
	spans := r.finish()
	if len(spans) != 6 {
		t.Fatalf("%d spans", len(spans))
	}
	if spans[0].Parent != 1 || spans[1].Parent != 4 || spans[2].Parent != 5 || spans[3].Parent != -1 {
		t.Errorf("parents: match %d scan %d fsync %d stray %d", spans[0].Parent, spans[1].Parent, spans[2].Parent, spans[3].Parent)
	}
	if spans[0].Req != 1 || spans[1].Req != 1 || spans[2].Req != 2 || spans[3].Req != 0 {
		t.Errorf("request ids: %d %d %d %d", spans[0].Req, spans[1].Req, spans[2].Req, spans[3].Req)
	}
	if d := durations(spans, spanPlanMatch, 1e6); len(d) != 2 || d[0] != 1 {
		t.Errorf("durations = %v", d)
	}
}

func TestJudgeAppliesBounds(t *testing.T) {
	lower := metricSpec{Name: "read_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	s := func(v, q1, q3 float64) sample { return sample{Value: v, Q1: q1, Q3: q3} }
	for _, c := range []struct {
		m    metricSpec
		a, b sample
		want string
	}{
		{lower, s(100, 99, 101), s(109, 108, 110), verdictOK},
		{lower, s(100, 99, 101), s(111, 110, 112), verdictWorse},
		{lower, s(100, 99, 101), s(50, 49, 51), verdictOK}, // better is never worse
		{higher, s(100, 99, 101), s(89, 88, 90), verdictWorse},
		{higher, s(100, 99, 101), s(120, 119, 121), verdictOK},
		{lower, s(100, 90, 105), s(130, 129, 131), verdictUnresolved}, // spread 15 % > bound
		{lower, s(0, 0, 0), s(0, 0, 0), verdictOK},
	} {
		if got, _ := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %v -> %v) = %s, want %s", c.m.Name, c.a.Value, c.b.Value, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	sp := &spec{EndToEnd: []metricSpec{{Name: "ops_per_s", Better: "higher", Bound: 0.1}, {Name: "setup_s", Better: "lower", Bound: 0.25}}}
	write := func(name string, ops, fail float64) string {
		doc := document{Workloads: map[string]*result{"kb_scan_cold": {
			FailRatio: fail,
			EndToEnd:  map[string]sample{"ops_per_s": {Value: ops, Q1: ops, Q3: ops}, "setup_s": {Value: 1, Q1: 1, Q3: 1}},
		}}}
		data, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", 100, 0)
	var out bytes.Buffer
	if worse, err := compareFiles(&out, sp, a, write("b.json", 95, 0)); err != nil || worse {
		t.Errorf("5 %% slower: worse=%v err=%v", worse, err)
	}
	if worse, err := compareFiles(&out, sp, a, write("c.json", 80, 0)); err != nil || !worse {
		t.Errorf("20 %% slower: worse=%v err=%v", worse, err)
	}
	if worse, err := compareFiles(&out, sp, a, write("d.json", 100, 0.01)); err != nil || !worse {
		t.Errorf("new failures: worse=%v err=%v", worse, err)
	}
	if !strings.Contains(out.String(), "worse") || !strings.Contains(out.String(), "kb_scan_cold") {
		t.Errorf("report:\n%s", out.String())
	}
	if _, err := compareFiles(&out, sp, a, filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing document accepted")
	}
	// The command exits non-zero on worse.
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-compare", a, write("e.json", 50, 0)}, &stdout, &stderr); code != 1 {
		t.Errorf("-compare exit %d: %s", code, stderr.String())
	}
	if code := realMain([]string{"-compare", a, a}, &stdout, &stderr); code != 0 {
		t.Errorf("-compare of a document with itself: exit %d", code)
	}
}

func TestCountFSCountsWhatTheStoreWould(t *testing.T) {
	dir := t.TempDir()
	fs := newCountFS()
	var _ storefs.FS = fs
	wal, err := fs.OpenFile(filepath.Join(dir, "wal.log"), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	before := fs.snapshot()
	wal.Write([]byte("12345"))
	wal.Sync()
	tmp, err := fs.CreateTemp(dir, "snapshot-*")
	if err != nil {
		t.Fatal(err)
	}
	tmp.Write([]byte("1234567"))
	tmp.Sync()
	tmp.Close()
	wal.Close()
	if err := fs.Rename(tmp.Name(), filepath.Join(dir, "snapshot.json")); err != nil {
		t.Fatal(err)
	}
	got := fs.snapshot().sub(before)
	got.SyncNanos = 0
	if want := (fsCounts{Writes: 2, WriteBytes: 12, SnapshotBytes: 7, Syncs: 2, Renames: 1}); got != want {
		t.Errorf("counts %+v, want %+v", got, want)
	}
	if fs.snapshot().SyncNanos <= 0 {
		t.Error("no time in sync")
	}
	if _, err := fs.Open(filepath.Join(dir, "missing")); err == nil {
		t.Error("open of a missing file succeeded")
	}
	if data, err := fs.ReadFile(filepath.Join(dir, "snapshot.json")); err != nil || string(data) != "1234567" {
		t.Errorf("ReadFile: %q %v", data, err)
	}
	if ents, err := fs.ReadDir(dir); err != nil || len(ents) != 2 {
		t.Errorf("ReadDir: %v %v", ents, err)
	}
	if err := fs.Truncate(filepath.Join(dir, "wal.log"), 0); err != nil {
		t.Error(err)
	}
	if err := fs.Remove(filepath.Join(dir, "wal.log")); err != nil {
		t.Error(err)
	}
	if err := fs.MkdirAll(filepath.Join(dir, "a", "b"), 0o755); err != nil {
		t.Error(err)
	}
}

// No goroutine leaves a meeting before all have arrived, round after round.
func TestBarrierKeepsClientsInStep(t *testing.T) {
	const n, rounds = 3, 200
	b := newBarrier(n)
	var arrived [rounds]atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				arrived[r].Add(1)
				b.wait()
				if got := arrived[r].Load(); got != n {
					t.Errorf("round %d: left with %d of %d arrived", r, got, n)
				}
			}
		}()
	}
	wg.Wait()
}

// Write-side metrics come from the repetitions when they contain writes,
// otherwise from the set-up cycles.
func TestWriteSideSource(t *testing.T) {
	cycles := [][]float64{{1, 2}, {3}}
	if got := flatten(writeSide([][]float64{nil, nil}, cycles)); len(got) != 3 {
		t.Errorf("read-only repetitions: %v", got)
	}
	if got := flatten(writeSide([][]float64{nil, {9}}, cycles)); len(got) != 1 || got[0] != 9 {
		t.Errorf("repetitions with writes: %v", got)
	}
}

// The same seed gives the same inputs; another seed gives others of the
// same total size.
func TestInputsAreSeeded(t *testing.T) {
	a, err := genInputs(5, quickSizes)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := genInputs(5, quickSizes)
	c, _ := genInputs(6, quickSizes)
	if a.Resident[3].Text != b.Resident[3].Text || a.Deck[0][17].Body != b.Deck[0][17].Body || a.Hot[15].Path != b.Hot[15].Path {
		t.Error("same seed, different inputs")
	}
	if a.Resident[3].Text == c.Resident[3].Text {
		t.Error("different seeds, same plan")
	}
	if len(a.Deck) != 12 || len(a.Hot) != 16 || len(a.Deck[0]) != variants || len(a.Deck[1]) != 1 {
		t.Errorf("deck shapes: %d slots, %d hot", len(a.Deck), len(a.Hot))
	}
	for key := range truthEntries {
		if a.Truth.Count(key) == 0 {
			t.Errorf("pattern %s injected nowhere", key)
		}
	}
	if scanKB().Len() != 14 {
		t.Errorf("scan knowledge base has %d entries", scanKB().Len())
	}
	if _, err := newMix("ingest_durable", a, sizes{Resident: 4, Churn: 3}); err == nil {
		t.Error("ingest sizes that do not close were accepted")
	}
}
