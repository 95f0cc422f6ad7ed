package experiments

import (
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestFigure9SmallScale(t *testing.T) {
	res, err := Figure9(Fig9Config{
		Seed: 1, Sizes: []int{10, 20, 30}, Reps: 1, MinOps: 15, MaxOps: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) != 3 || len(res.Times) != 3 {
		t.Fatalf("result shape: %+v", res)
	}
	for pi := range res.Patterns {
		if len(res.Times[pi]) != 3 {
			t.Fatalf("pattern %d has %d measurements", pi, len(res.Times[pi]))
		}
		for si, d := range res.Times[pi] {
			if d <= 0 {
				t.Errorf("pattern %d size %d: non-positive duration", pi, si)
			}
		}
		// Match counts grow monotonically with cumulative buckets.
		for si := 1; si < len(res.Matches[pi]); si++ {
			if res.Matches[pi][si] < res.Matches[pi][si-1] {
				t.Errorf("pattern %d: matches not monotone: %v", pi, res.Matches[pi])
			}
		}
	}
	tbl := res.Table()
	if !strings.Contains(tbl.String(), "Figure 9") {
		t.Error("table title missing")
	}
}

func TestFigure10SmallScale(t *testing.T) {
	res, err := Figure10(Fig10Config{
		Seed: 2, BucketTargets: []int{15, 40, 80}, PlansPerSize: 4, Reps: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Buckets) != 3 || len(res.MeanOps) != 3 {
		t.Fatalf("buckets: %+v", res.Buckets)
	}
	// Mean ops must grow across buckets.
	for i := 1; i < len(res.MeanOps); i++ {
		if res.MeanOps[i] <= res.MeanOps[i-1] {
			t.Errorf("mean ops not increasing: %v", res.MeanOps)
		}
	}
	table := res.Table()
	if !strings.Contains(table.String(), "LOLEPOP") {
		t.Error("table malformed")
	}
	// Per-plan times are microseconds: a slope printed to a fixed number of
	// decimals, or fitted on times cut to whole microseconds, reads 0.
	for _, note := range table.Notes[:len(res.Patterns)] {
		_, slope, _ := strings.Cut(note, "slope = ")
		slope, _, _ = strings.Cut(slope, " ms/op")
		if v, err := strconv.ParseFloat(slope, 64); err != nil || v == 0 {
			t.Errorf("note %q: want a non-zero slope", note)
		}
	}
}

func TestFigure11SmallScale(t *testing.T) {
	cfg := Fig11Config{
		// The median of three: a single run of the one-entry scan is the
		// process's first and pays its cold start, which on an idle machine
		// outweighs seven more entries.
		Seed: 3, NumPlans: 12, KBSizes: []int{1, 4, 8}, MinOps: 15, MaxOps: 30, Reps: 3,
	}
	res, err := Figure11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The work columns are counts: a second run prints them alike.
	again, err := Figure11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	work := func(r *Fig11Result) (cols []string) {
		for _, row := range r.Table().Rows {
			cols = append(cols, strings.Join(row[2:], " "))
		}
		return cols
	}
	if a, b := work(res), work(again); !slices.Equal(a, b) {
		t.Errorf("two runs print different work columns: %q and %q", a, b)
	}
	for i, n := range res.KBSizes {
		if res.Evals[i] <= 0 || res.Evals[i] > int64(n*cfg.NumPlans) || res.JoinRows[i] <= 0 {
			t.Errorf("%d entries: %d evaluations and %d join rows per scan of %d plans", n, res.Evals[i], res.JoinRows[i], cfg.NumPlans)
		}
	}
	if len(res.Times) != 3 {
		t.Fatalf("times: %+v", res.Times)
	}
	// More KB entries must not be faster than one entry by a large margin;
	// expect the largest KB to take the longest.
	if res.Times[2] <= res.Times[0] {
		t.Errorf("KB scaling suspicious: %v", res.Times)
	}
	if !strings.Contains(res.Table().String(), "knowledge-base") {
		t.Error("table malformed")
	}
}

func TestFigure12AndTable1SmallScale(t *testing.T) {
	res, err := Figure12(Fig12Config{Seed: 4, NumPlans: 100, MinOps: 15, MaxOps: 40, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	wantTrue := []int{15, 12, 18}
	for i, row := range res.Rows {
		if row.TrueMatches != wantTrue[i] {
			t.Errorf("%s: true matches = %d, want %d", row.Pattern, row.TrueMatches, wantTrue[i])
		}
		// OptImatch is immune to rendering traps: 100% per the paper.
		if row.ToolPrecision != 1.0 {
			t.Errorf("%s: tool precision = %v, want 1.0", row.Pattern, row.ToolPrecision)
		}
		// The manual baseline misses some but not all pattern files.
		if row.ManualPrecision <= 0.5 || row.ManualPrecision >= 1.0 {
			t.Errorf("%s: manual precision = %.2f, want in (0.5, 1)", row.Pattern, row.ManualPrecision)
		}
		// The tool is much faster than the modeled expert.
		if row.Speedup < 5 {
			t.Errorf("%s: speedup = %.1f, want >= 5", row.Pattern, row.Speedup)
		}
	}
	// Shape check against the paper: Pattern #2 (recursion) is the hardest
	// for manual search.
	if !(res.Rows[1].ManualPrecision <= res.Rows[0].ManualPrecision &&
		res.Rows[1].ManualPrecision <= res.Rows[2].ManualPrecision) {
		t.Errorf("pattern #2 should have the lowest manual precision: %+v", res.Rows)
	}
	if !strings.Contains(res.TimeTable().String(), "Figure 12") {
		t.Error("time table malformed")
	}
	if !strings.Contains(res.PrecisionTable().String(), "Table 1") {
		t.Error("precision table malformed")
	}
}

func TestAblationsSmallScale(t *testing.T) {
	// Three repetitions, of which timeIt takes the median: the index probe
	// lasts a few microseconds, and with one a single preemption inside it made
	// the indexes "slower than scans" in about one run of forty.
	cfg := AblationConfig{Seed: 5, NumPlans: 12, MinOps: 15, MaxOps: 40, Reps: 3}
	idx, err := AblationIndexes(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Baseline <= 0 || idx.Ablated <= 0 {
		t.Errorf("index ablation durations: %+v", idx)
	}
	// Index lookups must beat full scans.
	if idx.Speedup() < 1 {
		t.Errorf("indexes slower than scans? %+v", idx)
	}
	reorder, err := AblationReorder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reorder.Baseline <= 0 || reorder.Ablated <= 0 {
		t.Errorf("reorder ablation durations: %+v", reorder)
	}
	derived, err := AblationDerivedPredicates(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if derived.Baseline <= 0 || derived.Ablated <= 0 {
		t.Errorf("derived ablation durations: %+v", derived)
	}
	tbl := AblationTable([]AblationResult{idx, reorder, derived})
	if !strings.Contains(tbl.String(), "Ablations") {
		t.Error("ablation table malformed")
	}
}

func TestVariantKB(t *testing.T) {
	k, err := variantKB(10)
	if err != nil {
		t.Fatal(err)
	}
	if k.Len() != 10 {
		t.Fatalf("entries = %d", k.Len())
	}
	// Entry names are unique and compiled.
	seen := make(map[string]bool)
	for _, e := range k.Entries() {
		if seen[e.Name] {
			t.Errorf("duplicate entry %s", e.Name)
		}
		seen[e.Name] = true
		if e.SPARQL == "" {
			t.Errorf("entry %s not compiled", e.Name)
		}
	}
}

func TestTablePrinting(t *testing.T) {
	tbl := &Table{
		Title:   "T",
		Columns: []string{"a", "long-column"},
		Rows:    [][]string{{"1", "2"}, {"wide-cell", "3"}},
		Notes:   []string{"a note"},
	}
	s := tbl.String()
	for _, want := range []string{"T\n=", "long-column", "wide-cell", "note: a note"} {
		if !strings.Contains(s, want) {
			t.Errorf("table output missing %q:\n%s", want, s)
		}
	}
}
