// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 3) against the synthetic workload substrate:
//
//	Figure 9  — search time vs workload size (100..1000 QEP files)
//	Figure 10 — per-plan search time vs number of LOLEPOPs
//	Figure 11 — scan time vs number of recommendations in the knowledge base
//	Figure 12 — comparative user study: manual search vs OptImatch
//	Table 1   — precision of manual search vs OptImatch
//
// plus three ablation studies for design choices called out in DESIGN.md
// (triple-store indexes, BGP join reordering, derived closure predicates).
//
// Each figure, the study and the ablations take a config of their own
// (Fig9Config … AblationConfig) whose zero value is the full-scale run: the
// reproduction (cmd/experiments -all) runs the defaults, -quick and the unit
// tests shrink them. The system itself is measured by bench/, not here.
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"

	"optimatch/internal/core"
	"optimatch/internal/kb"
	"optimatch/internal/pattern"
	"optimatch/internal/transform"
)

// Table is a printable experiment result.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "%s\n%s\n", t.Title, strings.Repeat("=", len(t.Title)))
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], cell)
		}
		fmt.Fprintln(w)
	}
	printRow(t.Columns)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

// patternSet returns the paper's three experimental patterns in order
// (#1 = Pattern A, #2 = Pattern B, #3 = Pattern C; Section 3.1).
func patternSet() ([]string, []*pattern.Compiled, error) {
	names := []string{"Pattern #1", "Pattern #2", "Pattern #3"}
	ps := []*pattern.Pattern{pattern.A(), pattern.B(), pattern.C()}
	out := make([]*pattern.Compiled, len(ps))
	for i, p := range ps {
		c, err := pattern.Compile(p)
		if err != nil {
			return nil, nil, err
		}
		out[i] = c
	}
	return names, out, nil
}

// engineOver builds an engine over pre-transformed plans.
func engineOver(results []*transform.Result, workers int) (*core.Engine, error) {
	opts := []core.Option{}
	if workers > 0 {
		opts = append(opts, core.WithWorkers(workers))
	}
	e := core.New(opts...)
	for _, r := range results {
		if err := e.LoadResult(r); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// timeIt runs fn reps times and returns the median duration. A garbage
// collection runs first so allocation debt from setup (plan generation,
// transformation) is not charged to the measurement.
func timeIt(reps int, fn func() error) (time.Duration, error) {
	if reps < 1 {
		reps = 1
	}
	runtime.GC()
	durations := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		durations = append(durations, time.Since(start))
	}
	sort.Slice(durations, func(i, j int) bool { return durations[i] < durations[j] })
	return durations[len(durations)/2], nil
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Nanoseconds())/1e6)
}

func secs(d time.Duration) string {
	return fmt.Sprintf("%.3f", d.Seconds())
}

// variantKB builds a knowledge base with n entries by cycling the four
// canonical patterns with perturbed thresholds, the way an organization's
// experts accumulate near-variants over time (Figure 11's 1..250
// recommendations).
func variantKB(n int) (*kb.KnowledgeBase, error) {
	k := kb.New()
	for i := 0; i < n; i++ {
		var p *pattern.Pattern
		var rec kb.Recommendation
		switch i % 4 {
		case 0:
			b := pattern.NewBuilder(fmt.Sprintf("variant-a-%d", i), "NLJOIN over large inner scan (variant)")
			top := b.Pop("NLJOIN").Alias("TOP")
			outer := b.Pop(pattern.TypeAny)
			inner := b.Pop("TBSCAN").Alias("SCAN3")
			base := b.Pop(pattern.TypeBaseObj).Alias("BASE4")
			top.OuterChild(outer)
			top.InnerChild(inner)
			outer.Where("hasEstimateCardinality", ">", 1+i%5)
			inner.Where("hasEstimateCardinality", ">", 100+10*(i%7))
			inner.Child(base)
			var err error
			p, err = b.Build()
			if err != nil {
				return nil, err
			}
			rec = kb.Recommendation{Title: "Index inner table", Category: "INDEX",
				Template: "Create index on @BASE4.NAME (@BASE4(INPUT)) for @TOP."}
		case 1:
			b := pattern.NewBuilder(fmt.Sprintf("variant-b-%d", i), "LOJ on both sides (variant)")
			top := b.Pop(pattern.TypeJoin).Alias("TOP")
			l := b.Pop(pattern.TypeJoin).Alias("L")
			r := b.Pop(pattern.TypeJoin).Alias("R")
			top.OuterDescendant(l)
			top.InnerDescendant(r)
			l.Where("hasJoinType", "=", "LEFT_OUTER")
			r.Where("hasJoinType", "=", "LEFT_OUTER")
			top.Where("hasTotalCost", ">", float64(i%9)*10)
			var err error
			p, err = b.Build()
			if err != nil {
				return nil, err
			}
			rec = kb.Recommendation{Title: "Rewrite LOJ join", Category: "REWRITE",
				Template: "Rewrite @TOP combining @L and @R as ((T1 LOJ T2) JOIN T3) LOJ T4."}
		case 2:
			b := pattern.NewBuilder(fmt.Sprintf("variant-c-%d", i), "cardinality collapse (variant)")
			scan := b.Pop(pattern.TypeScan).Alias("TOP")
			base := b.Pop(pattern.TypeBaseObj).Alias("BASE2")
			scan.Where("hasEstimateCardinality", "<", 0.001/float64(1+i%4))
			base.Where("hasEstimateCardinality", ">", float64(1000000*(1+i%3)))
			scan.Child(base)
			var err error
			p, err = b.Build()
			if err != nil {
				return nil, err
			}
			rec = kb.Recommendation{Title: "Column group statistics", Category: "STATISTICS",
				Template: "Create CGS on @BASE2.NAME predicate columns (@TOP(PREDICATE))."}
		default:
			b := pattern.NewBuilder(fmt.Sprintf("variant-d-%d", i), "sort spill (variant)")
			srt := b.Pop("SORT").Alias("TOP")
			in := b.Pop(pattern.TypeAny).Alias("IN2")
			srt.Child(in)
			in.WhereRef("hasIOCost", "<", srt, "hasIOCost")
			srt.Where("hasTotalCost", ">", float64(i%11))
			var err error
			p, err = b.Build()
			if err != nil {
				return nil, err
			}
			rec = kb.Recommendation{Title: "Increase sort memory", Category: "CONFIG",
				Template: "Raise SORTHEAP: @TOP spills (@TOP.IOCOST vs @IN2.IOCOST)."}
		}
		if _, err := k.Add(p, rec); err != nil {
			return nil, err
		}
	}
	return k, nil
}
