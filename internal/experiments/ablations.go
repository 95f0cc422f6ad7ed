package experiments

import (
	"context"
	"fmt"
	"time"

	"optimatch/internal/core"
	"optimatch/internal/pattern"
	"optimatch/internal/rdf"
	"optimatch/internal/sparql"
	"optimatch/internal/transform"
	"optimatch/internal/workload"
)

// AblationConfig parameterizes the ablation studies.
type AblationConfig struct {
	Seed     int64
	NumPlans int // default 100
	MinOps   int
	MaxOps   int
	Reps     int // default 3
	Workers  int
}

func (c AblationConfig) withDefaults() AblationConfig {
	if c.NumPlans == 0 {
		c.NumPlans = 100
	}
	if c.MinOps == 0 {
		c.MinOps = 60
	}
	if c.MaxOps == 0 {
		c.MaxOps = 240
	}
	if c.Reps == 0 {
		c.Reps = 3
	}
	return c
}

func (c AblationConfig) workloadResults() ([]*transform.Result, error) {
	w, err := workload.Generate(workload.Config{
		Seed: c.Seed, NumPlans: c.NumPlans, MinOps: c.MinOps, MaxOps: c.MaxOps,
		InjectA: c.NumPlans * 15 / 100, InjectB: c.NumPlans * 12 / 100, InjectC: c.NumPlans * 18 / 100,
	})
	if err != nil {
		return nil, err
	}
	return transform.TransformAll(w.Plans), nil
}

// AblationResult is one on/off comparison.
type AblationResult struct {
	Name     string
	Baseline time.Duration // optimization ON
	Ablated  time.Duration // optimization OFF
}

// Speedup is ablated/baseline: how much slower the system is without the
// optimization.
func (a AblationResult) Speedup() float64 {
	if a.Baseline <= 0 {
		return 0
	}
	return a.Ablated.Seconds() / a.Baseline.Seconds()
}

// Table renders a set of ablations.
func AblationTable(results []AblationResult) *Table {
	t := &Table{
		Title:   "Ablations: design choices from DESIGN.md",
		Columns: []string{"ablation", "with [ms]", "without [ms]", "slowdown"},
	}
	for _, a := range results {
		t.Rows = append(t.Rows, []string{
			a.Name, ms(a.Baseline), ms(a.Ablated), fmt.Sprintf("%.1fx", a.Speedup()),
		})
	}
	return t
}

// AblationIndexes times indexed vs full-scan triple matching on the
// workload's RDF graphs: the dictionary-encoded SPO and POS indexes vs a
// naive scan, for the bound-predicate lookups the matcher issues constantly.
func AblationIndexes(cfg AblationConfig) (AblationResult, error) {
	cfg = cfg.withDefaults()
	results, err := cfg.workloadResults()
	if err != nil {
		return AblationResult{}, err
	}
	pred := rdf.IRI(transform.PredPopType)
	val := rdf.String("NLJOIN")

	probe := func(scan bool) func() error {
		return func() error {
			count := 0
			for _, r := range results {
				d := r.Graph.Dict()
				pid, oid := d.Lookup(pred), d.Lookup(val)
				if pid == rdf.NoID {
					continue
				}
				if scan {
					// Every triple visited, the pattern tested on each.
					r.Graph.Match(rdf.NoID, rdf.NoID, rdf.NoID, func(_, p, o rdf.ID) bool {
						if p == pid && o == oid {
							count++
						}
						return true
					})
				} else {
					r.Graph.Match(rdf.NoID, pid, oid, func(_, _, _ rdf.ID) bool { count++; return true })
				}
			}
			if count == 0 {
				return fmt.Errorf("ablation probe matched nothing")
			}
			return nil
		}
	}
	base, err := timeIt(cfg.Reps, probe(false))
	if err != nil {
		return AblationResult{}, err
	}
	abl, err := timeIt(cfg.Reps, probe(true))
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{Name: "triple-store indexes", Baseline: base, Ablated: abl}, nil
}

// AblationReorder times pattern matching with and without the
// selectivity-based BGP join-order heuristic: every canonical pattern's query
// evaluated over every graph of the workload, on one goroutine.
func AblationReorder(cfg AblationConfig) (AblationResult, error) {
	cfg = cfg.withDefaults()
	results, err := cfg.workloadResults()
	if err != nil {
		return AblationResult{}, err
	}
	_, compiled, err := patternSet()
	if err != nil {
		return AblationResult{}, err
	}
	run := func(opts sparql.ExecOptions) func() error {
		return func() error {
			for _, c := range compiled {
				for _, r := range results {
					if _, err := c.Parsed.ExecOpts(r.Graph, opts); err != nil {
						return err
					}
				}
			}
			return nil
		}
	}
	base, err := timeIt(cfg.Reps, run(sparql.ExecOptions{}))
	if err != nil {
		return AblationResult{}, err
	}
	abl, err := timeIt(cfg.Reps, run(sparql.ExecOptions{DisableReorder: true}))
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{Name: "BGP join reordering", Baseline: base, Ablated: abl}, nil
}

// reifiedDescendantQuery is Pattern B expressed WITHOUT the derived
// hasChildPop closure predicates: descendants are reached by repeating the
// two-hop reified stream traversal. Semantically equivalent, structurally
// what a system without derived predicates would have to evaluate.
const reifiedDescendantQuery = transform.Prologue + `
SELECT DISTINCT ?pop1 AS ?TOP ?pop2 AS ?L ?pop3 AS ?R
WHERE {
  ?pop1 preduri:hasPopClass "JOIN" .
  ?pop1 preduri:hasOuterInputStream/preduri:hasOuterInputStream/((preduri:hasOuterInputStream|preduri:hasInnerInputStream|preduri:hasInputStream)/(preduri:hasOuterInputStream|preduri:hasInnerInputStream|preduri:hasInputStream))* ?pop2 .
  ?pop1 preduri:hasInnerInputStream/preduri:hasInnerInputStream/((preduri:hasOuterInputStream|preduri:hasInnerInputStream|preduri:hasInputStream)/(preduri:hasOuterInputStream|preduri:hasInnerInputStream|preduri:hasInputStream))* ?pop3 .
  ?pop2 preduri:hasPopClass "JOIN" .
  ?pop3 preduri:hasPopClass "JOIN" .
  ?pop2 preduri:hasJoinType "LEFT_OUTER" .
  ?pop3 preduri:hasJoinType "LEFT_OUTER" .
}
ORDER BY ?pop1
`

// AblationDerivedPredicates compares Pattern B's descendant search through
// the derived hasChildPop closure predicates against the equivalent query
// over the raw reified stream edges, verifying both find the same plans.
func AblationDerivedPredicates(cfg AblationConfig) (AblationResult, error) {
	cfg = cfg.withDefaults()
	results, err := cfg.workloadResults()
	if err != nil {
		return AblationResult{}, err
	}
	e := core.New(core.WithWorkers(maxInt(cfg.Workers, 1)))
	for _, r := range results {
		if err := e.LoadResult(r); err != nil {
			return AblationResult{}, err
		}
	}
	cB, err := pattern.Compile(pattern.B())
	if err != nil {
		return AblationResult{}, err
	}

	// Sanity: both formulations agree on the matched plan set.
	m1, err := e.FindCompiled(context.Background(), cB)
	if err != nil {
		return AblationResult{}, err
	}
	reified, err := sparql.Parse(reifiedDescendantQuery)
	if err != nil {
		return AblationResult{}, err
	}
	m2, err := e.FindSPARQL(context.Background(), reified)
	if err != nil {
		return AblationResult{}, err
	}
	if !samePlanSet(m1, m2) {
		return AblationResult{}, fmt.Errorf("derived and reified descendant queries disagree: %d vs %d plans",
			len(planSet(m1)), len(planSet(m2)))
	}

	base, err := timeIt(cfg.Reps, func() error {
		_, err := e.FindCompiled(context.Background(), cB)
		return err
	})
	if err != nil {
		return AblationResult{}, err
	}
	abl, err := timeIt(cfg.Reps, func() error {
		_, err := e.FindSPARQL(context.Background(), reified)
		return err
	})
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{Name: "derived hasChildPop closure predicates", Baseline: base, Ablated: abl}, nil
}

func planSet(ms []transform.Match) map[string]bool {
	out := make(map[string]bool)
	for _, m := range ms {
		out[m.Plan().ID] = true
	}
	return out
}

func samePlanSet(a, b []transform.Match) bool {
	sa, sb := planSet(a), planSet(b)
	if len(sa) != len(sb) {
		return false
	}
	for id := range sa {
		if !sb[id] {
			return false
		}
	}
	return true
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
