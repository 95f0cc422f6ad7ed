package sparql_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"optimatch/internal/fixtures"
	"optimatch/internal/kb"
	"optimatch/internal/pattern"
	"optimatch/internal/rdf"
	"optimatch/internal/sparql"
	"optimatch/internal/transform"
	"optimatch/internal/workload"
)

// joinWorkGraphs returns the plan graphs the planner's tests run over: the 64
// resident plans of the benchmark at seed 1 — operator counts 60 to 240 evenly
// spaced and shuffled inside each half, injections at the benchmark's shares —
// generated as bench/gen.go's genPlans generates them, so that the counts
// TestJoinWorkBudgetKB pins are the ones a kb_scan_cold scan does.
func joinWorkGraphs(t *testing.T) []*rdf.Graph {
	t.Helper()
	joinWork.once.Do(func() {
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
		w, err := workload.Generate(workload.Config{
			Seed: seed, NumPlans: n, OpCounts: ops,
			InjectA: share(15), InjectB: share(12), InjectC: share(18), InjectD: share(10), InjectG: share(5),
		})
		if err != nil {
			joinWork.err = err
			return
		}
		for _, p := range w.Plans {
			joinWork.graphs = append(joinWork.graphs, transform.Transform(p).Graph)
		}
	})
	if joinWork.err != nil {
		t.Fatal(joinWork.err)
	}
	return joinWork.graphs
}

var joinWork struct {
	once   sync.Once
	graphs []*rdf.Graph
	err    error
}

// patternAOver is the knowledge base's pattern A with the inner-cardinality
// threshold as a parameter, built the way bench/gen.go's scanKB builds the
// seven variants the kb_scan_cold knowledge base holds beside the canonical
// entry (the root module cannot import bench/).
func patternAOver(name string, innerCard float64) *pattern.Pattern {
	b := pattern.NewBuilder(name, "NLJOIN repeatedly scanning a large inner table")
	top := b.Pop("NLJOIN").Alias("TOP")
	outer := b.Pop(pattern.TypeAny)
	inner := b.Pop("TBSCAN").Alias("SCAN3")
	base := b.Pop(pattern.TypeBaseObj).Alias("BASE4")
	top.OuterChild(outer)
	top.InnerChild(inner)
	outer.Where("hasEstimateCardinality", ">", 1)
	inner.Where("hasEstimateCardinality", ">", innerCard)
	inner.Child(base)
	return b.MustBuild()
}

// stepOrder is the join order Explain reports for q's first block on g, as
// textual pattern positions.
func stepOrder(t *testing.T, q *sparql.Query, g *rdf.Graph) []int {
	t.Helper()
	ex, err := sparql.Explain(q, g)
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	for _, st := range ex.Blocks[0].Steps {
		order = append(order, st.Textual)
	}
	return order
}

// Entries that differ only in a FILTER constant get the same join order on the
// same graph: an estimate that read the constant (beyond which side of the
// predicate's numeric range it lies on) would give the eight pattern-A entries
// of the benchmark's knowledge base up to eight orders, and a knowledge base
// compiled into one program (ROADMAP) nothing to share.
func TestRelatedEntriesSameOrder(t *testing.T) {
	var queries []*sparql.Query
	for _, threshold := range []float64{150, 250, 400, 650, 1000, 1600, 2500} {
		c, err := pattern.Compile(patternAOver(fmt.Sprintf("over-%v", threshold), threshold))
		if err != nil {
			t.Fatal(err)
		}
		q, err := sparql.Parse(c.Query)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	canonical, err := sparql.Parse(kb.MustExtended().Entry("nljoin-inner-tbscan").SPARQL)
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*rdf.Graph{}
	for _, p := range fixtures.All() {
		graphs[p.ID] = transform.Transform(p).Graph
	}
	for i, g := range joinWorkGraphs(t)[:8] {
		graphs[fmt.Sprintf("generated %d", i)] = g
	}
	for id, g := range graphs {
		want := stepOrder(t, canonical, g)
		if len(want) != 17 {
			t.Fatalf("plan %s: pattern A has %d steps, want its 17 triple patterns", id, len(want))
		}
		for i, q := range queries {
			if got := stepOrder(t, q, g); !reflect.DeepEqual(got, want) {
				t.Errorf("plan %s: variant %d is ordered %v, the canonical entry %v", id, i, got, want)
			}
		}
	}
}

// Explain's per-step actuals are the evaluation's two counters split by
// triple pattern: they sum to JoinRows and MatchRows, which are what the same
// evaluation reports through ExecOptions.Stats — over every shape that runs
// blocks inside blocks (OPTIONAL legs, EXISTS filters, unions,
// paths) and over the knowledge base.
func TestExplainActualsSum(t *testing.T) {
	const prologue = "PREFIX preduri: <http://optimatch/pred/>\n"
	texts := []string{
		prologue + `SELECT ?pop ?jt WHERE { ?pop preduri:hasPopType ?t OPTIONAL { ?pop preduri:hasJoinType ?jt } } ORDER BY ?pop`,
		prologue + `SELECT ?a ?b WHERE { ?a preduri:hasChildPop+ ?b . ?b preduri:hasPopType "TBSCAN" }`,
		prologue + `SELECT ?pop WHERE { { ?pop preduri:hasPopType "TBSCAN" } UNION { ?pop preduri:hasPopType "IXSCAN" } ?pop preduri:hasTotalCost ?c }`,
		prologue + `SELECT ?a ?t WHERE { ?a preduri:hasChildPop ?b . FILTER NOT EXISTS { ?b preduri:hasPopType ?t } ?a preduri:hasPopType ?t }`,
		prologue + `SELECT DISTINCT ?a WHERE { ?a preduri:hasChildPop ?b . FILTER EXISTS { ?b preduri:hasChildPop ?c FILTER NOT EXISTS { ?c preduri:hasChildPop ?d } } ?x preduri:hasTotalCost ?cost }`,
		prologue + `SELECT ?pop WHERE { ?pop preduri:hasPopType "NO_SUCH_TYPE" . ?pop preduri:hasTotalCost ?c }`,
	}
	for _, e := range kb.MustExtended().Entries() {
		texts = append(texts, e.SPARQL)
	}
	for _, g := range joinWorkGraphs(t)[:6] {
		for _, text := range texts {
			q, err := sparql.Parse(text)
			if err != nil {
				t.Fatalf("Parse(%s): %v", text, err)
			}
			var stats sparql.EvalStats
			res, err := q.ExecOpts(g, sparql.ExecOptions{Stats: &stats})
			if err != nil {
				t.Fatal(err)
			}
			ex, err := sparql.Explain(q, g)
			if err != nil {
				t.Fatal(err)
			}
			var descends, extends int64
			for _, b := range ex.Blocks {
				for _, st := range b.Steps {
					descends += st.Descends
					extends += st.Extends
				}
			}
			snap := stats.Snapshot()
			if descends != ex.JoinRows || extends != ex.MatchRows || ex.JoinRows != snap.JoinRows || ex.MatchRows != snap.MatchRows || ex.Rows != res.Len() {
				t.Errorf("%s\nsteps sum to %d descends and %d extends, Explain reports %d / %d (%d rows), ExecOpts counted %d / %d (%d rows)",
					text, descends, extends, ex.JoinRows, ex.MatchRows, ex.Rows, snap.JoinRows, snap.MatchRows, res.Len())
			}
		}
	}
}

// Explain names every variable an EXISTS shares with the rest of its group:
// past slot 63 too (with 66 patterns before it, ?v65 sits at slot 130), and
// one only a later FILTER mentions.
func TestExplainExistsShared(t *testing.T) {
	wide := "SELECT * WHERE { "
	for i := range 66 {
		wide += fmt.Sprintf("?v%d pred:p ?w%d . ", i, i)
	}
	for _, c := range []struct{ text, want string }{
		{wide + "FILTER EXISTS { ?v65 pred:hasChildPop ?v0 } }", "FILTER EXISTS, run as a filter on {?v0 ?v65}"},
		{"SELECT * WHERE { ?a pred:hasPopType ?t FILTER EXISTS { ?a pred:hasChildPop ?c } FILTER(?c != ?a) }", "FILTER EXISTS, run as a filter on {?a ?c}"},
	} {
		q, err := sparql.Parse("PREFIX pred: <http://optimatch/pred/>\n" + c.text)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := sparql.Explain(q, joinWorkGraphs(t)[0])
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(ex.String(), c.want) {
			t.Errorf("the explanation does not say %q:\n%s", c.want, ex)
		}
	}
}

// BenchmarkPlanBlock evaluates the knowledge base's pattern A — one block of
// 17 triple patterns — over one 120-operator plan that does not contain it:
// the recursion dies within a few dozen nodes, so what is measured is what a
// (query, graph) pair pays before the first row: resolving the constants,
// reading the statistics and ordering the block.
func BenchmarkPlanBlock(b *testing.B) {
	q, err := sparql.Parse(kb.MustExtended().Entry("nljoin-inner-tbscan").SPARQL)
	if err != nil {
		b.Fatal(err)
	}
	w, err := workload.Generate(workload.Config{Seed: 14, NumPlans: 1, OpCounts: []int{120}})
	if err != nil {
		b.Fatal(err)
	}
	g := transform.Transform(w.Plans[0]).Graph
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.ExecOpts(g, sparql.ExecOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
