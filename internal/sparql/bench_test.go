package sparql

import (
	"fmt"
	"testing"

	"optimatch/internal/rdf"
	"optimatch/internal/transform"
	"optimatch/internal/workload"
)

const benchQuery = predPrefix + `
SELECT ?pop1 AS ?TOP ?pop3 AS ?SCAN3
WHERE {
  ?pop1 pred:hasPopType "NLJOIN" .
  ?pop1 pred:hasInnerInputStream ?b1 .
  ?b1 pred:hasInnerInputStream ?pop3 .
  ?pop3 pred:hasOutputStream ?b1 .
  ?b1 pred:hasOutputStream ?pop1 .
  ?pop3 pred:hasPopType "TBSCAN" .
  ?pop3 pred:hasEstimateCardinality ?h1 .
  FILTER(?h1 > 100) .
}
ORDER BY ?pop1`

// BenchmarkParseQuery measures parsing the Figure-6-shaped query.
func BenchmarkParseQuery(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(benchQuery); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecReifiedPattern measures evaluating the reified-stream BGP
// against the Figure 1 graph.
func BenchmarkExecReifiedPattern(b *testing.B) {
	g := evalTestGraph()
	q, err := Parse(benchQuery)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := q.Exec(g)
		if err != nil || res.Len() != 1 {
			b.Fatalf("res=%v err=%v", res, err)
		}
	}
}

// BenchmarkFreePredicateQuery evaluates `?s ?p <iri>` — every edge into one
// operator, whatever its predicate — over the graph of one 120-operator
// seed-1 plan: the shape no generated query has, which only raw SPARQL
// issues.
func BenchmarkFreePredicateQuery(b *testing.B) {
	w, err := workload.Generate(workload.Config{Seed: 1, NumPlans: 1, OpCounts: []int{120}})
	if err != nil {
		b.Fatal(err)
	}
	r := transform.Transform(w.Plans[0])
	q, err := Parse(fmt.Sprintf("SELECT ?s ?p WHERE { ?s ?p %s }", r.PopIRI(w.Plans[0].Ops()[1])))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := q.Exec(r.Graph)
		if err != nil || res.Len() == 0 {
			b.Fatalf("res=%v err=%v", res, err)
		}
	}
}

// BenchmarkPathClosure measures the BFS closure over a deep chain.
func BenchmarkPathClosure(b *testing.B) {
	gb := rdf.NewBuilder()
	pred := rdf.IRI("urn:child")
	const depth = 300
	for i := 0; i < depth; i++ {
		gb.Add(rdf.IRI(node(i)), pred, rdf.IRI(node(i+1)))
	}
	g := gb.Graph()
	path := ModPath{Inner: PredPath{IRI: "urn:child"}, Mod: ModOneOrMore}
	start := g.Dict().Lookup(rdf.IRI(node(0)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		evalPath(&pathEnv{g: g}, path, start, rdf.NoID, func(_, _ rdf.ID) bool { count++; return true })
		if count != depth {
			b.Fatalf("count = %d", count)
		}
	}
}

func node(i int) string {
	return fmt.Sprintf("urn:n%d", i)
}

// runPathClosureBench measures `child+` from a bound start at the evalPath
// layer. A fresh pathEnv per iteration reproduces real per-query state (the
// graph's index persists, the per-evaluation memo does not).
func runPathClosureBench(b *testing.B, g *rdf.Graph, want int) {
	path := ModPath{Inner: PredPath{IRI: "urn:child"}, Mod: ModOneOrMore}
	start := g.Dict().Lookup(rdf.IRI(node(0)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		count := 0
		evalPath(&pathEnv{g: g}, path, start, rdf.NoID,
			func(_, _ rdf.ID) bool { count++; return true })
		if count != want {
			b.Fatalf("count = %d, want %d", count, want)
		}
	}
}

// BenchmarkPathClosureDeepChain walks `child+` from the head of an n-edge
// chain: the worst case for per-step overhead (one node per BFS level).
func BenchmarkPathClosureDeepChain(b *testing.B) {
	for _, n := range []int{100, 550, 5000} {
		gb := rdf.NewBuilder()
		pred := rdf.IRI("urn:child")
		for i := 0; i < n; i++ {
			gb.Add(rdf.IRI(node(i)), pred, rdf.IRI(node(i+1)))
		}
		g := gb.Graph()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			runPathClosureBench(b, g, n)
		})
	}
}

// BenchmarkPathClosureDiamond chains diamond gadgets a->{b,c}->a': every
// interior node is reached twice, exercising the visited-set dedup.
func BenchmarkPathClosureDiamond(b *testing.B) {
	for _, k := range []int{33, 183, 1666} { // 3k+1 nodes: ~100/550/5000
		gb := rdf.NewBuilder()
		pred := rdf.IRI("urn:child")
		for i := 0; i < k; i++ {
			a, l, r, next := node(3*i), node(3*i+1), node(3*i+2), node(3*i+3)
			gb.Add(rdf.IRI(a), pred, rdf.IRI(l))
			gb.Add(rdf.IRI(a), pred, rdf.IRI(r))
			gb.Add(rdf.IRI(l), pred, rdf.IRI(next))
			gb.Add(rdf.IRI(r), pred, rdf.IRI(next))
		}
		g := gb.Graph()
		b.Run(fmt.Sprintf("nodes=%d", 3*k+1), func(b *testing.B) {
			runPathClosureBench(b, g, 3*k)
		})
	}
}

// BenchmarkPathClosureFanOut walks `child+` from the root of a complete
// 5-ary tree: wide frontiers, shallow depth.
func BenchmarkPathClosureFanOut(b *testing.B) {
	for _, n := range []int{100, 550, 5000} {
		gb := rdf.NewBuilder()
		pred := rdf.IRI("urn:child")
		for i := 1; i <= n; i++ {
			gb.Add(rdf.IRI(node((i-1)/5)), pred, rdf.IRI(node(i)))
		}
		g := gb.Graph()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			runPathClosureBench(b, g, n)
		})
	}
}

// BenchmarkPathClosureQuery runs a full `?a child+ ?b` query (closure from
// every node, the WHERE table included) over a chain of the paper's scale —
// the end-to-end number. The n(n+1)/2 pairs are counted, not returned: a row
// answer is bounded by MaxRows, which the chain's 151 525 pairs are over.
func BenchmarkPathClosureQuery(b *testing.B) {
	const n = 550
	gb := rdf.NewBuilder()
	pred := rdf.IRI("urn:child")
	for i := 0; i < n; i++ {
		gb.Add(rdf.IRI(node(i)), pred, rdf.IRI(node(i+1)))
	}
	g := gb.Graph()
	q, err := Parse("SELECT (COUNT(*) AS ?n) WHERE { ?a <urn:child>+ ?b }")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := q.Exec(g)
		if err != nil {
			b.Fatal(err)
		}
		if f, _ := res.Get(0, "n").Float(); res.Len() != 1 || f != n*(n+1)/2 {
			b.Fatalf("rows = %d, count = %v", res.Len(), res.Get(0, "n"))
		}
	}
}
