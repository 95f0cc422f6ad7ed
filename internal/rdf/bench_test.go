package rdf

import (
	"fmt"
	"testing"
)

func buildBenchGraph(n int) *Graph {
	b := NewBuilder()
	typePred := IRI("urn:hasPopType")
	costPred := IRI("urn:hasTotalCost")
	childPred := IRI("urn:hasChildPop")
	types := []Term{String("TBSCAN"), String("NLJOIN"), String("SORT"), String("FETCH")}
	for i := 0; i < n; i++ {
		node := IRI(fmt.Sprintf("urn:pop/%d", i))
		b.Add(node, typePred, types[i%len(types)])
		b.Add(node, costPred, Float(float64(i)*1.7))
		if i > 0 {
			b.Add(IRI(fmt.Sprintf("urn:pop/%d", i/2)), childPred, node)
		}
	}
	return b.Graph()
}

// BenchmarkGraphAdd measures dictionary-encoded triple insertion.
func BenchmarkGraphAdd(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buildBenchGraph(500)
	}
}

// BenchmarkGraphMatchBoundPO measures the hot index lookup the matcher
// issues constantly: predicate and object bound, subject free.
func BenchmarkGraphMatchBoundPO(b *testing.B) {
	g := buildBenchGraph(2000)
	d := g.Dict()
	pid := d.Lookup(IRI("urn:hasPopType"))
	oid := d.Lookup(String("NLJOIN"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		g.Match(NoID, pid, oid, func(_, _, _ ID) bool { count++; return true })
		if count == 0 {
			b.Fatal("no matches")
		}
	}
}

// BenchmarkGraphMatchBoundO measures the free-predicate lookup that raw
// SPARQL such as `?s ?p "NLJOIN"` issues: object bound, subject and
// predicate free, the rows gathered from one POS probe per predicate in use
// and sorted into SPO order.
func BenchmarkGraphMatchBoundO(b *testing.B) {
	g := buildBenchGraph(2000)
	oid := g.Dict().Lookup(String("NLJOIN"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		g.Match(NoID, NoID, oid, func(_, _, _ ID) bool { count++; return true })
		if count == 0 {
			b.Fatal("no matches")
		}
	}
}
