// Logdiag demonstrates the paper's Section 5 generalization: the
// transform-to-RDF / match-with-SPARQL methodology applied to a diagnostic
// domain other than query plans — here, application log data relating to
// network usage. Events become resources, their fields become predicates,
// causal links become relationships, and a "problem pattern" is again a
// graph query: find a request whose retry chain crosses three hops and ends
// in a timeout on a different host than it started on.
//
// Run with: go run ./examples/logdiag
package main

import (
	"fmt"
	"log"

	"optimatch"
)

// event is one parsed log record of the (synthetic) diagnostic artifact.
type event struct {
	id      string
	kind    string // REQUEST, RETRY, TIMEOUT, RESPONSE
	host    string
	latency float64 // milliseconds
	caused  string  // id of the event this one caused, "" for terminal events
}

// A synthetic log: request r1 retries across hosts and times out; request
// r2 completes normally.
var events = []event{
	{"e1", "REQUEST", "host-a", 12, "e2"},
	{"e2", "RETRY", "host-a", 250, "e3"},
	{"e3", "RETRY", "host-b", 260, "e4"},
	{"e4", "RETRY", "host-b", 270, "e5"},
	{"e5", "TIMEOUT", "host-c", 5000, ""},
	{"e6", "REQUEST", "host-a", 10, "e7"},
	{"e7", "RESPONSE", "host-a", 35, ""},
}

const ns = "http://optimatch/logdiag/"

func main() {
	// Transform the diagnostic data into an RDF graph — the log-domain
	// analogue of Algorithm 1.
	b := optimatch.NewGraphBuilder()
	for _, e := range events {
		node := optimatch.IRI(ns + "event/" + e.id)
		b.Add(node, optimatch.IRI(ns+"hasKind"), optimatch.Lit(e.kind))
		b.Add(node, optimatch.IRI(ns+"hasHost"), optimatch.Lit(e.host))
		b.Add(node, optimatch.IRI(ns+"hasLatencyMs"), optimatch.Num(e.latency))
		if e.caused != "" {
			b.Add(node, optimatch.IRI(ns+"caused"), optimatch.IRI(ns+"event/"+e.caused))
		}
	}
	g := b.Graph()
	fmt.Printf("log transformed into %d triples\n\n", g.Len())

	// The problem pattern, as SPARQL with a recursive property path: a
	// REQUEST whose causal chain (one or more hops) reaches a TIMEOUT on a
	// different host, with total chain latency above 1000 ms somewhere.
	query := `
PREFIX lg: <http://optimatch/logdiag/>
SELECT ?req AS ?REQUEST ?to AS ?TIMEOUT ?h1 AS ?FROMHOST ?h2 AS ?TOHOST
WHERE {
  ?req lg:hasKind "REQUEST" .
  ?req lg:caused+ ?to .
  ?to lg:hasKind "TIMEOUT" .
  ?req lg:hasHost ?h1 .
  ?to lg:hasHost ?h2 .
  ?to lg:hasLatencyMs ?lat .
  FILTER(?h1 != ?h2 && ?lat > 1000) .
}
ORDER BY ?req`
	res, err := optimatch.Query(g, query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cross-host timeout chains found: %d\n", res.Len())
	for i := 0; i < res.Len(); i++ {
		fmt.Printf("  request %s (on %s) -> timeout %s (on %s)\n",
			res.Get(i, "REQUEST").Value, res.Get(i, "FROMHOST").Value,
			res.Get(i, "TIMEOUT").Value, res.Get(i, "TOHOST").Value)
	}

	// Count retries along the way — another ad-hoc question, no new code.
	res2, err := optimatch.Query(g, `
PREFIX lg: <http://optimatch/logdiag/>
SELECT DISTINCT ?r WHERE { ?r lg:hasKind "RETRY" . ?r lg:hasLatencyMs ?l . FILTER(?l >= 250) }`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nslow retries (>= 250 ms): %d\n", res2.Len())
}
