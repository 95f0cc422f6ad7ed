package sparql

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"optimatch/internal/rdf"
)

// The tests in this file cover the depth-first executor's own edges: DISTINCT
// at the leaf against DISTINCT in the tail, row order against the reference where
// the order is defined, re-entrant path evaluation, cancellation inside the
// recursion, and one program shared by concurrent evaluations.

// anchoredGraph is a small plan-like tree under one root in which every
// query below can keep each join step anchored — subject and predicate known
// when the step runs — so each step iterates an index slice in insertion
// order and the row sequence of an evaluation is reproducible:
//
//	root -> c0..c5 (hasChildPop), c0 -> g0, g1 and c3 -> g2 (hasChildPop)
//
// Types repeat across children, cardinalities tie, and only some children
// carry a join type (so an OPTIONAL over it leaves cells unbound).
func anchoredGraph() *rdf.Graph {
	b := rdf.NewBuilder()
	pred := func(n string) rdf.Term { return rdf.IRI(predIRI + n) }
	node := func(n string) rdf.Term { return rdf.IRI("http://optimatch/qep/pop/" + n) }
	types := []string{"B", "A", "B", "C", "A", "B"}
	cards := []string{"7", "3", "7", "1", "3", "9"}
	for i := range types {
		c := node(fmt.Sprintf("c%d", i))
		b.Add(node("root"), pred("hasChildPop"), c)
		b.Add(c, pred("hasPopType"), rdf.String(types[i]))
		b.Add(c, pred("hasEstimateCardinality"), rdf.TypedLiteral(cards[i], rdf.XSDDouble))
		if i%2 == 1 {
			b.Add(c, pred("hasJoinType"), rdf.String([]string{"INNER", "LEFT_OUTER"}[i/2%2]))
		}
	}
	for i, parent := range []string{"c0", "c0", "c3"} {
		gc := node(fmt.Sprintf("g%d", i))
		b.Add(node(parent), pred("hasChildPop"), gc)
		b.Add(gc, pred("hasPopType"), rdf.String("A"))
	}
	return b.Graph()
}

const anchoredRoot = "<http://optimatch/qep/pop/root>"

// withTail returns a parse of text whose program has the early-DISTINCT tail
// switched to early; the shared analysis of other parses is not touched.
func withTail(t *testing.T, text string, early bool) *Query {
	t.Helper()
	q := mustParse(t, text)
	p := *q.Analysis().prog
	p.earlyDistinct = early
	q.analysis.prog = &p
	return q
}

// TestDistinctSortTailEquivalence runs queries whose tail qualifies for
// DISTINCT at the leaf with that shortcut and without it (stable sort of the
// full rows, then dedup) and requires the same row sequence from both, and
// from the algebra oracle and its term-space tail.
func TestDistinctSortTailEquivalence(t *testing.T) {
	g := anchoredGraph()
	body := `WHERE { ` + anchoredRoot + ` pred:hasChildPop ?c . ?c pred:hasPopType ?t . ?c pred:hasEstimateCardinality ?n `
	cases := []struct {
		name, text string
		early      bool
	}{
		{"projected key, duplicates", `SELECT DISTINCT ?t ` + body + `} ORDER BY ?t`, true},
		{"no order: arrival order", `SELECT DISTINCT ?t ` + body + `}`, true},
		{"ties keep arrival order", `SELECT DISTINCT ?t ?n ` + body + `} ORDER BY ?t`, true},
		{"DESC", `SELECT DISTINCT ?t ?n ` + body + `} ORDER BY DESC(?t)`, true},
		{"two keys, mixed direction", `SELECT DISTINCT ?n ?t ` + body + `} ORDER BY DESC(?n) ?t`, true},
		{"aliased projection", `SELECT DISTINCT ?t AS ?TYPE ` + body + `} ORDER BY ?t`, true},
		{"window", `SELECT DISTINCT ?t ?n ` + body + `} ORDER BY ?t LIMIT 2 OFFSET 1`, true},
		{"window past the end", `SELECT DISTINCT ?t ` + body + `} ORDER BY ?t LIMIT 5 OFFSET 7`, true},
		{"OPTIONAL leaves cells unbound", `SELECT DISTINCT ?j ?t ` + body + `OPTIONAL { ?c pred:hasJoinType ?j } } ORDER BY ?j`, true},
		{"grandchildren", `SELECT DISTINCT ?t ?gt ` + body + `. ?c pred:hasChildPop ?gc . ?gc pred:hasPopType ?gt } ORDER BY ?gt ?t`, true},
		{"unprojected key", `SELECT DISTINCT ?t ` + body + `} ORDER BY ?n`, false},
		{"unprojected key, DESC", `SELECT DISTINCT ?t ` + body + `} ORDER BY DESC(?n) ?t`, false},
		{"not DISTINCT", `SELECT ?t ` + body + `} ORDER BY ?t`, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			text := predPrefix + c.text
			if got := mustParse(t, text).Analysis().prog.earlyDistinct; got != c.early {
				t.Fatalf("earlyDistinct = %v, want %v", got, c.early)
			}
			opts := ExecOptions{DisableReorder: true}
			generic, err := withTail(t, text, false).ExecOpts(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := execReference(mustParse(t, text), g)
			if !reflect.DeepEqual(rowStrings(generic), rowStrings(want)) {
				t.Fatalf("generic tail diverges from the reference\n got: %q\nwant: %q", rowStrings(generic), rowStrings(want))
			}
			if len(want.Rows) == 0 && c.name != "window past the end" {
				t.Fatal("vacuous case: no rows")
			}
			if !c.early {
				return
			}
			early, err := withTail(t, text, true).ExecOpts(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(early.Vars, generic.Vars) || !reflect.DeepEqual(rowStrings(early), rowStrings(generic)) {
				t.Fatalf("tails diverge\n early: %v %q\ngeneric: %v %q", early.Vars, rowStrings(early), generic.Vars, rowStrings(generic))
			}
		})
	}
}

// With reordering off and every step anchored, depth-first evaluation must
// produce the algebra oracle's rows in the oracle's order — not only the same
// multiset: a nested-loop join in textual order is depth-first order.
func TestAnchoredSequenceEqualsReference(t *testing.T) {
	g := anchoredGraph()
	root := anchoredRoot + ` pred:hasChildPop ?c . `
	for _, text := range []string{
		`SELECT ?c ?t WHERE { ` + root + `?c pred:hasPopType ?t }`,
		`SELECT ?c ?gc ?t WHERE { ` + root + `?c pred:hasChildPop ?gc . ?gc pred:hasPopType ?t }`,
		`SELECT ?c ?n WHERE { ` + root + `?c pred:hasEstimateCardinality ?n . FILTER(?n > 2) ?c pred:hasPopType ?t }`,
		`SELECT ?c ?j WHERE { ` + root + `OPTIONAL { ?c pred:hasJoinType ?j } ?c pred:hasPopType ?t }`,
		`SELECT ?c ?x WHERE { ` + root + `{ ?c pred:hasJoinType ?x } UNION { ?c pred:hasPopType ?x } }`,
		`SELECT ?c ?twice WHERE { ` + root + `?c pred:hasEstimateCardinality ?n . BIND(?n * 2 AS ?twice) }`,
		`SELECT ?c WHERE { ` + root + `FILTER NOT EXISTS { ?c pred:hasJoinType ?j } ?c pred:hasPopType ?t }`,
		`SELECT ?c ?d WHERE { ` + root + `?c pred:hasChildPop+ ?d }`,
		`SELECT * WHERE { ` + root + `{ ?c pred:hasChildPop ?gc . ?gc pred:hasPopType ?t } }`,
	} {
		q := mustParse(t, predPrefix+text)
		got, err := q.ExecOpts(g, ExecOptions{DisableReorder: true})
		if err != nil {
			t.Fatal(err)
		}
		want := execReference(q, g)
		if len(want.Rows) < 2 {
			t.Fatalf("%s: %d rows, the order check is vacuous", text, len(want.Rows))
		}
		if !reflect.DeepEqual(rowStrings(got), rowStrings(want)) {
			t.Errorf("%s: row sequence diverges from the reference\n got: %q\nwant: %q", text, rowStrings(got), rowStrings(want))
		}
	}
}

// lojGraph is a join tree in the shape the knowledge base's loj-both-sides
// entry looks for: joins whose outer and inner subtrees each hold left outer
// joins some levels down.
func lojGraph() *rdf.Graph {
	b := rdf.NewBuilder()
	pred := func(n string) rdf.Term { return rdf.IRI(predIRI + n) }
	pop := func(i int) rdf.Term { return rdf.IRI(fmt.Sprintf("http://optimatch/qep/pop/%d", i)) }
	// A complete binary tree of 31 joins, children 2i+1 (outer) and 2i+2
	// (inner); every third one is a left outer join.
	for i := 0; i < 31; i++ {
		b.Add(pop(i), pred("hasPopClass"), rdf.String("JOIN"))
		jt := "INNER"
		if i%3 == 1 {
			jt = "LEFT_OUTER"
		}
		b.Add(pop(i), pred("hasJoinType"), rdf.String(jt))
		if l, r := 2*i+1, 2*i+2; r < 31 {
			b.Add(pop(i), pred("hasOuterChildPop"), pop(l))
			b.Add(pop(i), pred("hasInnerChildPop"), pop(r))
			b.Add(pop(i), pred("hasChildPop"), pop(l))
			b.Add(pop(i), pred("hasChildPop"), pop(r))
		}
	}
	return b.Graph()
}

// A block with two closure steps holds the first step's pair buffer while the
// second step's walks run below it, and a closure under FILTER NOT EXISTS
// runs while the outer block's table is live: the path environment's stack
// pools and memo must come through both, evaluation after evaluation on a
// reused evalCtx.
func TestPathStepsAreReentrant(t *testing.T) {
	g := lojGraph()
	for _, text := range []string{
		`SELECT DISTINCT ?top ?l ?r WHERE {
		   ?top pred:hasPopClass "JOIN" .
		   ?top pred:hasOuterChildPop/pred:hasChildPop* ?l .
		   ?top pred:hasInnerChildPop/pred:hasChildPop* ?r .
		   ?l pred:hasJoinType "LEFT_OUTER" .
		   ?r pred:hasJoinType "LEFT_OUTER" .
		 } ORDER BY ?top ?l ?r`,
		`SELECT ?top ?l WHERE {
		   ?top pred:hasOuterChildPop/pred:hasChildPop* ?l .
		   ?l pred:hasJoinType "LEFT_OUTER" .
		   FILTER NOT EXISTS { ?l pred:hasChildPop+ ?x . ?x pred:hasChildPop+ ?y . ?y pred:hasJoinType "LEFT_OUTER" }
		 } ORDER BY ?top ?l`,
		`SELECT ?a ?b ?c WHERE { ?a pred:hasChildPop+ ?b . ?b pred:hasChildPop+ ?c . ?c pred:hasJoinType "LEFT_OUTER" } ORDER BY ?a ?b ?c`,
	} {
		q := mustParse(t, predPrefix+text)
		for run := 0; run < 3; run++ {
			if !requireEquivalent(t, q, g) {
				t.Fatalf("%s: not compared in exact order", text)
			}
		}
		if res, _ := q.Exec(g); res.Len() == 0 {
			t.Fatalf("%s: no rows, the check is vacuous", text)
		}
	}
}

// The bitset-bytes counter charges an evaluation for every bitset it brings
// into use, whether the pooled evalCtx it drew already held one or not: the
// same evaluation moves it by the same amount on a cold pool and a warm one.
func TestBitsetBytesIgnoresPoolState(t *testing.T) {
	g := chainGraph(30)
	q := mustParse(t, predPrefix+`SELECT ?a ?c WHERE { ?a pred:hasChildPop+ ?b . ?b pred:hasChildPop+ ?c }`)
	var stats EvalStats
	var charged []int64
	for run := 0; run < 4; run++ {
		before := stats.Snapshot().Path.BitsetBytes
		if _, err := q.ExecOpts(g, ExecOptions{Stats: &stats}); err != nil {
			t.Fatal(err)
		}
		charged = append(charged, stats.Snapshot().Path.BitsetBytes-before)
	}
	if charged[0] <= 0 {
		t.Fatalf("a closure evaluation charged %d bitset bytes", charged[0])
	}
	for _, c := range charged[1:] {
		if c != charged[0] {
			t.Fatalf("bitset bytes per evaluation depend on the pool: %v", charged)
		}
	}
}

// A cancellation observed deep in the recursion unwinds it, surfaces as the
// context's error with no rows, and leaves the evalCtx fit for the pool.
func TestCancelMidRecursion(t *testing.T) {
	g := chainGraph(21)
	for _, c := range []struct {
		text     string
		minNodes int64
	}{
		// 1 + 20 + 20² recursion nodes: the first stride poll lands three
		// steps deep in the cross product, whose 8 000 rows the evaluations
		// after it answer in full, under the row ceiling (MaxRows).
		{`SELECT ?a ?d ?f WHERE { ?a pred:hasChildPop ?b . ?c pred:hasChildPop ?d . ?e pred:hasChildPop ?f }`, cancelStride / 2},
		// The BFS walks poll too, so this one trips sooner: inside a walk
		// started below the first step, whose pair buffer is still out.
		{`SELECT DISTINCT ?a ?d WHERE { ?a pred:hasChildPop+ ?b . ?b pred:hasChildPop+ ?d } ORDER BY ?a`, 2},
	} {
		text := c.text
		q := mustParse(t, predPrefix+text)
		want := execReference(q, g)

		ec := acquireEvalCtx(g, q.Analysis().prog, ExecOptions{Ctx: newLateCancelCtx()})
		res, err := ec.exec(q)
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("%s: cancelled mid-recursion: res %v, err %v", text, res, err)
		}
		if ec.joinRows < c.minNodes {
			t.Fatalf("%s: cancelled after %d recursion nodes, not mid-recursion", text, ec.joinRows)
		}
		for _, id := range ec.row {
			if id != rdf.NoID {
				t.Fatalf("%s: the binding row was not unwound: %v", text, ec.row)
			}
		}
		for _, bits := range ec.env.visitedPool {
			for _, w := range bits {
				if w != 0 {
					t.Fatalf("%s: a cancelled walk returned a dirty bitset to the pool", text)
				}
			}
		}
		ec.release()

		// The next evaluations on this goroutine draw the same evalCtx.
		for run := 0; run < 2; run++ {
			got, err := q.ExecOpts(g, ExecOptions{Ctx: context.Background()})
			if err != nil {
				t.Fatal(err)
			}
			gotRows, wantRows := rowStrings(got), rowStrings(want)
			sort.Strings(gotRows)
			sort.Strings(wantRows)
			if !reflect.DeepEqual(gotRows, wantRows) {
				t.Fatalf("%s: evaluation after a cancelled one diverges: %d rows, want %d", text, len(gotRows), len(wantRows))
			}
		}
	}
}

// One *Query — one compiled program — evaluated by eight goroutines at once
// over shared graphs: meaningful under -race.
func TestConcurrentEvaluationsShareOneProgram(t *testing.T) {
	graphs := []*rdf.Graph{evalTestGraph(), anchoredGraph(), lojGraph()}
	type job struct {
		q    *Query
		want [][]string // per graph, sorted rows
	}
	var jobs []job
	for _, c := range refSeedQueries {
		j := job{q: mustParse(t, predPrefix+c.text)}
		for _, g := range graphs {
			res := execReference(j.q, g)
			rows := rowStrings(res)
			sort.Strings(rows)
			j.want = append(j.want, rows)
		}
		jobs = append(jobs, j)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var stats EvalStats
			for n := 0; n < 3*len(jobs); n++ {
				j := jobs[(n+w)%len(jobs)]
				for gi, g := range graphs {
					res, err := j.q.ExecOpts(g, ExecOptions{Ctx: context.Background(), Stats: &stats})
					if err != nil {
						t.Error(err)
						return
					}
					rows := rowStrings(res)
					sort.Strings(rows)
					if !reflect.DeepEqual(rows, j.want[gi]) {
						t.Errorf("worker %d, graph %d: rows diverge\n got: %q\nwant: %q", w, gi, rows, j.want[gi])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// Slots and filters past the 64 a bitmask tracks lose only the eager
// application and the bound-variable discount: a 70-variable chain with 70
// filters must still agree with the reference.
func TestWideQueryBeyondTheBitmasks(t *testing.T) {
	g := chainGraph(80)
	text := "SELECT ?v0 ?v69 ?v70 WHERE {\n"
	for i := 0; i < 70; i++ {
		text += fmt.Sprintf("  ?v%d pred:hasChildPop ?v%d . FILTER(?v%d != ?v%d)\n", i, i+1, i, i+1)
	}
	text += "} ORDER BY ?v0"
	q := mustParse(t, predPrefix+text)
	if n := len(q.Analysis().prog.vars); n <= 64 {
		t.Fatalf("%d slots: not past the bitmask", n)
	}
	if !requireEquivalent(t, q, g) {
		t.Fatal("not compared in exact order")
	}
	if res, _ := q.Exec(g); res.Len() != 10 {
		t.Fatalf("%d rows, want the 10 windows of 71 nodes in an 80-node chain", res.Len())
	}
}

// TestRowSequenceIsAFunctionOfTheAddSequence pins the order contract of
// rdf.Graph.Match one level up: without ORDER BY the row sequence of a query
// is fixed by the sequence of Adds that built the graph — never by Go's map
// order — so a LIMIT picks the same rows every time and two graphs built
// alike answer alike. Twelve triples, four subjects to a predicate: enough
// for a map-ordered index to show a second sequence within a few calls.
func TestRowSequenceIsAFunctionOfTheAddSequence(t *testing.T) {
	build := func() *rdf.Graph {
		b := rdf.NewBuilder()
		for i := 0; i < 4; i++ {
			s := rdf.IRI(fmt.Sprintf("urn:s%d", 3-i))
			b.Add(s, rdf.IRI("urn:p"), rdf.IRI(fmt.Sprintf("urn:o%d", i%2)))
			b.Add(s, rdf.IRI("urn:q"), rdf.Int(int64(i)))
			b.Add(rdf.IRI(fmt.Sprintf("urn:o%d", i%2)), rdf.IRI("urn:p"), s)
		}
		return b.Graph()
	}
	for _, text := range []string{
		"SELECT ?s ?o WHERE { ?s <urn:p> ?o }",
		"SELECT ?s ?p ?o WHERE { ?s ?p ?o }",
		"SELECT ?s ?o WHERE { ?s <urn:p> ?o } LIMIT 3",
	} {
		q := mustParse(t, text)
		g := build()
		first, err := q.Exec(g)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		if first.Len() < 3 {
			t.Fatalf("%s: %d rows, want at least 3", text, first.Len())
		}
		for i := 0; i < 100; i++ {
			again, err := q.Exec(g)
			if err != nil {
				t.Fatalf("%s: %v", text, err)
			}
			if !reflect.DeepEqual(again.Rows, first.Rows) {
				t.Fatalf("%s: execution %d returned another row sequence\nfirst: %v\nnow:   %v", text, i+2, first.Rows, again.Rows)
			}
		}
		twin, err := q.Exec(build())
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		if !reflect.DeepEqual(twin.Rows, first.Rows) {
			t.Errorf("%s: a graph built by the same Add sequence answered in another order\nfirst: %v\ntwin:  %v", text, first.Rows, twin.Rows)
		}
	}
}
