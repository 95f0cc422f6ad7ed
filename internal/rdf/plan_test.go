package rdf_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"optimatch/internal/fixtures"
	"optimatch/internal/qep"
	"optimatch/internal/rdf"
	"optimatch/internal/transform"
	"optimatch/internal/workload"
)

// generatedPlans are n plans of 60–240 operators with the benchmark's
// injection shares (bench/gen.go).
func generatedPlans(tb testing.TB, n int) []*qep.Plan {
	tb.Helper()
	share := func(pct int) int { return n * pct / 100 }
	w, err := workload.Generate(workload.Config{
		Seed: 1, NumPlans: n, MinOps: 60, MaxOps: 240,
		InjectA: share(15), InjectB: share(12), InjectC: share(18), InjectD: share(10), InjectG: share(5),
	})
	if err != nil {
		tb.Fatal(err)
	}
	return w.Plans
}

// TestWriteNTriplesSameBytes holds WriteNTriples — each term rendered once,
// subjects and predicates ranked by token, objects compared within one
// (subject, predicate) — to the writer it replaced, which formats every line
// and sorts the lines: the same bytes for the graph of every fixture plan, of
// the DAG that derives one triple twice and of 64 generated ones, for a plan
// whose statement ID, argument keys and object name need escaping inside an
// IRI, for a graph over the literals and numbers of FuzzGraphIndex with terms
// one of which is a prefix of the other, where ordering tokens and sorting
// lines would part if a token could continue behind another one's end, for
// one whose subjects and predicates are twins — a plain literal and its
// xsd:string spelling, two terms with one token — with interleaved rows, which
// the writer must merge rather than write one twin after the other, and for a
// subject of 60 000 rows, which must be written in well under a second.
func TestWriteNTriplesSameBytes(t *testing.T) {
	var graphs []*rdf.Graph
	for _, p := range append(append(fixtures.All(), fixtures.SharedTemp(), fixtures.DoubleFedJoin()), generatedPlans(t, 64)...) {
		graphs = append(graphs, transform.Transform(p).Graph)
	}
	hostile := fixtures.Renamed(fixtures.Figure1(), "a>b c\\u003E \"{}|^`\\")
	for _, op := range hostile.Ops() {
		op.Args = map[string]string{"MAX PAGES": "ALL", "MAX": "1", "MAX\tPAGES": "2", "<X>": "3"}
	}
	graphs = append(graphs, transform.Transform(hostile).Graph)

	gb := rdf.NewBuilder()
	p := rdf.IRI("urn:p")
	subjects := []rdf.Term{rdf.IRI("urn:s"), rdf.IRI("urn:s "), rdf.IRI("urn:s>"), rdf.IRI("urn:s\x01"), rdf.IRI("urn:sé"), rdf.Blank("s"), rdf.Blank("s1")}
	objects := append([]rdf.Term{
		rdf.String("a"), rdf.String("a "), rdf.String("a\" b"), rdf.String("a\x01"), rdf.String("a\\"), rdf.String("a\n"),
		rdf.TypedLiteral("a", rdf.XSDString), rdf.TypedLiteral("a", "urn:dt"), rdf.TypedLiteral("a", "urn:dt> x"), rdf.TypedLiteral("a", "urn:d"),
		rdf.String("\xff invalid \xc3"), rdf.IRI("urn:o"),
	}, rdf.FuzzLiterals...)
	for _, s := range subjects {
		for _, o := range objects {
			gb.Add(s, p, o)
			gb.Add(s, s, o)
		}
		for _, f := range rdf.FuzzFloats {
			gb.AddIDs(gb.Intern(s), gb.Intern(p), gb.InternFloat(f))
		}
	}
	graphs = append(graphs, gb.Graph())

	gb = rdf.NewBuilder()
	twins := rdf.FuzzTwins[:4] // "t" and "t ", each plain and typed xsd:string
	for i := 0; i < 32; i++ {
		s, p := twins[i%2+i/16*2], twins[i/2%2+i/8%2*2]
		if i%5 == 0 {
			p = rdf.IRI("urn:p")
		}
		gb.Add(s, p, rdf.String(fmt.Sprintf("o%02d", i*7%32)))
	}
	graphs = append(graphs, gb.Graph())

	gb = rdf.NewBuilder()
	wide := rdf.IRI("urn:wide")
	for i := 0; i < 60000; i++ {
		p := rdf.IRI(fmt.Sprintf("urn:p%d", i%3))
		gb.Add(wide, p, rdf.String(fmt.Sprintf("o%d", (i*7919)%60000)))
	}
	g := gb.Graph()
	graphs = append(graphs, g)
	began := time.Now()
	rdf.AppendNTriples(nil, g)
	if took := time.Since(began); took > time.Second {
		t.Errorf("a subject of %d rows took %v to write", g.Len(), took)
	}

	for i, g := range graphs {
		var got, want bytes.Buffer
		if err := rdf.WriteNTriples(&got, g); err != nil {
			t.Fatal(err)
		}
		if err := rdf.WriteNTriplesReference(&want, g); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("graph %d: WriteNTriples and the line-sorting writer differ:\n%s", i, firstDifference(got.Bytes(), want.Bytes()))
		}
		back, err := rdf.ParseNTriples(&got)
		if err != nil {
			t.Fatalf("graph %d: ParseNTriples of the graph's own N-Triples: %v", i, err)
		}
		var again bytes.Buffer
		if err := rdf.WriteNTriples(&again, back); err != nil {
			t.Fatal(err)
		}
		// A plain literal and its xsd:string twin are two terms and one token:
		// two triples, the same line twice, one triple once read back.
		lines := bytes.SplitAfter(want.Bytes(), []byte("\n"))
		distinct := lines[:1]
		for _, line := range lines[1:] {
			if !bytes.Equal(line, distinct[len(distinct)-1]) {
				distinct = append(distinct, line)
			}
		}
		if once := bytes.Join(distinct, nil); !bytes.Equal(again.Bytes(), once) {
			t.Fatalf("graph %d: read back and written again:\n%s", i, firstDifference(again.Bytes(), once))
		}
	}
}

func firstDifference(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d: %q, want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}

// BenchmarkWriteNTriples serializes the graphs of 20 generated plans of the
// benchmark's sizes (60–240 operators) as the /rdf route does,
// AppendNTriples(nil, g), and by the line-sorting writer it replaced.
func BenchmarkWriteNTriples(b *testing.B) {
	var graphs []*rdf.Graph
	for _, p := range generatedPlans(b, 20) {
		graphs = append(graphs, transform.Transform(p).Graph)
	}
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, g := range graphs {
				if len(rdf.AppendNTriples(nil, g)) == 0 {
					b.Fatal("no lines")
				}
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, g := range graphs {
				var buf bytes.Buffer
				if err := rdf.WriteNTriplesReference(&buf, g); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// TestGraphCountMatchesEnumeration checks, on a generated plan's graph, that
// all eight bound/unbound shapes of Count are exact: for every triple and
// every way of masking its components, Count equals the number of triples a
// scan of the graph's triples — read once into a list of the test's own —
// enumerates, and Match calls back as many times. One probe per shape
// additionally uses a term no triple carries.
func TestGraphCountMatchesEnumeration(t *testing.T) {
	w, err := workload.Generate(workload.Config{Seed: 16, NumPlans: 1, MinOps: 60, MaxOps: 60})
	if err != nil {
		t.Fatal(err)
	}
	g := transform.Transform(w.Plans[0]).Graph
	if g.Len() < 500 {
		t.Fatalf("generated plan has only %d triples", g.Len())
	}
	d := g.Dict()
	var triples [][3]rdf.ID
	for _, tr := range g.Triples() {
		triples = append(triples, [3]rdf.ID{d.Lookup(tr.S), d.Lookup(tr.P), d.Lookup(tr.O)})
	}
	check := func(s, p, o rdf.ID) {
		want := 0
		for _, t := range triples {
			if (s == rdf.NoID || t[0] == s) && (p == rdf.NoID || t[1] == p) && (o == rdf.NoID || t[2] == o) {
				want++
			}
		}
		if got := g.Count(s, p, o); got != want {
			t.Errorf("Count(%d,%d,%d) = %d, the list has %d", s, p, o, got, want)
		}
		n := 0
		g.Match(s, p, o, func(_, _, _ rdf.ID) bool { n++; return true })
		if n != want {
			t.Errorf("Match(%d,%d,%d) called back %d times, the list has %d", s, p, o, n, want)
		}
	}
	absent := g.MaxID() + 1
	for i, tr := range triples {
		for mask := 0; mask < 8; mask++ {
			var probe [3]rdf.ID
			for k := range probe {
				if mask&(1<<k) != 0 {
					probe[k] = tr[k]
				}
			}
			check(probe[0], probe[1], probe[2])
			if i == 0 && mask != 0 {
				// The same shape with its last bound position replaced by an
				// ID past every offset array.
				for k := 2; k >= 0; k-- {
					if probe[k] != rdf.NoID {
						probe[k] = absent
						break
					}
				}
				check(probe[0], probe[1], probe[2])
			}
		}
	}
}
