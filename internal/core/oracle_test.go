package core

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"optimatch/internal/fixtures"
	"optimatch/internal/pattern"
	"optimatch/internal/qep"
	"optimatch/internal/rdf"
	"optimatch/internal/sparql"
	"optimatch/internal/transform"
	"optimatch/internal/workload"
)

// The oracle: a match as the engine built it before matches were rows — every
// column of every row de-transformed up front into a binding, looked up by
// alias with a case-insensitive scan.

type binding struct {
	Alias    string
	Term     rdf.Term
	Operator *qep.Operator
	Object   *qep.BaseObject
	Display  string
}

type oracleMatch struct {
	Plan     *qep.Plan
	Bindings []binding
}

// oracleMatches evaluates q over every plan of rs, in order, building the
// eager bindings of every row.
func oracleMatches(t *testing.T, q *sparql.Query, rs []*transform.Result) []oracleMatch {
	t.Helper()
	var out []oracleMatch
	for _, r := range rs {
		res, err := q.Exec(r.Graph)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < res.Len(); i++ {
			m := oracleMatch{Plan: r.Plan}
			for c, v := range res.Vars {
				tm := res.At(i, c)
				m.Bindings = append(m.Bindings, binding{Alias: v, Term: tm, Operator: r.Operator(tm), Object: r.Object(tm), Display: r.Describe(tm)})
			}
			out = append(out, m)
		}
	}
	return out
}

func (m *oracleMatch) binding(alias string) *binding {
	for i := range m.Bindings {
		if strings.EqualFold(m.Bindings[i].Alias, alias) {
			return &m.Bindings[i]
		}
	}
	return nil
}

func (m *oracleMatch) String() string {
	var b strings.Builder
	b.WriteString(m.Plan.ID)
	b.WriteString(":")
	for _, bind := range m.Bindings {
		b.WriteString(" " + bind.Alias + "=" + bind.Display)
	}
	return b.String()
}

// wire is the /api/search and /api/sparql form of a match's bindings.
func (m *oracleMatch) wire() map[string]string {
	out := make(map[string]string, len(m.Bindings))
	for _, b := range m.Bindings {
		out[b.Alias] = b.Display
	}
	return out
}

func wire(m transform.Match) map[string]string {
	out := make(map[string]string, len(m.Cells))
	for c, name := range m.Cols.Names() {
		out[name] = m.Display(c)
	}
	return out
}

// sameAsOracle holds a match list to the oracle's: plan, String, wire form and
// every column's name, term, operator, object and display, in order.
func sameAsOracle(t *testing.T, what string, got []transform.Match, want []oracleMatch) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, the oracle has %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], &want[i]
		if g.Plan() != w.Plan || g.String() != w.String() || !reflect.DeepEqual(wire(g), w.wire()) {
			t.Fatalf("%s: match %d is %s %v, the oracle's %s %v", what, i, g, wire(g), w, w.wire())
		}
		for c, b := range w.Bindings {
			if g.Cols.Names()[c] != b.Alias || g.Term(c) != b.Term || g.Operator(c) != b.Operator ||
				g.Object(c) != b.Object || g.Display(c) != b.Display {
				t.Fatalf("%s: match %d column %d differs from binding %+v", what, i, c, b)
			}
		}
	}
}

// TestFindMatchesOracle: over the 24-plan `qepgen -seed 42` workload, the
// matches of FindPattern for every extended pattern and of FindSPARQL for the
// benchmark's raw query shapes are, match for match, the eager bindings the
// oracle builds.
func TestFindMatchesOracle(t *testing.T) {
	rs := generated(t, workload.Config{
		Seed: 42, NumPlans: 24, MinOps: 30, MaxOps: 80, InjectA: 4, InjectB: 3, InjectC: 5, HardFraction: 0.35,
	})
	e := New(WithWorkers(3))
	for _, r := range rs {
		if err := e.LoadResult(r); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	total := 0
	for _, p := range pattern.Extended() {
		got, err := e.FindPattern(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		c, err := pattern.Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		sameAsOracle(t, p.Name, got, oracleMatches(t, c.Parsed, rs))
		total += len(got)
	}
	for qi, text := range rawQueries {
		q := mustParseSPARQL(t, text)
		got, err := e.FindSPARQL(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		sameAsOracle(t, fmt.Sprintf("raw query %d", qi), got, oracleMatches(t, q, rs))
		total += len(got)
	}
	if total == 0 {
		t.Fatal("nothing matched: the comparison compared nothing")
	}
}

// TestAliasLookupExactFirst pins the one lookup rows answer differently: a raw
// query may project variables that differ only in case. The oracle's scan
// answered "A" with the first column folding to it, ?a's; a row answers with
// ?A's, the column spelled exactly so.
func TestAliasLookupExactFirst(t *testing.T) {
	e := New()
	r := transform.Transform(fixtures.Figure1())
	if err := e.LoadResult(r); err != nil {
		t.Fatal(err)
	}
	text := transform.Prologue + `SELECT ?a ?A WHERE {
  ?a preduri:hasPopType "NLJOIN" .
  ?A preduri:hasPopType "TBSCAN" .
}`
	q := mustParseSPARQL(t, text)
	got, err := e.FindSPARQL(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	want := oracleMatches(t, q, []*transform.Result{r})
	if len(got) != 1 || len(want) != 1 {
		t.Fatalf("%d matches, oracle %d, want one each", len(got), len(want))
	}
	sameAsOracle(t, "case-distinct columns", got, want)
	m, o := got[0], &want[0]
	if m.Column("a") != 0 || m.Column("A") != 1 || m.Display(1) != "TBSCAN(5)" {
		t.Errorf("a -> column %d, A -> column %d (%s); want 0 and 1, TBSCAN(5)", m.Column("a"), m.Column("A"), m.Display(m.Column("A")))
	}
	if b := o.binding("A"); b == nil || b.Display != "NLJOIN(2)" {
		t.Errorf("the oracle answers A with %+v, want ?a's NLJOIN(2)", b)
	}
	if c := m.Column("α"); c != -1 {
		t.Errorf("an alias of no column finds column %d", c)
	}
}
