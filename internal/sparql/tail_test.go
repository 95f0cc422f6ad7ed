package sparql

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"optimatch/internal/rdf"
)

// The tests in this file cover the result tail — group, compute, sort, dedup,
// window — at its edges, each against the reference tail of eval_ref_test.go
// where the row order is defined.

// typedGraph holds six operators a1, b1..b3, c1, c2 whose hasPopType is the
// letter of their name: three groups of sizes 1, 3 and 2.
func typedGraph() *rdf.Graph {
	b := rdf.NewBuilder()
	for _, n := range []string{"a1", "b1", "b2", "b3", "c1", "c2"} {
		b.Add(rdf.IRI("urn:"+n), rdf.IRI(predIRI+"hasPopType"), rdf.String(strings.ToUpper(n[:1])))
	}
	return b.Graph()
}

// cellValues renders a result as one space-separated string of cell values
// per row.
func cellValues(res *Results) []string {
	out := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		vals := make([]string, len(row))
		for j, t := range row {
			vals[j] = t.Value
		}
		out[i] = strings.Join(vals, " ")
	}
	return out
}

// An ORDER BY key may name a SELECT alias. A name the WHERE clause mentions
// keeps meaning the WHERE variable.
func TestTailOrderByAlias(t *testing.T) {
	g := typedGraph()
	typed := ` WHERE { ?pop pred:hasPopType ?type } `
	for _, c := range []struct {
		name, text string
		want       []string
	}{
		{"aggregate alias (the benchmark's qGroup shape)",
			`SELECT ?type (COUNT(?pop) AS ?n)` + typed + `GROUP BY ?type ORDER BY DESC(?n) ?type LIMIT 2`,
			[]string{"B 3", "C 2"}},
		{"computed column alias",
			`SELECT ?pop (STR(?type) AS ?t)` + typed + `ORDER BY DESC(?t) ?pop LIMIT 3`,
			[]string{"urn:c1 C", "urn:c2 C", "urn:b1 B"}},
		{"renamed variable (Figure 6: ?pop1 AS ?TOP)",
			`SELECT DISTINCT ?pop AS ?TOP` + typed + `ORDER BY DESC(?TOP) LIMIT 2`,
			[]string{"urn:c2", "urn:c1"}},
		{"alias inside a key expression",
			`SELECT ?type (COUNT(?pop) AS ?n)` + typed + `GROUP BY ?type ORDER BY DESC(?n * 2)`,
			[]string{"B 3", "C 2", "A 1"}},
		{"the WHERE variable shadows the alias",
			`SELECT ?pop AS ?type` + typed + `ORDER BY DESC(?type) ?pop LIMIT 2`,
			[]string{"urn:c1", "urn:c2"}},
		{"duplicate aliases: two columns, the first one sorts",
			`SELECT (STR(?type) AS ?k) (STR(?pop) AS ?k)` + typed + `ORDER BY DESC(?k) LIMIT 1 OFFSET 2`,
			[]string{"B urn:b1"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			q := mustParse(t, predPrefix+c.text)
			res, err := q.Exec(g)
			if err != nil {
				t.Fatal(err)
			}
			if got := cellValues(res); !reflect.DeepEqual(got, c.want) {
				t.Errorf("rows %q, want %q", got, c.want)
			}
			want := execReference(q, g)
			if !reflect.DeepEqual(rowStrings(res), rowStrings(want)) {
				t.Errorf("rows %q, reference %q", rowStrings(res), rowStrings(want))
			}
		})
	}
}

// The tail's edges. Every case is compared with the reference row for row;
// rows is the expected row count and cell, when set, the expected first row.
func TestTailEdges(t *testing.T) {
	g := typedGraph()
	typed := ` WHERE { ?pop pred:hasPopType ?type } `
	ghost := ` WHERE { ?pop pred:hasPopType "GHOST" } `
	wide := "SELECT ?v0 (STR(?v69) AS ?end) WHERE {\n"
	for i := 0; i < 70; i++ {
		wide += fmt.Sprintf("  ?v%d pred:hasChildPop ?v%d .\n", i, i+1)
	}
	wide += "} ORDER BY DESC(STR(?v70)) LIMIT 3"
	for _, c := range []struct {
		name, text string
		g          *rdf.Graph
		rows       int
		cell       string
	}{
		{"LIMIT 0", `SELECT ?pop` + typed + `ORDER BY ?pop LIMIT 0`, g, 0, ""},
		{"OFFSET at the row count", `SELECT ?pop` + typed + `ORDER BY ?pop OFFSET 6`, g, 0, ""},
		{"OFFSET past the groups", `SELECT ?type (COUNT(*) AS ?n)` + typed + `GROUP BY ?type ORDER BY ?type OFFSET 4`, g, 0, ""},
		{"empty WHERE, no GROUP BY: COUNT(*) is 0", `SELECT (COUNT(*) AS ?n)` + ghost, g, 1, "0"},
		{"empty WHERE, GROUP BY: no row", `SELECT ?pop (COUNT(*) AS ?n)` + ghost + `GROUP BY ?pop`, g, 0, ""},
		{"AVG and MIN over an empty group are unbound", `SELECT (AVG(?pop) AS ?avg) (MIN(?pop) AS ?min)` + ghost, g, 1, " "},
		{"SUM over non-numbers is unbound, the expression around it too", `SELECT (SUM(?type) + 1 AS ?s) (COUNT(DISTINCT ?type) AS ?n)` + typed, g, 1, " 3"},
		{"HAVING drops every group", `SELECT ?type` + typed + `GROUP BY ?type HAVING(COUNT(*) > 3)`, g, 0, ""},
		{"HAVING over an aggregate that is not projected", `SELECT ?type` + typed + `GROUP BY ?type HAVING(COUNT(?pop) > 1) ORDER BY ?type`, g, 2, "B"},
		{"BIND-synthesised GROUP BY key", `SELECT ?l (COUNT(*) AS ?n) WHERE { ?pop pred:hasPopType ?type BIND(LCASE(?type) AS ?l) } GROUP BY ?l ORDER BY DESC(?n)`, g, 3, "b 3"},
		{"BIND-synthesised DISTINCT cell", `SELECT DISTINCT ?l WHERE { ?pop pred:hasPopType ?type BIND(LCASE(?type) AS ?l) } ORDER BY ?l`, g, 3, "a"},
		{"DISTINCT over a computed column", `SELECT DISTINCT (LCASE(?type) AS ?l)` + typed + `ORDER BY DESC(?l)`, g, 3, "c"},
		{"DISTINCT over grouped rows", `SELECT DISTINCT (COUNT(*) > 1 AS ?many)` + typed + `GROUP BY ?type ORDER BY ?many`, g, 2, "false"},
		{"computed columns past slot 64", wide, chainGraph(80), 3, "http://optimatch/qep/pop/9 http://optimatch/qep/pop/78"},
	} {
		t.Run(c.name, func(t *testing.T) {
			q := mustParse(t, predPrefix+c.text)
			res, err := q.Exec(c.g)
			if err != nil {
				t.Fatal(err)
			}
			want := execReference(q, c.g)
			if !reflect.DeepEqual(res.Vars, want.Vars) || !reflect.DeepEqual(rowStrings(res), rowStrings(want)) {
				t.Errorf("%v %q, reference %v %q", res.Vars, rowStrings(res), want.Vars, rowStrings(want))
			}
			if res.Len() != c.rows {
				t.Fatalf("%d rows, want %d: %q", res.Len(), c.rows, rowStrings(res))
			}
			if c.rows > 0 && cellValues(res)[0] != c.cell {
				t.Errorf("first row %q, want %q", cellValues(res)[0], c.cell)
			}
		})
	}
	if n := len(mustParse(t, predPrefix+wide).Analysis().prog.vars); n <= 66 {
		t.Errorf("%d slots: the wide query's computed columns are not past the bitmask", n)
	}
}

// DISTINCT runs on interned IDs: two rows get the same key iff they are equal
// term for term — terms the graph does not hold (computed values) and unbound
// cells included — and keying a row costs at most the key string.
func TestTailDistinctKeys(t *testing.T) {
	gb := rdf.NewBuilder()
	gb.Add(rdf.IRI("a"), rdf.IRI("p"), rdf.IRI("b"))
	gb.Add(rdf.IRI("c"), rdf.IRI("p"), rdf.String("lit"))
	g := gb.Graph()
	ec := acquireEvalCtx(g, mustParse(t, `SELECT ?x ?y WHERE { ?x <p> ?y }`).Analysis().prog, ExecOptions{})
	defer ec.release()

	rows := [][]rdf.Term{
		{rdf.IRI("a"), rdf.IRI("b")},
		{rdf.IRI("a"), rdf.String("lit")},
		{rdf.IRI("b"), rdf.IRI("a")}, // order matters
		{rdf.IRI("a"), {}},           // unbound cell
		{{}, rdf.IRI("a")},
		{rdf.Float(42), rdf.IRI("a")},    // not in the dictionary: side table
		{rdf.Float(43), rdf.IRI("a")},    // another side-table term
		{rdf.String("42"), rdf.IRI("a")}, // same lexical form, other datatype
	}
	cols := []int{0, 1}
	intern := func(row []rdf.Term) []rdf.ID {
		return []rdf.ID{ec.intern(row[0]), ec.intern(row[1])}
	}
	for i, row := range rows {
		if !ec.firstSeen(intern(row), cols) {
			t.Errorf("row %d %v collides with an earlier row", i, row)
		}
	}
	for i, row := range rows {
		ids := intern(row)
		if ec.firstSeen(ids, cols) {
			t.Errorf("row %d %v got another key the second time", i, row)
		}
		if back := []rdf.Term{ec.term(ids[0]), ec.term(ids[1])}; !reflect.DeepEqual(back, row) {
			t.Errorf("row %d: %v came back as %v", i, row, back)
		}
	}

	fresh := make([]rdf.ID, 2)
	next := rdf.ID(1000)
	if allocs := testing.AllocsPerRun(200, func() {
		next++
		fresh[0], fresh[1] = next, next
		ec.firstSeen(fresh, cols)
		ec.intern(rows[5][0])
	}); allocs > 1 {
		t.Errorf("keying a new row allocates %.1f times, want at most the key string", allocs)
	}
}

// manyGroupsGraph gives n operators each a type of its own.
func manyGroupsGraph(n int) *rdf.Graph {
	b := rdf.NewBuilder()
	for i := 0; i < n; i++ {
		b.Add(rdf.IRI(fmt.Sprintf("urn:pop%d", i)), rdf.IRI(predIRI+"hasPopType"), rdf.String(fmt.Sprintf("T%05d", i*7919%n)))
	}
	return b.Graph()
}

// The WHERE clause of these queries polls the canceller once (one step, one
// recursion node), so a context that cancels at the first stride poll trips
// inside the tail: in the grouping pass, in the computed-column pass, in the
// materialize loop. Each must return the context's error and no rows, and
// leave the pooled evalCtx fit for the next evaluation on this goroutine.
func TestTailCancelledMidPass(t *testing.T) {
	g := manyGroupsGraph(4 * cancelStride)
	typed := ` WHERE { ?pop pred:hasPopType ?type } `
	for _, c := range []struct{ pass, text string }{
		{"group", `SELECT ?type (COUNT(DISTINCT ?pop) AS ?n) (MAX(?pop) AS ?last)` + typed + `GROUP BY ?type ORDER BY ?type`},
		{"compute", `SELECT DISTINCT (LCASE(?type) AS ?l)` + typed + `ORDER BY ?l`},
		{"materialize", `SELECT ?type ?pop` + typed + `ORDER BY ?pop`},
	} {
		t.Run(c.pass, func(t *testing.T) {
			q := mustParse(t, predPrefix+c.text)
			want := execReference(q, g)
			ec := acquireEvalCtx(g, q.Analysis().prog, ExecOptions{Ctx: newLateCancelCtx()})
			res, err := ec.exec(q)
			if !errors.Is(err, context.Canceled) || res != nil {
				t.Fatalf("res %v, err %v", res, err)
			}
			if ec.joinRows != 1 || len(ec.tabs[0]) != 4*cancelStride*ec.prog.width {
				t.Fatalf("%d recursion nodes, %d cells: the WHERE clause did not finish first", ec.joinRows, len(ec.tabs[0]))
			}
			ec.release()
			for run := 0; run < 2; run++ {
				got, err := q.ExecOpts(g, ExecOptions{Ctx: context.Background()})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(rowStrings(got), rowStrings(want)) {
					t.Fatalf("evaluation after a cancelled one diverges from the reference: %d rows, want %d", got.Len(), want.Len())
				}
			}
		})
	}
}
