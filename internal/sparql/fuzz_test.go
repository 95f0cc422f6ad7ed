package sparql

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"optimatch/internal/rdf"
)

// fuzzPreds are the predicate IRIs random fuzz paths draw from.
var fuzzPreds = []string{"urn:p", "urn:q", "urn:r"}

// fuzzDecodeGraph reads 2-byte edges (s, o packed in byte 0, predicate in
// byte 1) into a graph over nodes urn:n0..urn:n7.
func fuzzDecodeGraph(edges []byte) *rdf.Graph {
	b := rdf.NewBuilder()
	for i := 0; i+1 < len(edges) && i < 64; i += 2 {
		s := rdf.IRI(fmt.Sprintf("urn:n%d", edges[i]%8))
		o := rdf.IRI(fmt.Sprintf("urn:n%d", (edges[i]>>3)%8))
		p := rdf.IRI(fuzzPreds[int(edges[i+1])%len(fuzzPreds)])
		b.Add(s, p, o)
	}
	return b.Graph()
}

// fuzzDecodePath reads a path AST over preds from buf, one operator byte per
// node, bounded by a depth budget so the fuzzer cannot build towers of
// closures.
func fuzzDecodePath(buf []byte, pos *int, depth int, preds []string) Path {
	if *pos >= len(buf) || depth <= 0 {
		return PredPath{IRI: preds[0]}
	}
	b := buf[*pos]
	*pos++
	sub := func() Path { return fuzzDecodePath(buf, pos, depth-1, preds) }
	switch b % 6 {
	case 0, 1:
		return PredPath{IRI: preds[int(b/6)%len(preds)]}
	case 2:
		return InvPath{Inner: sub()}
	case 3:
		return SeqPath{Parts: []Path{sub(), sub()}}
	case 4:
		return AltPath{Alts: []Path{sub(), sub()}}
	default:
		mods := []byte{ModOneOrMore, ModZeroOrMore, ModZeroOrOne}
		return ModPath{Inner: sub(), Mod: mods[int(b/6)%len(mods)]}
	}
}

// FuzzPathEquivalence is a differential fuzz test for the path evaluator:
// for a random small graph and a random path, evalPath must agree with the
// naive reference semantics (refEval) on the (s, o) relation under every
// endpoint binding, its emission order must be reproducible — two fresh
// environments emit the same sequence, and replaying a filled closure memo
// emits what the live BFS that filled it did — and a full query over the
// path must agree with the algebra oracle.
func FuzzPathEquivalence(f *testing.F) {
	// Seed corpus: edges first (2 bytes each), final bytes decode the path.
	// Node packing: s = b%8, o = (b>>3)%8.
	edge := func(s, o byte) byte { return s%8 | (o%8)<<3 }
	// Plain chain n0-p->n1-p->n2 under p+ (deep closure).
	f.Add([]byte{edge(0, 1), 0, edge(1, 2), 0, 0, 5})
	// Cycle n0->n1->n2->n0 under p+ — exercises the (start,start) emission.
	f.Add([]byte{edge(0, 1), 0, edge(1, 2), 0, edge(2, 0), 0, 0, 5})
	// Diamond n0->{n1,n2}->n3 under p* — zero-length self pairs plus joins.
	f.Add([]byte{edge(0, 1), 0, edge(0, 2), 0, edge(1, 3), 0, edge(2, 3), 0, 0, 11})
	// Inverse under closure: (^p)+ over the same cycle.
	f.Add([]byte{edge(0, 1), 0, edge(1, 2), 0, edge(2, 0), 0, 5, 2, 0})
	// Sequence with a bound midpoint dedup: p/q over a fan.
	f.Add([]byte{edge(0, 1), 0, edge(0, 2), 0, edge(1, 3), 1, edge(2, 3), 1, 3, 0, 1})
	// Alternation of closures: p+|^q*.
	f.Add([]byte{edge(0, 1), 0, edge(2, 1), 1, 4, 5, 0, 11, 2, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		if len(data) > 72 {
			data = data[:72]
		}
		// Last quarter of the input decodes the path, the rest the graph.
		split := len(data) - len(data)/4
		g := fuzzDecodeGraph(data[:split])
		pos := split
		p := fuzzDecodePath(data, &pos, 3, fuzzPreds)

		ref := refEval(g, p)
		nodes := refNodes(g)
		sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
		var sb, ob rdf.ID
		if len(nodes) > 0 {
			sb = nodes[int(data[0])%len(nodes)]
			ob = nodes[int(data[len(data)-1])%len(nodes)]
		}

		for _, bind := range [][2]rdf.ID{
			{rdf.NoID, rdf.NoID}, {sb, rdf.NoID}, {rdf.NoID, ob}, {sb, ob},
		} {
			want := filterRef(ref, bind[0], bind[1])
			if got := collectPath(g, p, bind[0], bind[1]); !reflect.DeepEqual(got, want) {
				t.Fatalf("path %s bind %v: evalPath %v, reference %v", pathString(p), bind, got, want)
			}
			// The order guarantee holds under every binding, both endpoints
			// unbound included: every Match shape iterates the graph's index
			// in an order fixed by the Add sequence.
			sequence := func(env *pathEnv) (seq [][2]rdf.ID) {
				evalPath(env, p, bind[0], bind[1], func(s, o rdf.ID) bool {
					seq = append(seq, [2]rdf.ID{s, o})
					return true
				})
				return seq
			}
			env := &pathEnv{g: g}
			live := sequence(env)
			if fresh := sequence(&pathEnv{g: g}); !reflect.DeepEqual(live, fresh) {
				t.Fatalf("path %s bind %v: two fresh environments diverged\nfirst:  %v\nsecond: %v",
					pathString(p), bind, live, fresh)
			}
			if replay := sequence(env); !reflect.DeepEqual(live, replay) {
				t.Fatalf("path %s bind %v: memo replay diverged from the live BFS\nlive:   %v\nreplay: %v",
					pathString(p), bind, live, replay)
			}
		}

		q, err := Parse("SELECT ?s ?o WHERE { ?s " + pathString(p) + " ?o }")
		if err != nil {
			t.Fatalf("Parse(%s): %v", pathString(p), err)
		}
		requireEquivalent(t, q, g)
	})
}

// The eval fuzzer's graphs use the plan vocabulary of evalTestGraph, so the
// hand-written refSeedQueries mean something on them: eight operators, three
// operator-to-operator predicates and three literal-valued ones.
var (
	fuzzNodePreds = []string{predIRI + "hasChildPop", predIRI + "hasInnerInputStream", predIRI + "hasOuterInputStream"}
	fuzzPopTypes  = []string{"NLJOIN", "TBSCAN", "IXSCAN", "FETCH"}
	fuzzJoinTypes = []string{"INNER", "LEFT_OUTER"}
	// One lexical form per value, all multiples of 0.5: no two distinct
	// graph terms compare equal (MIN/MAX and ORDER BY have no ties to break
	// by join order) and SUM is exact in any order.
	fuzzCards = []string{"0.5", "1", "2.5", "19", "100", "4043", "15771", "1.0E+07"}
)

func fuzzPop(i int) string { return fmt.Sprintf("http://optimatch/qep/pop/%d", i%8) }

// fuzzDecodePlanGraph reads 2-byte triples: subject and object index packed
// in byte 0, predicate selector in byte 1. A cardinality cell is the object
// index's entry of cards.
func fuzzDecodePlanGraph(triples []byte, cards []string) *rdf.Graph {
	b := rdf.NewBuilder()
	for i := 0; i+1 < len(triples) && i < 80; i += 2 {
		s, o := int(triples[i]%8), int(triples[i]>>3%8)
		subj := rdf.IRI(fuzzPop(s))
		switch k := int(triples[i+1]) % 6; k {
		case 0, 1, 2:
			b.Add(subj, rdf.IRI(fuzzNodePreds[k]), rdf.IRI(fuzzPop(o)))
		case 3:
			b.Add(subj, rdf.IRI(predIRI+"hasPopType"), rdf.String(fuzzPopTypes[o%len(fuzzPopTypes)]))
		case 4:
			b.Add(subj, rdf.IRI(predIRI+"hasEstimateCardinality"), rdf.TypedLiteral(cards[o%len(cards)], rdf.XSDDouble))
		default:
			b.Add(subj, rdf.IRI(predIRI+"hasJoinType"), rdf.String(fuzzJoinTypes[o%len(fuzzJoinTypes)]))
		}
	}
	return b.Graph()
}

// fuzzPlanTriples is the fuzzDecodePlanGraph input of a graph in the shape
// of evalTestGraph: a join over a fetch/index-scan arm and a table-scan arm.
func fuzzPlanTriples() []byte {
	var plan []byte
	for _, tr := range [][3]byte{
		{2, 0, 3}, {3, 3, 3}, {4, 2, 3}, {5, 1, 3}, // types
		{2, 3, 4}, {5, 5, 4}, {4, 7, 4}, {2, 0, 5}, // cardinalities, join type
		{2, 3, 0}, {2, 5, 0}, {3, 4, 0}, {2, 3, 2}, {2, 5, 1}, {3, 4, 1}, // edges
	} {
		plan = append(plan, tr[0]%8|tr[1]%8<<3, tr[2])
	}
	return plan
}

// fuzzQueryGen decodes a query from fuzz bytes, one choice per byte (zero
// once the input runs out, so every prefix decodes to a complete query).
type fuzzQueryGen struct {
	buf  []byte
	pos  int
	vars []string // variables mentioned so far, in first-mention order
}

func (r *fuzzQueryGen) pick(n int) int {
	if r.pos >= len(r.buf) {
		return 0
	}
	b := r.buf[r.pos]
	r.pos++
	return int(b) % n
}

// use records a variable mention and returns it.
func (r *fuzzQueryGen) use(v string) string {
	for _, seen := range r.vars {
		if seen == v {
			return v
		}
	}
	r.vars = append(r.vars, v)
	return v
}

func (r *fuzzQueryGen) nodeVar() string { return r.use([]string{"?a", "?b", "?c"}[r.pick(3)]) }
func (r *fuzzQueryGen) numVar() string  { return r.use([]string{"?n0", "?n1"}[r.pick(2)]) }

// litVar draws from the type variables and the BIND targets, so a pattern
// can join against a term BIND synthesized.
func (r *fuzzQueryGen) litVar() string {
	return r.use([]string{"?t0", "?t1", "?x0", "?x1"}[r.pick(4)])
}

func (r *fuzzQueryGen) triple() string {
	switch r.pick(9) {
	case 0:
		return r.nodeVar() + " pred:hasPopType " + r.litVar()
	case 1:
		return fmt.Sprintf("%s pred:hasPopType %q", r.nodeVar(), fuzzPopTypes[r.pick(len(fuzzPopTypes))])
	case 2:
		return r.nodeVar() + " pred:hasEstimateCardinality " + r.numVar()
	case 3:
		// Both ends may draw the same variable: the repeated-variable case.
		return r.nodeVar() + " " + pathString(fuzzDecodePath(r.buf, &r.pos, 2, fuzzNodePreds)) + " " + r.nodeVar()
	case 4:
		return r.nodeVar() + " " + r.use("?p") + " " + r.nodeVar()
	case 5:
		return r.nodeVar() + " " + r.use("?p") + " " + r.litVar()
	case 6:
		return fmt.Sprintf("<%s> pred:hasChildPop %s", fuzzPop(r.pick(8)), r.nodeVar())
	case 7:
		return fmt.Sprintf("%s pred:hasChildPop+ <%s>", r.nodeVar(), fuzzPop(r.pick(8)))
	default:
		return r.nodeVar() + " pred:hasInnerInputStream []"
	}
}

func (r *fuzzQueryGen) filter() string {
	consts := []string{"0", "2", "50", "1000"}
	switch r.pick(7) {
	case 0:
		return fmt.Sprintf("FILTER(%s > %s)", r.numVar(), consts[r.pick(4)])
	case 6:
		// Divides by zero where the cardinality is 1.
		return fmt.Sprintf("FILTER(%s / (%s - 1) < %s)", r.numVar(), r.numVar(), consts[r.pick(4)])
	case 1:
		return fmt.Sprintf("FILTER(%s * 2 <= %s)", r.numVar(), consts[r.pick(4)])
	case 2:
		return fmt.Sprintf("FILTER(%s %s %s)", r.numVar(), []string{"!=", "<", "="}[r.pick(3)], r.numVar())
	case 3:
		return fmt.Sprintf("FILTER(%s != %s)", r.nodeVar(), r.nodeVar())
	case 4:
		return fmt.Sprintf("FILTER(%s = %q)", r.litVar(), fuzzPopTypes[r.pick(len(fuzzPopTypes))])
	default:
		return fmt.Sprintf("FILTER(%sBOUND(%s))", []string{"", "!"}[r.pick(2)], r.litVar())
	}
}

// bind produces terms the graph does not contain: x.5 sums the cardinality
// table has no entry for, lower-cased type names, stringified IRIs.
func (r *fuzzQueryGen) bind() string {
	var expr string
	switch r.pick(3) {
	case 0:
		expr = r.numVar() + " + 0.25"
	case 1:
		expr = "LCASE(" + r.use([]string{"?t0", "?t1"}[r.pick(2)]) + ")"
	default:
		expr = "STR(" + r.nodeVar() + ")"
	}
	return fmt.Sprintf("BIND(%s AS %s)", expr, r.use([]string{"?x0", "?x1"}[r.pick(2)]))
}

func (r *fuzzQueryGen) group(depth int) string {
	s := "{ "
	for i, n := 0, 1+r.pick(4); i < n; i++ {
		kind := r.pick(10)
		if depth == 0 && (kind == 6 || kind == 7 || kind == 9) {
			kind = 0
		}
		switch kind {
		case 5:
			s += r.filter() + " "
		case 6:
			s += "OPTIONAL " + r.group(depth-1) + " "
		case 7:
			s += r.group(depth-1) + " UNION " + r.group(depth-1) + " "
		case 8:
			s += r.bind() + " "
		case 9:
			s += "FILTER " + []string{"", "NOT "}[r.pick(2)] + "EXISTS " + r.group(depth-1) + " "
		default:
			s += r.triple() + " . "
		}
	}
	return s + "}"
}

// query decodes a whole SELECT. Aggregated shapes only read grouped
// variables outside aggregates and SUM/AVG/MIN/MAX only range over the ?n
// variables (graph terms, see fuzzCards), so every result is a function of the
// solution multiset, not of the join order that produced it. ORDER BY sorts
// on an alias or an expression first and then on the projected variables;
// LIMIT/OFFSET ride on an ORDER BY, and requireEquivalent checks both only
// when the order turns out total.
func (r *fuzzQueryGen) query() string {
	where := r.group(2)
	shape := r.pick(5)
	switch shape {
	case 0:
		return "SELECT * WHERE " + where
	case 1, 2:
		key := r.vars[r.pick(len(r.vars))]
		sel := key + " (COUNT(" + r.vars[r.pick(len(r.vars))] + ") AS ?cnt)"
		if r.pick(2) == 1 {
			sel += " (SUM(?n0) AS ?sum) (MAX(?n1) AS ?mx)"
		}
		if r.pick(2) == 1 {
			sel += " (COUNT(DISTINCT " + r.vars[r.pick(len(r.vars))] + ") AS ?dc) (COUNT(*) AS ?all)"
		}
		q := "SELECT " + sel + " WHERE " + where + " GROUP BY " + key
		// The second HAVING reads an aggregate nothing projects.
		q += []string{"", " HAVING(COUNT(*) > 1)", " HAVING(MIN(?n0) < 50)"}[r.pick(3)]
		switch r.pick(4) {
		case 1:
			q += " ORDER BY " + []string{key, "DESC(" + key + ")"}[r.pick(2)] + r.window()
		case 2:
			q += " ORDER BY DESC(?cnt) " + key + r.window()
		case 3:
			q += " ORDER BY DESC(COUNT(*) * 2) ?cnt " + key + r.window()
		}
		return q
	case 3:
		return "SELECT (COUNT(*) AS ?all) (AVG(?n0) AS ?avg) (MIN(?n1) AS ?mn) WHERE " + where
	}
	var cols []string
	for _, v := range r.vars {
		if len(cols) == 0 || r.pick(2) == 1 {
			cols = append(cols, v)
		}
	}
	sel := strings.Join(cols, " ")
	if r.pick(4) == 0 {
		sel += " (?n0 * 2 AS ?twice)" // a computed column, under DISTINCT half the time
	}
	sel = []string{"", "DISTINCT "}[r.pick(2)] + sel
	order := ""
	if first := r.pick(4); first > 0 {
		// ?twice is an alias or, without the computed column, never bound.
		order = " ORDER BY " + []string{"", "DESC(?twice) ", "DESC(?n0 + 1) "}[first-1] + strings.Join(cols, " ") + r.window()
	}
	// Two shapes drawn last, so that inputs older than them decode as they
	// did. An unprojected cross product closing the WHERE clause — under
	// DISTINCT the witness-only tail — that turns witnesses down at its step
	// (an eager filter) or at the leaf (BOUND waits for the end of the group);
	// and 64 variables mentioned ahead of all others, which moves every slot
	// the query uses past the ones a bitmask tracks.
	switch r.pick(4) {
	case 1:
		where = where[:len(where)-1] + "?w0 pred:hasEstimateCardinality ?m0 . FILTER(?m0 > 50) }"
	case 2:
		where = where[:len(where)-1] + "?w0 pred:hasEstimateCardinality ?m0 . FILTER(BOUND(?m0) && ?m0 * 2 < ?n0) }"
	}
	if r.pick(8) == 1 {
		where = "{ " + wideOptional + where[1:]
	}
	return "SELECT " + sel + " WHERE " + where + order
}

func (r *fuzzQueryGen) window() string {
	s := ""
	if r.pick(2) == 1 {
		s += fmt.Sprintf(" LIMIT %d", r.pick(6))
	}
	if r.pick(3) == 1 {
		s += fmt.Sprintf(" OFFSET %d", r.pick(4))
	}
	return s
}

// FuzzEvalEquivalence is the differential fuzz test for the evaluator as a
// whole: over a random small plan-like graph, ExecOpts (with and without join
// reordering) must agree with the bottom-up algebra oracle (execReference) on
// every query Parse accepts — the hand-written refSeedQueries and queries
// decoded from the input over the full shape the parser accepts (BGPs
// with shared, repeated and predicate variables, numeric and variable-to-
// variable FILTERs, OPTIONAL, UNION, BIND of terms absent from the graph,
// FILTER [NOT] EXISTS, property paths, GROUP BY/aggregates/HAVING, computed
// columns, DISTINCT — with and without an unprojected tail —, ORDER BY on
// variables, aliases and expressions, LIMIT/OFFSET under a total order, and
// all of it with every variable's slot past the 64 a bitmask tracks). A
// generated query Parse refuses for its scope (compile.go) is skipped; so
// about one in six is (TestFuzzQueryGenRefusals). The compiler's verdict on
// every generated query is held to scopeRefuses, the rules by copying.
//
// Input layout: byte 0 selects a refSeedQueries entry or (past the table) the
// generator; the first two thirds of the rest decode the graph, the last third
// the generated query.
func FuzzEvalEquivalence(f *testing.F) {
	// The plan graph, long enough that the generator's third has room.
	plan := fuzzPlanTriples()
	for i := range refSeedQueries {
		f.Add(append([]byte{byte(i)}, plan...))
	}
	for _, tail := range fuzzQueryTails {
		f.Add(append(append([]byte{255}, plan...), tail...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		if len(data) > 160 {
			data = data[:160]
		}
		mode, rest := int(data[0]), data[1:]
		split := len(rest) - len(rest)/3
		g := fuzzDecodePlanGraph(rest[:split], fuzzCards)
		var text string
		if mode < len(refSeedQueries) {
			text = refSeedQueries[mode].text
		} else {
			gen := fuzzQueryGen{buf: rest[split:]}
			text = gen.query()
		}
		if q, err := parseUnchecked(predPrefix + text); err == nil && (scopeError(q) != nil) != scopeRefuses(q.Where) {
			t.Fatalf("the compiler and scopeRefuses disagree on %s", text)
		}
		q, err := Parse(predPrefix + text)
		if err != nil {
			if mode < len(refSeedQueries) || !scopeRefusal(err) {
				t.Fatalf("Parse(%s): %v", text, err)
			}
			return // a shape top-down evaluation cannot answer
		}
		t.Log(text)
		requireEquivalent(t, q, g)
		printed := q.String()
		back, err := Parse(printed)
		if err != nil {
			t.Fatalf("Parse(String()): %v\n%s", err, printed)
		}
		if got, want, _ := execBoth(back, q, g); got != want {
			t.Fatalf("the printed query answers otherwise:\n%s\n got: %s\nwant: %s", printed, got, want)
		}
	})
}

// fuzzQueryTails seed the query generator: appended to a mode byte past
// refSeedQueries and fuzzPlanTriples, each decodes to a generated query.
var fuzzQueryTails = [][]byte{
	// Generated shapes: the all-zero query, then a few byte ramps that reach
	// OPTIONAL/UNION/BIND/EXISTS, aggregates and ordered windows.
	{},
	{1, 6, 2, 0, 1, 5, 0, 1, 9, 1, 1, 2, 0, 4, 1, 1, 1, 1, 0, 1, 1, 2},
	{3, 7, 0, 0, 0, 1, 1, 3, 8, 0, 1, 0, 3, 5, 11, 1, 0, 2, 1, 1, 1, 1, 1, 1},
	{2, 2, 0, 1, 0, 0, 3, 4, 1, 2, 4, 0, 1, 0, 1, 1, 1, 3, 1, 1},
	// The tail over a one- or two-pattern WHERE: grouped with HAVING on an
	// unprojected aggregate and ORDER BY on an alias, then on an expression
	// over an aggregate; DISTINCT over a computed column ordered by its
	// alias; ORDER BY DESC(?n0 + 1). All four windowed.
	{0, 0, 2, 0, 0, 1, 0, 1, 1, 0, 2, 2, 1, 3, 1, 1},
	{0, 0, 2, 0, 0, 2, 0, 1, 0, 1, 1, 1, 3, 1, 2, 0},
	{1, 0, 2, 0, 0, 0, 0, 0, 0, 4, 1, 0, 0, 1, 2, 1, 2, 0},
	{1, 0, 2, 0, 0, 0, 0, 0, 0, 4, 1, 1, 1, 0, 3, 1, 4, 1, 2},
	// DISTINCT ?a over { ?a type ?t0 . ?a card ?n0 } closed by the
	// unprojected cross product: filtered at the step, at the leaf, and at
	// the leaf with every slot past 63.
	{1, 0, 0, 0, 0, 0, 2, 0, 0, 4, 0, 0, 1, 1, 1, 0, 0, 1, 0},
	{1, 0, 0, 0, 0, 0, 2, 0, 0, 4, 0, 0, 1, 1, 1, 0, 0, 2, 0},
	{1, 0, 0, 0, 0, 0, 2, 0, 0, 4, 0, 0, 1, 1, 1, 0, 0, 2, 1},
	// Two shapes Parse refuses (the scope check), whose rows the evaluator would
	// get wrong. An OPTIONAL nested in an OPTIONAL mentions ?b, which only the
	// root binds (R2):
	{10, 9, 8, 1, 10, 9, 9, 8, 4, 9, 2, 11, 7, 11, 6, 8, 6, 10, 5, 8, 1, 7, 1, 4, 7, 6, 9},
	// a FILTER in a UNION branch reads ?n0, which only the root and one UNION
	// of the branch bind (R3: a UNION binds what every branch binds).
	{3, 1, 1, 11, 9, 0, 7, 5, 11, 4, 2, 8, 0, 7, 9, 5, 7, 2, 9, 7, 1, 7, 11, 9, 8, 10},
}

// scopeRefusal reports whether err is the scope check's.
func scopeRefusal(err error) bool {
	return strings.Contains(err.Error(), "from outside its group") || strings.Contains(err.Error(), "already in scope")
}

// TestFuzzQueryGenRefusals reports the share of generated queries Parse
// refuses for their scope, over the generator's seed tails and 2 000 random
// inputs of the length FuzzEvalEquivalence hands it: past one half, the
// fuzzers would spend most of their time on nothing.
func TestFuzzQueryGenRefusals(t *testing.T) {
	inputs, rng, refused := slices.Clone(fuzzQueryTails), rand.New(rand.NewSource(1)), 0
	for len(inputs) < 2000+len(fuzzQueryTails) {
		in := make([]byte, 53)
		rng.Read(in)
		inputs = append(inputs, in)
	}
	for _, in := range inputs {
		text := (&fuzzQueryGen{buf: in}).query()
		if _, err := Parse(predPrefix + text); err != nil {
			if !scopeRefusal(err) {
				t.Fatalf("Parse(%s): %v", text, err)
			}
			refused++
		}
	}
	t.Logf("%d of %d generated queries refused", refused, len(inputs))
	if 2*refused > len(inputs) {
		t.Errorf("%d of %d generated queries refused: more than half", refused, len(inputs))
	}
}
