package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"optimatch/internal/fixtures"
	"optimatch/internal/pattern"
	"optimatch/internal/qep"
	"optimatch/internal/transform"
)

// directNode is what a pattern pop binds to in the plan model: an operator or
// a base object.
type directNode struct {
	op  *qep.Operator
	obj *qep.BaseObject
}

// String names the node as a match row does: "op:N" or "obj:NAME".
func (n directNode) String() string {
	if n.op != nil {
		return fmt.Sprintf("op:%d", n.op.ID)
	}
	return "obj:" + n.obj.Name
}

// directTypeOK reports whether n is of the pop type typ, as docs/PATTERNS.md
// defines the types ("Pop types").
func directTypeOK(typ string, n directNode) bool {
	switch typ {
	case "ANY":
		return true
	case "BASE OB":
		return n.obj != nil
	}
	if n.op == nil {
		return false
	}
	switch typ {
	case "JOIN":
		return n.op.Type == "NLJOIN" || n.op.Type == "HSJOIN" || n.op.Type == "MSJOIN" || n.op.Type == "ZZJOIN"
	case "SCAN":
		return n.op.Type == "TBSCAN" || n.op.Type == "IXSCAN"
	case "AGGREGATION":
		return n.op.Type == "GRPBY"
	}
	return n.op.Type == typ
}

// directEdge is one immediate-child relationship of a pattern: the child pop
// is an input of the parent pop through a stream the relationship's property
// names (hasOuterInputStream, hasInnerInputStream, or hasInputStream for any).
type directEdge struct {
	parent, child int // indexes into the pattern's pops
	stream        string
}

// directChildOK reports whether child is an immediate input of parent through
// a stream the relationship allows ("Relationships": outer, inner, or any
// stream kind).
func directChildOK(e directEdge, parent, child directNode) bool {
	if parent.op == nil {
		return false
	}
	for _, in := range parent.op.Inputs {
		if in.Op != child.op || in.Obj != child.obj {
			continue
		}
		switch {
		case e.stream == pattern.RelInput,
			e.stream == pattern.RelOuterInput && in.Kind == qep.OuterStream,
			e.stream == pattern.RelInnerInput && in.Kind == qep.InnerStream:
			return true
		}
	}
	return false
}

// directHas reports whether the plan model gives n the property prop, as
// docs/PATTERNS.md defines the properties: an operator's predicate texts and
// its input streams of each kind, a base object's columns. It fails the test
// on any other property.
func directHas(t *testing.T, n directNode, prop string) bool {
	t.Helper()
	switch prop {
	case "hasPredicateText":
		return n.op != nil && len(n.op.Predicates) > 0
	case "hasColumn":
		return n.obj != nil && len(n.obj.Columns) > 0
	case pattern.RelInput, pattern.RelOuterInput, pattern.RelInnerInput:
		if n.op == nil {
			return false
		}
		return slices.ContainsFunc(n.op.Inputs, func(in qep.Input) bool {
			return prop == pattern.RelInput ||
				prop == pattern.RelOuterInput && in.Kind == qep.OuterStream ||
				prop == pattern.RelInnerInput && in.Kind == qep.InnerStream
		})
	}
	t.Fatalf("property %s is not matched directly", prop)
	return false
}

// directMatch matches p against plan by backtracking over the plan model,
// with no RDF and no SPARQL: every operator and base object is a candidate
// for every pop, pops take candidates in ID order, and a partial row is
// dropped as soon as a pop's type, one of its absent properties or an
// immediate-child relationship between two bound pops fails. It returns the
// distinct rows, each spelled as directRowKey spells them. It covers the pop
// types, the absent properties directHas knows and the immediate outer, inner
// and any-child relationships; it fails the test on a pattern that uses
// anything else.
func directMatch(t *testing.T, p *pattern.Pattern, plan *qep.Plan) map[string]bool {
	t.Helper()
	pops := p.SortedPops()
	index := make(map[int]int, len(pops))
	aliases := make([]string, len(pops))
	for i, pop := range pops {
		index[pop.ID], aliases[i] = i, p.HandlerAlias(pop)
	}
	var edges []directEdge
	absent := make([][]string, len(pops))
	for i, pop := range pops {
		for _, prop := range pop.Properties {
			if prop.ID == pattern.RelOutput && prop.Sign == "" {
				continue // the builder's reverse declaration of a relationship (Figure 5)
			}
			if prop.Sign == pattern.SignAbsent {
				absent[i] = append(absent[i], prop.ID)
				continue
			}
			if prop.Sign != pattern.SignImmediateChild {
				t.Fatalf("pattern %s: pop %d's %s %q is neither absent nor an immediate child relationship", p.Name, pop.ID, prop.ID, prop.Sign)
			}
			target, err := prop.TargetPop()
			if err != nil {
				t.Fatal(err)
			}
			edges = append(edges, directEdge{parent: i, child: index[target], stream: prop.ID})
		}
	}
	if len(p.PlanDetails) > 0 {
		t.Fatalf("pattern %s: plan details are not matched directly", p.Name)
	}

	var nodes []directNode
	for _, op := range plan.Ops() {
		nodes = append(nodes, directNode{op: op})
	}
	names := make([]string, 0, len(plan.Objects))
	for name := range plan.Objects {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		nodes = append(nodes, directNode{obj: plan.Objects[name]})
	}

	rows := map[string]bool{}
	bound := make([]directNode, len(pops))
	var bind func(i int)
	bind = func(i int) {
		if i == len(pops) {
			rows[directRowKey(aliases, bound)] = true
			return
		}
		for _, n := range nodes {
			if !directTypeOK(pops[i].Type, n) || slices.ContainsFunc(absent[i], func(prop string) bool { return directHas(t, n, prop) }) {
				continue
			}
			bound[i] = n
			ok := true
			for _, e := range edges {
				if max(e.parent, e.child) == i && !directChildOK(e, bound[e.parent], bound[e.child]) {
					ok = false
					break
				}
			}
			if ok {
				bind(i + 1)
			}
		}
	}
	bind(0)
	return rows
}

// directRowKey spells a row as its alias=node pairs in alias order.
func directRowKey(aliases []string, nodes []directNode) string {
	pairs := make([]string, len(aliases))
	for i, alias := range aliases {
		pairs[i] = alias + "=" + nodes[i].String()
	}
	slices.Sort(pairs)
	return strings.Join(pairs, " ")
}

// matchRowKey spells a FindPattern row as directRowKey does, reading each
// column back through Match.Operator and Match.Object (Algorithm 3).
func matchRowKey(m transform.Match) string {
	names := m.Cols.Names()
	nodes := make([]directNode, len(names))
	for c := range names {
		nodes[c] = directNode{op: m.Operator(c), obj: m.Object(c)}
		if nodes[c].op == nil && nodes[c].obj == nil {
			nodes[c].obj = &qep.BaseObject{Name: "(not de-transformed) " + m.Term(c).String()}
		}
	}
	return directRowKey(names, nodes)
}

// directPatterns are the patterns of the direct matcher's slice: every pop
// type alone; every parent type over every child type through each of the
// three immediate relationships; joins with an outer and an inner input of
// every pair of types, the one pop on both sides among them; chains of three;
// two consumers of one child; and pops of several types without each property
// directHas knows, alone, as a parent and as a child.
func directPatterns() []*pattern.Pattern {
	types := []string{"ANY", "JOIN", "SCAN", "AGGREGATION", "BASE OB", "NLJOIN", "HSJOIN", "TBSCAN", "IXSCAN", "FETCH", "TEMP", "SORT", "RETURN", "GRPBY"}
	parents := []string{"ANY", "JOIN", "SCAN", "NLJOIN", "HSJOIN", "FETCH", "TEMP", "SORT", "RETURN", "BASE OB"}
	children := []string{"ANY", "JOIN", "SCAN", "BASE OB", "TEMP", "FETCH", "TBSCAN", "IXSCAN", "SORT", "NLJOIN"}
	sides := []string{"ANY", "SCAN", "TEMP", "FETCH", "JOIN", "TBSCAN"}
	type relate func(parent, child *pattern.PopBuilder) *pattern.PopBuilder
	rels := map[string]relate{
		"outer": (*pattern.PopBuilder).OuterChild,
		"inner": (*pattern.PopBuilder).InnerChild,
		"child": (*pattern.PopBuilder).Child,
	}
	var out []*pattern.Pattern
	add := func(name string, build func(b *pattern.Builder)) {
		b := pattern.NewBuilder(name, "")
		build(b)
		out = append(out, b.MustBuild())
	}
	for _, typ := range types {
		add("one "+typ, func(b *pattern.Builder) { b.Pop(typ) })
	}
	for _, rel := range []string{"outer", "inner", "child"} {
		for _, pt := range parents {
			for _, ct := range children {
				add(pt+" "+rel+" "+ct, func(b *pattern.Builder) { rels[rel](b.Pop(pt), b.Pop(ct)) })
			}
		}
	}
	for _, jt := range []string{"ANY", "JOIN", "NLJOIN", "HSJOIN"} {
		for _, ot := range sides {
			for _, it := range sides {
				add(jt+" of "+ot+" and "+it, func(b *pattern.Builder) {
					j := b.Pop(jt)
					j.OuterChild(b.Pop(ot)).InnerChild(b.Pop(it))
				})
			}
			add(jt+" of "+ot+" on both sides", func(b *pattern.Builder) {
				j := b.Pop(jt)
				x := b.Pop(ot)
				j.OuterChild(x).InnerChild(x)
			})
			add(jt+" of "+ot+" as outer and as any child", func(b *pattern.Builder) {
				j := b.Pop(jt)
				x := b.Pop(ot)
				j.OuterChild(x).Child(x)
			})
		}
	}
	for _, top := range []string{"ANY", "JOIN", "RETURN"} {
		for _, mid := range []string{"ANY", "FETCH", "TEMP", "SCAN", "JOIN"} {
			for _, low := range []string{"ANY", "BASE OB", "SCAN", "IXSCAN", "TEMP"} {
				add(top+" child "+mid+" child "+low, func(b *pattern.Builder) {
					m := b.Pop(mid)
					b.Pop(top).Child(m)
					m.Child(b.Pop(low))
				})
			}
		}
	}
	for _, child := range []string{"TEMP", "ANY", "BASE OB"} {
		for _, consumer := range []string{"ANY", "JOIN", "NLJOIN"} {
			add("two "+consumer+" over one "+child, func(b *pattern.Builder) {
				c := b.Pop(child)
				b.Pop(consumer).Child(c)
				b.Pop(consumer).Child(c)
			})
		}
	}
	for _, typ := range []string{"ANY", "JOIN", "SCAN", "BASE OB", "NLJOIN", "TBSCAN", "FETCH", "RETURN"} {
		for _, prop := range []string{"hasPredicateText", "hasColumn", pattern.RelInput, pattern.RelOuterInput, pattern.RelInnerInput} {
			add(typ+" without "+prop, func(b *pattern.Builder) { b.Pop(typ).WhereAbsent(prop) })
			add(typ+" without "+prop+" over ANY", func(b *pattern.Builder) { b.Pop(typ).WhereAbsent(prop).Child(b.Pop("ANY")) })
			add("ANY over "+typ+" without "+prop, func(b *pattern.Builder) { b.Pop("ANY").Child(b.Pop(typ).WhereAbsent(prop)) })
		}
	}
	return out
}

// TestDirectMatcherAgrees holds Algorithms 2 and 3 — Engine.FindPattern, its
// rows read back through Match.Operator and Match.Object — to directMatch on
// the plan model, row set for row set, for every pattern of directPatterns
// over every fixture.
func TestDirectMatcherAgrees(t *testing.T) {
	plans := append(fixtures.All(), fixtures.SharedTemp(), fixtures.DoubleFedJoin())
	e := New()
	if err := e.LoadPlans(plans); err != nil {
		t.Fatal(err)
	}
	rows, matched := 0, 0
	for _, p := range directPatterns() {
		matches, err := e.FindPattern(context.Background(), p)
		if err != nil {
			t.Fatalf("pattern %s: %v", p.Name, err)
		}
		got := map[string]map[string]bool{}
		for _, m := range matches {
			if got[m.Plan().ID] == nil {
				got[m.Plan().ID] = map[string]bool{}
			}
			got[m.Plan().ID][matchRowKey(m)] = true
		}
		for _, plan := range plans {
			want := directMatch(t, p, plan)
			rows += len(want)
			if len(want) > 0 {
				matched++
			}
			for row := range want {
				if !got[plan.ID][row] {
					t.Errorf("pattern %q, plan %s: FindPattern misses %s", p.Name, plan.ID, row)
				}
			}
			for row := range got[plan.ID] {
				if !want[row] {
					t.Errorf("pattern %q, plan %s: FindPattern finds %s, the direct matcher does not", p.Name, plan.ID, row)
				}
			}
		}
	}
	t.Logf("%d patterns over %d plans: %d (pattern, plan) pairs match, %d rows", len(directPatterns()), len(plans), matched, rows)
	if matched == 0 {
		t.Fatal("no pattern matched any plan")
	}
}

// TestWhereAbsentAnchored pins the rows of a pop whose only constraint is an
// absent property. FILTER NOT EXISTS binds nothing, so the pop must still be
// anchored by its type: on Figure 1, the operators without predicate text and
// the base objects, which ANY covers. A query without the anchor has no
// triple to bind the pop and returns no row.
func TestWhereAbsentAnchored(t *testing.T) {
	plan := fixtures.Figure1()
	e := New()
	if err := e.LoadPlans([]*qep.Plan{plan}); err != nil {
		t.Fatal(err)
	}
	b := pattern.NewBuilder("no predicate text", "")
	b.Pop("ANY").WhereAbsent("hasPredicateText")
	p := b.MustBuild()
	matches, err := e.FindPattern(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, m := range matches {
		got = append(got, matchRowKey(m))
	}
	slices.Sort(got)
	want := []string{"TOP=obj:CUST_DIM", "TOP=obj:IDX1", "TOP=obj:SALES_FACT", "TOP=op:1", "TOP=op:4", "TOP=op:5"}
	if !slices.Equal(got, want) {
		t.Errorf("FindPattern rows %q, want %q", got, want)
	}
	var direct []string
	for row := range directMatch(t, p, plan) {
		direct = append(direct, row)
	}
	slices.Sort(direct)
	if !slices.Equal(direct, want) {
		t.Errorf("the direct matcher's rows %q, want %q", direct, want)
	}
}
