package sparql

import (
	"slices"
	"strconv"
	"strings"

	"optimatch/internal/rdf"
)

// This file compiles a query into its graph-independent program. Everything
// about an evaluation that depends only on the query text is decided here,
// once per parsed query (Parse computes it with the static analysis, and
// whoever holds the parsed query — a compiled pattern, a knowledge-base entry
// — shares it): the variable→slot table, triple
// patterns carrying slot and constant numbers, each group's filters with the
// slots they read as a bitmask and a compiled row predicate, the variables
// every element binds as a bitmask, and the result tail — which slots are
// grouped on, aggregated into, computed, sorted by and projected. What is left
// for the evaluator to do per (query, graph) pair is to resolve the constants
// to the graph's dense IDs, choose the join order from the graph's statistics,
// and run (see specialize.go).

// program is the compiled form of one query. It is immutable after compile
// and shared by every concurrent evaluation of the query.
type program struct {
	// vars maps slot -> variable name. The query's own variables come first,
	// in first-appearance order; the tail's slots (aggregate values, computed
	// columns) follow under names no query can spell ("!tail<slot>").
	vars     []string
	varIndex map[string]int // variable name -> slot
	width    int            // row width: len(vars), at least 1 so a row count survives a variable-free query

	consts    []rdf.Term     // const number -> term (Analysis.Consts)
	required  []int          // const numbers of Analysis.Required
	predConst map[string]int // IRI -> const number, for predicates inside property paths

	root  *groupProg
	nPats int // triple patterns in the whole query: the size of the step arena
	nBlks int // BGP blocks in the whole query

	grouped bool // checkAggregation's verdict; Parse has refused its errors

	// The result tail, laid out by compiler.tail: the rows of the WHERE clause
	// are grouped on groupSlots with every aggregate's value stored in its slot
	// and having deciding which groups stay (grouped queries only), extended by
	// the computed columns, sorted on orderSlots and projected onto projSlots.
	groupSlots []int
	aggs       []aggProg
	having     Expression // reads the aggregate slots; nil when absent
	computed   []colProg
	projVars   []string
	projSlots  []int
	orderSlots []int
	// earlyDistinct: the query is DISTINCT, nothing is grouped or computed and
	// every ORDER BY key is projected (the shape of every pattern- and
	// knowledge-base-compiled query), so the WHERE clause emits projected,
	// already deduplicated rows and the sort runs over the survivors; orderCols
	// and projCols then index the projection.
	earlyDistinct bool
	orderCols     []int
	projCols      []int // 0..len(projSlots)-1
	// projected marks the projected slots, by slot number (a 64-bit mask loses
	// the slots past 63): where the last of them is bound is where an
	// earlyDistinct join stops needing more than one witness.
	projected []bool
}

// aggProg is one distinct aggregate of the query and the slot a group's value
// of it is stored in.
type aggProg struct {
	agg  AggExpr
	slot int
}

// colProg is a computed column: a SELECT expression or ORDER BY key that is
// not a plain variable, evaluated once per row into a slot of its own.
type colProg struct {
	slot int
	expr Expression
}

// groupProg is a compiled group pattern: its elements in evaluation order
// (consecutive triple patterns gathered into one reorderable block, FILTERs
// and FILTER [NOT] EXISTS lifted out — they are group-scoped) and its filters.
type groupProg struct {
	elems   []elemProg
	filters []filterProg
	binds   uint64 // slots bound in every solution the group produces
}

type elemKind uint8

const (
	elemBlock elemKind = iota
	elemOptional
	elemUnion
	elemGroup
	elemBind
)

// elemProg is one compiled pattern element.
type elemProg struct {
	kind   elemKind
	block  *blockProg   // elemBlock
	groups []*groupProg // OPTIONAL and nested group: one; UNION: one per branch
	slot   int          // BIND target
	expr   Expression   // BIND expression
	// binds holds the slots bound in every row once the element has run: a
	// block's variables, what a nested group binds, what every branch of a
	// UNION binds; nothing for OPTIONAL, nor for a BIND, whose expression may
	// fail and leave its target to a later pattern. checkScope's "every" sets
	// (scope.go) are the same rule over names: the two change together.
	binds uint64
}

// blockProg is a maximal run of triple patterns. id indexes the evaluation's
// plan table; off is where the block's steps live in its step arena.
type blockProg struct {
	id, off int
	pats    []patProg
}

type patKind uint8

const (
	patSimple  patKind = iota // constant predicate
	patPredVar                // variable predicate
	patPath                   // property path
)

// patProg is a triple pattern with its variables as slots and its constants
// as const numbers; -1 marks the other case in each position. pSlot is set
// for patPredVar only, pConst for patSimple only.
type patProg struct {
	kind                   patKind
	sSlot, oSlot, pSlot    int
	sConst, oConst, pConst int
	path                   Path   // patPath
	mask                   uint64 // the bitmask of the pattern's variables
}

// rowPred decides one row. It receives the evaluation because numbers are read
// from the graph's numeric column, the generic fallback reads the row through
// the evaluation's binding view, and an EXISTS runs its group on it.
type rowPred func(ec *evalCtx, row []rdf.ID) bool

// filterProg is a compiled group-level FILTER or FILTER [NOT] EXISTS.
type filterProg struct {
	vars uint64 // slots the filter needs bound: the ones its expression reads
	// eager filters may run as soon as vars are statically bound. Filters
	// that inspect boundness wait for the end of the group, and so do the
	// ones a 64-bit mask cannot track (see slotBit) — which is always sound,
	// the end of the group being where SPARQL scopes every filter.
	eager bool
	keep  rowPred

	// cmpSlot, cmpOp and cmpConst describe a filter of the shape ?v op number
	// (cmpSlot is -1 for every other): the join-order estimate of a pattern
	// whose free object is ?v holds the predicate's numeric range against it.
	cmpSlot  int
	cmpOp    CmpOp
	cmpConst float64

	// What the filter was compiled from, for Explain: the expression, or the
	// group of an EXISTS (expr is nil then).
	expr   Expression
	exists *groupProg
	not    bool
}

// slotBit is the bitmask bit of a slot. Slots past 63 have none: such a
// variable never counts as statically bound, which only costs it the eager
// filters and the bound-variable division of the join-order estimate.
func slotBit(slot int) uint64 {
	if slot < 64 {
		return 1 << uint(slot)
	}
	return 0
}

type compiler struct {
	p       *program
	constNo map[rdf.Term]int
	owner   map[string]int // exists' scratch
}

// compile builds q's program over the constants and requirements the static
// analysis collected.
func compile(q *Query, consts, required []rdf.Term) *program {
	p := &program{varIndex: make(map[string]int), consts: consts, predConst: make(map[string]int)}
	c := &compiler{p: p, constNo: make(map[rdf.Term]int, len(consts)), owner: make(map[string]int)}
	for i, t := range consts {
		c.constNo[t] = i
		if t.IsIRI() {
			p.predConst[t.Value] = i
		}
	}
	for _, t := range required {
		p.required = append(p.required, c.constNo[t])
	}

	// Slot order is first appearance in WHERE, then in the solution
	// modifiers; SELECT * projects in this order.
	for _, v := range q.Where.Vars() {
		c.slot(v)
	}
	nWhere := len(p.vars)
	for _, item := range q.Select {
		c.slots(exprVars(item.Expr))
	}
	for _, key := range q.OrderBy {
		c.slots(exprVars(key.Expr))
	}
	c.slots(q.GroupBy)
	if q.Having != nil {
		c.slots(exprVars(q.Having))
	}

	p.root = c.group(q.Where)
	p.grouped, _ = q.checkAggregation()
	c.tail(q, nWhere)
	// Fixed last: group and tail reach their slots through c.slot, so a
	// variable the walks above missed still gets a cell in every row.
	p.width = max(len(p.vars), 1)
	p.projected = make([]bool, p.width)
	for _, slot := range p.projSlots {
		p.projected[slot] = true
	}
	return p
}

func (c *compiler) slot(v string) int {
	if i, ok := c.p.varIndex[v]; ok {
		return i
	}
	i := len(c.p.vars)
	c.p.varIndex[v] = i
	c.p.vars = append(c.p.vars, v)
	return i
}

func (c *compiler) slots(vars []string) {
	for _, v := range vars {
		c.slot(v)
	}
}

// tailSlot opens a slot for a value the tail computes.
func (c *compiler) tailSlot() int {
	return c.slot("!tail" + strconv.Itoa(len(c.p.vars)))
}

// tail lays out the result tail. Each distinct aggregate gets a slot, and
// HAVING, the SELECT expressions and the ORDER BY keys are rewritten once to
// read it like a variable; what is then not a plain variable becomes a
// computed column with a slot of its own, so that the sort, DISTINCT and the
// projection only ever see slots. An ORDER BY key may name a SELECT alias: it
// then reads the slot of the first column of that name, unless the WHERE
// clause mentions the name (slots below nWhere) — the variable wins.
func (c *compiler) tail(q *Query, nWhere int) {
	p := c.p
	for _, v := range q.GroupBy {
		p.groupSlots = append(p.groupSlots, c.slot(v))
	}
	aggSlot := make(map[string]int) // aggKey -> slot
	alias := make(map[string]int)   // ORDER BY only: SELECT alias -> slot
	rewrite := func(e Expression) Expression {
		return substitute(e, func(sub Expression) Expression {
			switch sub := sub.(type) {
			case AggExpr:
				key := aggKey(sub)
				if _, ok := aggSlot[key]; !ok {
					aggSlot[key] = c.tailSlot()
					p.aggs = append(p.aggs, aggProg{agg: sub, slot: aggSlot[key]})
				}
				return VarExpr{Name: p.vars[aggSlot[key]]}
			case VarExpr:
				if slot, ok := alias[sub.Name]; ok && p.varIndex[sub.Name] >= nWhere {
					return VarExpr{Name: p.vars[slot]}
				}
			case CallExpr:
				if sub.Name == "BOUND" && hasAggregate(sub.Args[0]) {
					return sub // BOUND takes a variable: this stays the type error it is
				}
			}
			return nil
		})
	}
	column := func(e Expression) int {
		e = rewrite(e)
		if ve, ok := e.(VarExpr); ok {
			return c.slot(ve.Name)
		}
		slot := c.tailSlot()
		p.computed = append(p.computed, colProg{slot: slot, expr: e})
		return slot
	}

	if q.Having != nil {
		p.having = rewrite(q.Having)
	}
	if q.Star {
		for i, v := range p.vars {
			if !strings.HasPrefix(v, "!") {
				p.projVars = append(p.projVars, v)
				p.projSlots = append(p.projSlots, i)
			}
		}
	}
	for _, item := range q.Select {
		p.projVars = append(p.projVars, item.Alias)
		p.projSlots = append(p.projSlots, column(item.Expr))
	}
	for i, item := range q.Select {
		if _, dup := alias[item.Alias]; !dup {
			alias[item.Alias] = p.projSlots[i]
		}
	}
	for i := range p.projSlots {
		p.projCols = append(p.projCols, i)
	}
	for _, key := range q.OrderBy {
		slot := column(key.Expr)
		p.orderSlots = append(p.orderSlots, slot)
		p.orderCols = append(p.orderCols, slices.Index(p.projSlots, slot))
	}
	// A projection of no columns has no flat-table form to count rows in.
	p.earlyDistinct = q.Distinct && !p.grouped && len(p.computed) == 0 && len(p.projSlots) > 0 &&
		!slices.Contains(p.orderCols, -1)
}

func (c *compiler) group(g *GroupPattern) *groupProg {
	gp := &groupProg{}
	for _, el := range g.Elems {
		if f, ok := el.(FilterElem); ok {
			gp.filters = append(gp.filters, c.filter(f.Expr, len(gp.filters)))
		}
	}
	if slices.ContainsFunc(g.Elems, func(el PatternElem) bool { _, ok := el.(FilterExistsElem); return ok }) {
		gp.filters = append(gp.filters, c.exists(g, len(gp.filters))...)
	}
	for i := 0; i < len(g.Elems); i++ {
		var ep elemProg
		switch el := g.Elems[i].(type) {
		case FilterElem, FilterExistsElem:
			continue
		case TriplePattern:
			// The maximal run of triple patterns, skipping the filters between
			// them.
			b := &blockProg{id: c.p.nBlks, off: c.p.nPats}
			for ; i < len(g.Elems); i++ {
				if tp, ok := g.Elems[i].(TriplePattern); ok {
					pat := c.pattern(tp)
					b.pats = append(b.pats, pat)
					ep.binds |= pat.mask
				} else if !isFilter(g.Elems[i]) {
					break
				}
			}
			i--
			c.p.nBlks++
			c.p.nPats += len(b.pats)
			ep.kind, ep.block = elemBlock, b
		case OptionalElem:
			ep.kind, ep.groups = elemOptional, []*groupProg{c.group(el.Group)}
		case UnionElem:
			ep.kind, ep.binds = elemUnion, ^uint64(0)
			for _, b := range el.Branches {
				bp := c.group(b)
				ep.groups = append(ep.groups, bp)
				ep.binds &= bp.binds
			}
		case GroupElem:
			ep.kind, ep.groups = elemGroup, []*groupProg{c.group(el.Group)}
			ep.binds = ep.groups[0].binds
		case BindElem:
			ep.kind, ep.slot, ep.expr = elemBind, c.slot(el.Var), el.Expr
		}
		gp.elems = append(gp.elems, ep)
		gp.binds |= ep.binds
	}
	return gp
}

// exists compiles the FILTER [NOT] EXISTS of g, the index-th filter there
// on, into filters that run their group seeded with the row. Like any eager
// filter each is handed to the step that binds the variables it shares with
// the rest of g, or else runs at the end of g: SPARQL's group scope. Every
// variable of g the EXISTS reads is then in the row, as the substitution of
// §18.6 has it; what it reads from outside g is there from the start.
func (c *compiler) exists(g *GroupPattern, index int) []filterProg {
	// c.owner holds, per variable, the element of g that mentions it, or -1
	// when more than one does. It is scratch every group shares, so the
	// groups of the EXISTS are compiled once it is cleared.
	mentions := func(i int, fn func(v string)) { (&GroupPattern{Elems: g.Elems[i : i+1]}).eachVar(true, fn) }
	for i := range g.Elems {
		mentions(i, func(v string) {
			if o, ok := c.owner[v]; !ok {
				c.owner[v] = i
			} else if o != i {
				c.owner[v] = -1
			}
		})
	}
	var fs []filterProg
	var groups []*GroupPattern
	for i, el := range g.Elems {
		if el, ok := el.(FilterExistsElem); ok {
			f := filterProg{eager: index+len(fs) < 64, cmpSlot: -1, not: el.Not}
			mentions(i, func(v string) {
				// A variable only a BIND expression reads has no slot, and
				// gets none here: SELECT * projects every slot.
				if slot, ok := c.p.varIndex[v]; ok && c.owner[v] < 0 {
					f.vars |= slotBit(slot)
					f.eager = f.eager && slot < 64
				}
			})
			fs, groups = append(fs, f), append(groups, el.Group)
		}
	}
	clear(c.owner)
	for i := range fs {
		inner, not := c.group(groups[i]), fs[i].not
		fs[i].exists = inner
		fs[i].keep = func(ec *evalCtx, row []rdf.ID) bool { return ec.exists(inner, row) != not }
	}
	return fs
}

func (c *compiler) pattern(tp TriplePattern) patProg {
	pat := patProg{sSlot: -1, oSlot: -1, pSlot: -1, sConst: -1, oConst: -1, pConst: -1}
	if tp.S.IsVar() {
		pat.sSlot = c.slot(tp.S.Var)
	} else {
		pat.sConst = c.constNo[tp.S.Term]
	}
	if tp.O.IsVar() {
		pat.oSlot = c.slot(tp.O.Var)
	} else {
		pat.oConst = c.constNo[tp.O.Term]
	}
	switch p := tp.P.(type) {
	case PredPath:
		pat.kind, pat.pConst = patSimple, c.constNo[rdf.IRI(p.IRI)]
	case predVarPath:
		pat.kind, pat.pSlot = patPredVar, c.slot(p.name)
	default:
		pat.kind, pat.path = patPath, tp.P
	}
	for _, slot := range [...]int{pat.sSlot, pat.oSlot, pat.pSlot} {
		if slot >= 0 {
			pat.mask |= slotBit(slot)
		}
	}
	return pat
}

// filter compiles the index-th FILTER of a group.
func (c *compiler) filter(expr Expression, index int) filterProg {
	f := filterProg{eager: filterIsEager(expr) && index < 64, cmpSlot: -1, expr: expr}
	for _, v := range exprVars(expr) {
		slot := c.slot(v)
		f.vars |= slotBit(slot)
		f.eager = f.eager && slot < 64
	}
	var fast bool
	if f.keep, fast = c.fastFilter(expr); !fast {
		f.keep = genericFilter(expr)
	}
	if v, op, _, n, ok := varVsNumber(expr); ok {
		f.cmpSlot, f.cmpOp, f.cmpConst = c.slot(v), op, n
	}
	return f
}

// varVsNumber reads FILTER(?v op number) — or number op ?v, turned around —
// as the variable, the operator, the literal and its number.
func varVsNumber(expr Expression) (v string, op CmpOp, lit rdf.Term, n float64, ok bool) {
	cmp, _ := expr.(CmpExpr) // the zero CmpExpr has no operands: not ok below
	l, r, op := cmp.L, cmp.R, cmp.Op
	if _, ok := l.(LitExpr); ok {
		l, r, op = r, l, [...]CmpOp{OpEq: OpEq, OpNeq: OpNeq, OpLt: OpGt, OpGt: OpLt, OpLe: OpGe, OpGe: OpLe}[op]
	}
	vx, isVar := l.(VarExpr)
	lx, isLit := r.(LitExpr)
	if !isVar || !isLit {
		return "", 0, rdf.Term{}, 0, false
	}
	n, ok = lx.Term.Float()
	return vx.Name, op, lx.Term, n, ok
}

// filterIsEager reports whether the filter may be applied as soon as its
// variables are statically bound. Filters that inspect boundness must wait
// for the end of the group.
func filterIsEager(e Expression) bool {
	eager := true
	walkExpr(e, func(sub Expression) {
		if call, ok := sub.(CallExpr); ok && (call.Name == "BOUND" || call.Name == "COALESCE") {
			eager = false
		}
	})
	return eager
}

// genericFilter evaluates the expression through the shared evaluator; an
// evaluation error drops the row.
func genericFilter(expr Expression) rowPred {
	return func(ec *evalCtx, row []rdf.ID) bool {
		ec.view = row
		ok, err := ebv(expr, ec)
		return err == nil && ok
	}
}

// fastFilter compiles the two filter shapes that dominate pattern and
// knowledge-base queries — a variable compared against a numeric constant
// (FILTER(?card > 1000)) and variable (in)equality (FILTER(?a != ?b)) —
// into predicates over ID rows that read numbers from the graph's numeric
// column. Rows the predicate cannot decide exactly fall back to the generic
// evaluator per row, so the semantics of CmpExpr.Eval are preserved bit for
// bit.
func (c *compiler) fastFilter(expr Expression) (rowPred, bool) {
	cmp, ok := expr.(CmpExpr)
	if !ok {
		return nil, false
	}

	// ?a op ?b, equality only (ordering mixes numeric and lexical compares;
	// leave it to the generic path).
	if lv, lok := cmp.L.(VarExpr); lok {
		if rv, rok := cmp.R.(VarExpr); rok && (cmp.Op == OpEq || cmp.Op == OpNeq) {
			li, ri := c.slot(lv.Name), c.slot(rv.Name)
			return func(ec *evalCtx, row []rdf.ID) bool {
				lid, rid := row[li], row[ri]
				if lid == rdf.NoID || rid == rdf.NoID {
					return false // comparing an unbound var errors: row dropped
				}
				// Mirror CmpExpr.Eval: numeric comparison when both sides
				// parse as numbers, term value equality otherwise. Distinct
				// IDs are distinct terms (intern checks the dictionary
				// before the side table), so termValueEqual only runs on
				// distinct terms.
				lf, lnum := ec.floatOf(lid)
				rf, rnum := ec.floatOf(rid)
				var eq bool
				if lnum && rnum {
					eq = lf == rf
				} else {
					eq = lid == rid || termValueEqual(ec.term(lid), ec.term(rid))
				}
				return eq == (cmp.Op == OpEq)
			}, true
		}
	}

	// Numeric comparison: both sides compile to float evaluators
	// (variables, numeric literals, arithmetic over them). Rows where a
	// side is unbound or non-numeric re-evaluate generically, so error and
	// lexical-fallback semantics stay identical.
	lf, lok := c.compileNumeric(cmp.L)
	rf, rok := c.compileNumeric(cmp.R)
	if !lok || !rok {
		return nil, false
	}
	generic := genericFilter(expr)
	return func(ec *evalCtx, row []rdf.ID) bool {
		l, ok := lf(ec, row)
		if !ok {
			return generic(ec, row)
		}
		r, ok := rf(ec, row)
		if !ok {
			return generic(ec, row)
		}
		return cmpFloat(cmp.Op, l, r)
	}, true
}

// numFn evaluates a numeric sub-expression against an ID row. The bool
// result is false when the row needs the generic evaluator (an unbound
// variable, a non-numeric binding, division by zero).
type numFn func(ec *evalCtx, row []rdf.ID) (float64, bool)

// compileNumeric compiles the numeric expression fragment the FILTER
// grammar of patterns produces: variables, numeric literals, unary minus
// and the four arithmetic operators. ArithExpr evaluates in float64 and
// renders through rdf.Float, whose round-trip formatting makes computing
// directly on float64 exact.
func (c *compiler) compileNumeric(e Expression) (numFn, bool) {
	switch e := e.(type) {
	case LitExpr:
		f, ok := e.Term.Float()
		if !ok {
			return nil, false
		}
		return func(*evalCtx, []rdf.ID) (float64, bool) { return f, true }, true
	case VarExpr:
		slot := c.slot(e.Name)
		return func(ec *evalCtx, row []rdf.ID) (float64, bool) {
			id := row[slot]
			if id == rdf.NoID {
				return 0, false
			}
			return ec.floatOf(id)
		}, true
	case NegExpr:
		inner, ok := c.compileNumeric(e.Inner)
		if !ok {
			return nil, false
		}
		return func(ec *evalCtx, row []rdf.ID) (float64, bool) {
			v, ok := inner(ec, row)
			return -v, ok
		}, true
	case ArithExpr:
		l, lok := c.compileNumeric(e.L)
		r, rok := c.compileNumeric(e.R)
		if !lok || !rok {
			return nil, false
		}
		op := e.Op
		if op != '+' && op != '-' && op != '*' && op != '/' {
			return nil, false
		}
		return func(ec *evalCtx, row []rdf.ID) (float64, bool) {
			lv, ok := l(ec, row)
			if !ok {
				return 0, false
			}
			rv, ok := r(ec, row)
			if !ok {
				return 0, false
			}
			switch op {
			case '+':
				return lv + rv, true
			case '-':
				return lv - rv, true
			case '*':
				return lv * rv, true
			default:
				if rv == 0 {
					return 0, false // division by zero errors in ArithExpr
				}
				return lv / rv, true
			}
		}, true
	}
	return nil, false
}
