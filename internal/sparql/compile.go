package sparql

import (
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"optimatch/internal/rdf"
)

// This file compiles a query into its graph-independent program. Everything
// about an evaluation that depends only on the query text is decided here,
// once per parsed query (Parse computes it as the static analysis, and
// whoever holds the parsed query — a compiled pattern, a knowledge-base entry
// — shares it): the variable→slot table, triple
// patterns carrying slot and constant numbers, each group's filters with the
// slots they read as a bitmask and a compiled row predicate, the variables
// every element binds as a bitmask, the constants every solution needs, and
// the result tail — which slots are grouped on, aggregated into, computed,
// sorted by and projected. What is left for the evaluator to do per (query,
// graph) pair is to resolve the constants to the graph's dense IDs, choose
// the join order from the graph's statistics, and run (see specialize.go).
//
// The WHERE clause is compiled by one walk (compiler.group), which also
// decides what each group binds and so whether Parse refuses the query:
// top-down evaluation seeds a nested group with the rows of the elements
// before it, where SPARQL evaluates the group on its own and joins (§18.5).
// The seed of a nested group is what the elements to its left may bind, at
// every enclosing level up to the root or the nearest EXISTS, whose group
// sees the filtered row substituted (§18.6). A triple pattern, a nested group
// and a UNION (what every branch binds) bind a variable in every row; an
// OPTIONAL and a BIND, whose expression may fail, only may. Refused:
//
//	R1: a BIND whose target an earlier element of its group, or the row an
//	    enclosing EXISTS filters, may bind (§18.2.1);
//	R2: an OPTIONAL that mentions, at any depth, a seed variable no earlier
//	    element of its group binds in every row: the query is not
//	    well-designed;
//	R3: a FILTER or FILTER [NOT] EXISTS that names a seed variable its group
//	    does not bind in every row (an EXISTS: at any depth), or a BIND one no
//	    earlier element binds in every row. The filters of an OPTIONAL's group
//	    are its LeftJoin's condition: R2 covers them.
//
// The walk visits a group's elements in textual order, then its filters in
// textual order, since a filter reads the rows of the whole group.

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
	// binds holds the slots below 64 bound in every row once the element has
	// run, read off the walk's every sets: a block's variables, what a nested
	// group binds, what every branch of a UNION binds; nothing for OPTIONAL,
	// nor for a BIND, whose expression may fail and leave its target to a
	// later pattern.
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
	// vars holds the slots below 64 the filter needs bound: the ones its
	// expression reads, or the ones an EXISTS shares with the rest of its
	// group (shared, which holds them all).
	vars   uint64
	shared bitset
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

// bitset is a set of slots or of const numbers, of any size; it grows as it
// is added to.
type bitset []uint64

func (s bitset) has(i int) bool { return i/64 < len(s) && s[i/64]&(1<<uint(i%64)) != 0 }

func (s *bitset) grow(words int) {
	for len(*s) < words {
		*s = append(*s, 0)
	}
}

func (s *bitset) add(i int) {
	s.grow(i/64 + 1)
	(*s)[i/64] |= 1 << uint(i%64)
}

func (s *bitset) set(o bitset) { *s = append((*s)[:0], o...) }

func (s *bitset) or(o bitset) {
	s.grow(len(o))
	for i, w := range o {
		(*s)[i] |= w
	}
}

// orAnd adds to s what a and b both hold.
func (s *bitset) orAnd(a, b bitset) {
	n := min(len(a), len(b))
	s.grow(n)
	for i := range n {
		(*s)[i] |= a[i] & b[i]
	}
}

func (s *bitset) and(o bitset) {
	*s = (*s)[:min(len(*s), len(o))]
	for i := range *s {
		(*s)[i] &= o[i]
	}
}

// low is the set's slots below 64, as the evaluator's masks hold them.
func (s bitset) low() uint64 {
	if len(s) == 0 {
		return 0
	}
	return s[0]
}

// high reports whether s holds a slot past 63, which no mask tracks.
func (s bitset) high() bool {
	return len(s) > 1 && slices.ContainsFunc(s[1:], func(w uint64) bool { return w != 0 })
}

// members lists s in increasing order.
func (s bitset) members() []int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	out := make([]int, 0, n)
	for i, w := range s {
		for ; w != 0; w &= w - 1 {
			out = append(out, i*64+bits.TrailingZeros64(w))
		}
	}
	return out
}

type compiler struct {
	p       *program
	constNo map[rdf.Term]int

	// The walk's scratch: frames[d] is the group being walked d deep (the
	// root 0), and marks are the elements whose checks the one being walked
	// answers to, innermost last.
	frames []*frame
	marks  []mark
	err    error // the first refusal
}

// frame is the walk's scratch for the group being walked at one depth: what
// reaches it from the left and what it binds, names and requires so far. The
// walk is depth-first, so a depth holds one group at a time, and every group
// walked there reuses its sets.
type frame struct {
	// seed is what the elements to the group's left may bind, at every level
	// around it up to the root or the nearest EXISTS.
	seed bitset
	// may and every: what the elements walked so far may bind, and bind in
	// every row.
	may, every bitset
	// mentions holds the variables the group names, at any depth and in BIND
	// expressions too; twice, the ones two of its elements name.
	mentions, twice bitset
	// A UNION's branches, each walked one depth down, gathered: what any may
	// bind, what all bind, what any names.
	anyMay, allEvery, anyMentions bitset
	// required holds the const numbers every solution of the group needs
	// in the graph: a triple pattern's, those every traversal of a path
	// crosses, a nested group's and an EXISTS's; not an OPTIONAL's or a NOT
	// EXISTS's, which remove no solution. allRequired holds those every
	// branch of a UNION needs.
	required, allRequired bitset
}

// sets lists f's sets, the slot sets first.
func (f *frame) sets() [10]*bitset {
	return [...]*bitset{&f.seed, &f.may, &f.every, &f.mentions, &f.twice, &f.anyMay, &f.allEvery, &f.anyMentions, &f.required, &f.allRequired}
}

// frame returns the frame of depth d, emptied. Its slot sets share one block
// sized to the query's slots.
func (c *compiler) frame(d int) *frame {
	if d == len(c.frames) {
		f, w := &frame{}, (len(c.p.vars)+63)/64
		block, sets := make([]uint64, 0, 8*w), f.sets()
		for i, s := range sets[:8] {
			*s = block[i*w : i*w : (i+1)*w]
		}
		c.frames = append(c.frames, f)
	}
	f := c.frames[d]
	for _, s := range f.sets() {
		*s = (*s)[:0]
	}
	return f
}

// mark is an element whose checks hold what is walked inside it (an
// OPTIONAL or a FILTER [NOT] EXISTS) or what it names (a FILTER or a BIND):
// a variable in the seed of the group depth deep that the group does not
// bind in every row, before the element for an OPTIONAL or a BIND, is
// refused.
type mark struct {
	depth int
	el    PatternElem
}

func (m mark) refusal(v string) error {
	what, where := "OPTIONAL", " before it"
	switch el := m.el.(type) {
	case BindElem:
		what = printed(func(w *printer) { w.bind(el) })
	case FilterElem:
		what, where = printed(func(w *printer) { w.filter(el.Expr) }), ""
	case FilterExistsElem:
		what, where = existsLabel(el.Not), ""
	}
	return fmt.Errorf("sparql: %s uses ?%s from outside its group, where nothing%s binds it in every row", what, v, where)
}

// check holds vars, which an element names, to the marks around it. A
// variable without a slot — one only BIND expressions read — is bound
// nowhere and passes.
func (c *compiler) check(vars []string) {
	for i := len(c.marks) - 1; i >= 0 && c.err == nil; i-- {
		at := c.frames[c.marks[i].depth]
		for _, v := range vars {
			if s, ok := c.p.varIndex[v]; ok && at.seed.has(s) && !at.every.has(s) {
				c.err = c.marks[i].refusal(v)
				break
			}
		}
	}
}

// mention records that one element of f's group names vars.
func (c *compiler) mention(f *frame, vars []string) {
	for _, v := range vars {
		if s, ok := c.p.varIndex[v]; ok && f.mentions.has(s) {
			f.twice.add(s)
		}
	}
	for _, v := range vars {
		if s, ok := c.p.varIndex[v]; ok {
			f.mentions.add(s)
		}
	}
}

// adopt takes into f what one element of its group may bind, binds in every
// row, names and requires.
func (f *frame) adopt(may, every, mentions, required bitset) {
	f.may.or(may)
	f.every.or(every)
	f.twice.orAnd(f.mentions, mentions)
	f.mentions.or(mentions)
	f.required.or(required)
}

// compile builds q's program. Its error is the first of R1–R3 (see the top
// of this file) that q breaks; the program is whole either way.
func compile(q *Query) (*program, error) {
	// Room for the constants and nesting depths of a typical query.
	p := &program{varIndex: make(map[string]int), consts: make([]rdf.Term, 0, 8), predConst: make(map[string]int)}
	c := &compiler{p: p, constNo: make(map[rdf.Term]int), frames: make([]*frame, 0, 4)}

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

	p.root = c.group(q.Where, 0, false, false)
	p.required = c.frames[0].required.members()
	p.grouped, _ = q.checkAggregation()
	c.tail(q, nWhere)
	// Fixed last: group and tail reach their slots through c.slot, so a
	// variable the walks above missed still gets a cell in every row.
	p.width = max(len(p.vars), 1)
	p.projected = make([]bool, p.width)
	for _, slot := range p.projSlots {
		p.projected[slot] = true
	}
	return p, c.err
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

// group compiles g, which is d deep, into frames[d]: what it binds, names and
// requires. exists: g is an EXISTS's, so nothing seeds it; leftJoin: g is an
// OPTIONAL's, whose filters R2 covers.
func (c *compiler) group(g *GroupPattern, d int, exists, leftJoin bool) *groupProg {
	f := c.frame(d)
	if d > 0 && !exists {
		up := c.frames[d-1]
		f.seed.or(up.seed)
		f.seed.or(up.may)
	}
	gp := &groupProg{}
	for i := 0; i < len(g.Elems); i++ {
		var ep elemProg
		switch el := g.Elems[i].(type) {
		case FilterElem, FilterExistsElem:
			continue
		case TriplePattern:
			// The maximal run of triple patterns, skipping the filters between
			// them: elements i to j.
			n, j := 0, i
			for ; j < len(g.Elems); j++ {
				if _, ok := g.Elems[j].(TriplePattern); ok {
					n++
				} else if !isFilter(g.Elems[j]) {
					break
				}
			}
			b := &blockProg{id: c.p.nBlks, off: c.p.nPats, pats: make([]patProg, 0, n)}
			for _, el := range g.Elems[i:j] {
				if tp, ok := el.(TriplePattern); ok {
					pat := c.pattern(tp, f)
					b.pats = append(b.pats, pat)
					ep.binds |= pat.mask
				}
			}
			i = j - 1
			c.p.nBlks++
			c.p.nPats += len(b.pats)
			ep.kind, ep.block = elemBlock, b
		case OptionalElem:
			c.marks = append(c.marks, mark{d, g.Elems[i]})
			ep.kind, ep.groups = elemOptional, []*groupProg{c.group(el.Group, d+1, false, true)}
			c.marks = c.marks[:len(c.marks)-1]
			sub := c.frames[d+1]
			f.adopt(sub.may, nil, sub.mentions, nil)
		case UnionElem:
			// Each branch is walked on f's seed alone; f binds what any
			// branch binds, and in every row what every branch does.
			ep.kind = elemUnion
			for k, b := range el.Branches {
				ep.groups = append(ep.groups, c.group(b, d+1, false, false))
				sub := c.frames[d+1]
				f.anyMay.or(sub.may)
				f.anyMentions.or(sub.mentions)
				if k == 0 {
					f.allEvery.set(sub.every)
					f.allRequired.set(sub.required)
				} else {
					f.allEvery.and(sub.every)
					f.allRequired.and(sub.required)
				}
			}
			f.adopt(f.anyMay, f.allEvery, f.anyMentions, f.allRequired)
			ep.binds = f.allEvery.low()
		case GroupElem:
			ep.kind, ep.groups = elemGroup, []*groupProg{c.group(el.Group, d+1, false, false)}
			sub := c.frames[d+1]
			f.adopt(sub.may, sub.every, sub.mentions, sub.required)
			ep.binds = sub.every.low()
		case BindElem:
			vars := append(exprVars(el.Expr), el.Var)
			c.marks = append(c.marks, mark{d, g.Elems[i]})
			c.check(vars)
			c.marks = c.marks[:len(c.marks)-1]
			ep.kind, ep.slot, ep.expr = elemBind, c.slot(el.Var), el.Expr
			if c.err == nil && slices.ContainsFunc(c.frames[:d+1], func(f *frame) bool { return f.may.has(ep.slot) }) {
				c.err = fmt.Errorf("sparql: %s assigns ?%s, which is already in scope there", printed(func(w *printer) { w.bind(el) }), el.Var)
			}
			f.may.add(ep.slot)
			c.mention(f, vars)
		}
		gp.elems = append(gp.elems, ep)
	}

	// The filters read the rows of the whole group. An EXISTS runs its group
	// seeded with the row: like any eager filter it is handed to the step that
	// binds the variables it shares with the rest of g, or else runs at the
	// end of g — SPARQL's group scope. Every variable of g it reads is then in
	// the row, as the substitution of §18.6 has it; what it reads from outside
	// g is there from the start. The EXISTS filters follow the others.
	var existsFilters []filterProg
	for _, el := range g.Elems {
		held := len(c.marks)
		if isFilter(el) && !leftJoin {
			c.marks = append(c.marks, mark{d, el})
		}
		switch e := el.(type) {
		case FilterElem:
			vars := exprVars(e.Expr)
			c.check(vars)
			c.mention(f, vars)
			gp.filters = append(gp.filters, c.filter(e.Expr, vars, len(gp.filters)))
		case FilterExistsElem:
			inner := c.group(e.Group, d+1, true, false)
			sub := c.frames[d+1]
			required := sub.required
			if e.Not {
				required = nil
			}
			f.adopt(nil, nil, sub.mentions, required)
			existsFilters = append(existsFilters, filterProg{cmpSlot: -1, exists: inner, not: e.Not, shared: slices.Clone(sub.mentions)})
		}
		c.marks = c.marks[:held]
	}
	for _, ef := range existsFilters {
		ef.shared.and(f.twice)
		ef.vars, ef.eager = ef.shared.low(), len(gp.filters) < 64 && !ef.shared.high()
		inner, not := ef.exists, ef.not
		ef.keep = func(ec *evalCtx, row []rdf.ID) bool { return ec.exists(inner, row) != not }
		gp.filters = append(gp.filters, ef)
	}
	return gp
}

func isFilter(el PatternElem) bool {
	switch el.(type) {
	case FilterElem, FilterExistsElem:
		return true
	}
	return false
}

// pattern compiles a triple pattern of f's group, which it binds in every row.
func (c *compiler) pattern(tp TriplePattern, f *frame) patProg {
	vars := [...]string{tp.S.Var, "", tp.O.Var}
	if pv, ok := tp.P.(predVarPath); ok {
		vars[1] = pv.name
	}
	c.check(vars[:])
	c.mention(f, vars[:])
	pat := patProg{sSlot: -1, oSlot: -1, pSlot: -1, sConst: -1, oConst: -1, pConst: -1}
	if tp.S.IsVar() {
		pat.sSlot = c.slot(tp.S.Var)
	} else {
		pat.sConst = c.konst(tp.S.Term, &f.required)
	}
	if tp.O.IsVar() {
		pat.oSlot = c.slot(tp.O.Var)
	} else {
		pat.oConst = c.konst(tp.O.Term, &f.required)
	}
	switch p := tp.P.(type) {
	case PredPath:
		pat.kind, pat.pConst = patSimple, c.konst(rdf.IRI(p.IRI), &f.required)
	case predVarPath:
		pat.kind, pat.pSlot = patPredVar, c.slot(p.name)
	default:
		pat.kind, pat.path = patPath, tp.P
		c.path(tp.P, &f.required)
	}
	for _, slot := range [...]int{pat.sSlot, pat.oSlot, pat.pSlot} {
		if slot >= 0 {
			f.may.add(slot)
			f.every.add(slot)
			pat.mask |= slotBit(slot)
		}
	}
	return pat
}

// konst returns t's const number, registering t if it is new, and adds it to
// req unless req is nil.
func (c *compiler) konst(t rdf.Term, req *bitset) int {
	n, ok := c.constNo[t]
	if !ok {
		n = len(c.p.consts)
		c.constNo[t] = n
		c.p.consts = append(c.p.consts, t)
		if t.IsIRI() {
			c.p.predConst[t.Value] = n
		}
	}
	if req != nil {
		req.add(n)
	}
	return n
}

// path registers the predicate IRIs of the property path p and adds to req
// (nil: nowhere) the ones every traversal of p crosses. A `*` or `?` modifier
// admits a zero-length traversal, so nothing under it is required; an
// alternation requires only the predicates common to all its alternatives; a
// sequence requires each of its parts' requirements.
func (c *compiler) path(p Path, req *bitset) {
	switch p := p.(type) {
	case PredPath:
		c.konst(rdf.IRI(p.IRI), req)
	case InvPath:
		c.path(p.Inner, req)
	case SeqPath:
		for _, part := range p.Parts {
			c.path(part, req)
		}
	case AltPath:
		var common bitset
		for i, alt := range p.Alts {
			var r bitset
			c.path(alt, &r)
			if i == 0 {
				common = r
			} else {
				common.and(r)
			}
		}
		if req != nil {
			req.or(common)
		}
	case ModPath:
		if p.Mod == ModOneOrMore {
			c.path(p.Inner, req)
		} else {
			c.path(p.Inner, nil)
		}
	}
}

// filter compiles the index-th FILTER of a group, whose expression reads
// vars.
func (c *compiler) filter(expr Expression, vars []string, index int) filterProg {
	f := filterProg{eager: filterIsEager(expr) && index < 64, cmpSlot: -1, expr: expr}
	for _, v := range vars {
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
