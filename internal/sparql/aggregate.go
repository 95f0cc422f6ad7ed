package sparql

import (
	"fmt"
	"strings"

	"optimatch/internal/rdf"
)

// AggExpr is an aggregate function call: COUNT(?x), COUNT(*), COUNT(DISTINCT
// ?x), SUM/AVG/MIN/MAX(expr). Aggregates may appear in SELECT expressions,
// HAVING constraints and ORDER BY keys; the compiler gives each a slot and
// rewrites the expressions around it to read that slot (compiler.tail), the
// evaluator fills the slot per group (evalCtx.group).
type AggExpr struct {
	Fn       string // COUNT, SUM, AVG, MIN, MAX (uppercase)
	Distinct bool
	Star     bool       // COUNT(*)
	Arg      Expression // nil when Star
}

// Eval implements Expression. A bare AggExpr is never evaluated row-wise;
// reaching this method means an aggregate appeared where none is allowed.
func (e AggExpr) Eval(bindingView) (rdf.Term, error) {
	return rdf.Term{}, fmt.Errorf("%w: aggregate %s outside grouped evaluation", errType, e.Fn)
}

// aggregateFns lists the supported aggregate function names.
var aggregateFns = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
}

// hasAggregate reports whether e contains any AggExpr.
func hasAggregate(e Expression) bool {
	found := false
	walkExpr(e, func(sub Expression) {
		if _, ok := sub.(AggExpr); ok {
			found = true
		}
	})
	return found
}

// walkExpr visits e and every subexpression.
func walkExpr(e Expression, fn func(Expression)) {
	fn(e)
	switch e := e.(type) {
	case NotExpr:
		walkExpr(e.Inner, fn)
	case NegExpr:
		walkExpr(e.Inner, fn)
	case AndExpr:
		walkExpr(e.L, fn)
		walkExpr(e.R, fn)
	case OrExpr:
		walkExpr(e.L, fn)
		walkExpr(e.R, fn)
	case CmpExpr:
		walkExpr(e.L, fn)
		walkExpr(e.R, fn)
	case ArithExpr:
		walkExpr(e.L, fn)
		walkExpr(e.R, fn)
	case CallExpr:
		for _, a := range e.Args {
			walkExpr(a, fn)
		}
	case AggExpr:
		if e.Arg != nil {
			walkExpr(e.Arg, fn)
		}
	}
}

// substitute returns a copy of e in which every subexpression repl returns a
// replacement for is replaced by it; repl returns nil to have the
// subexpression's operands visited instead.
func substitute(e Expression, repl func(Expression) Expression) Expression {
	if r := repl(e); r != nil {
		return r
	}
	switch e := e.(type) {
	case NotExpr:
		return NotExpr{Inner: substitute(e.Inner, repl)}
	case NegExpr:
		return NegExpr{Inner: substitute(e.Inner, repl)}
	case AndExpr:
		return AndExpr{L: substitute(e.L, repl), R: substitute(e.R, repl)}
	case OrExpr:
		return OrExpr{L: substitute(e.L, repl), R: substitute(e.R, repl)}
	case CmpExpr:
		return CmpExpr{Op: e.Op, L: substitute(e.L, repl), R: substitute(e.R, repl)}
	case ArithExpr:
		return ArithExpr{Op: e.Op, L: substitute(e.L, repl), R: substitute(e.R, repl)}
	case CallExpr:
		args := make([]Expression, len(e.Args))
		for i, a := range e.Args {
			args[i] = substitute(a, repl)
		}
		return CallExpr{Name: e.Name, Args: args}
	default:
		return e
	}
}

// aggKey identifies one aggregate instance of a query, so that the compiler
// gives repeated mentions of it one slot.
func aggKey(e AggExpr) string {
	var b strings.Builder
	b.WriteString(e.Fn)
	if e.Distinct {
		b.WriteString("/D")
	}
	if e.Star {
		b.WriteString("/*")
	} else {
		fmt.Fprintf(&b, "/%#v", e.Arg)
	}
	return b.String()
}

// aggAcc accumulates one aggregate over one group.
type aggAcc struct {
	n    int64    // values counted
	sum  float64  // SUM, AVG
	best rdf.Term // MIN, MAX
	bad  bool     // SUM, AVG: a value was not numeric
}

// add feeds the row in ec.view to accumulator number no. Rows whose argument
// fails to evaluate are skipped, per SPARQL; DISTINCT skips the values (as
// interned IDs, so by term equality) the accumulator has already taken.
func (ec *evalCtx) add(agg *AggExpr, acc *aggAcc, no int) {
	if agg.Star {
		acc.n++
		return
	}
	v, err := agg.Arg.Eval(ec)
	if err != nil {
		return
	}
	if agg.Distinct {
		key := [2]rdf.ID{rdf.ID(no), ec.intern(v)}
		if _, dup := ec.pairSeen[key]; dup {
			return
		}
		ec.pairSeen[key] = struct{}{}
	}
	acc.n++
	switch agg.Fn {
	case "SUM", "AVG":
		f, ok := v.Float()
		acc.sum += f
		acc.bad = acc.bad || !ok
	case "MIN", "MAX":
		if acc.n > 1 {
			if c := v.Compare(acc.best); c == 0 || (c < 0) != (agg.Fn == "MIN") {
				return
			}
		}
		acc.best = v
	}
}

// value is the aggregate's result for the group, the zero Term when it has
// none (SUM or AVG over a non-numeric value; AVG, MIN or MAX over no values):
// the slot stays unbound and what reads it fails like any unbound variable.
func (acc *aggAcc) value(fn string) rdf.Term {
	switch {
	case fn == "COUNT":
		return rdf.Int(acc.n)
	case fn == "SUM" && !acc.bad:
		return rdf.Float(acc.sum)
	case fn == "AVG" && !acc.bad && acc.n > 0:
		return rdf.Float(acc.sum / float64(acc.n))
	case fn == "MIN" || fn == "MAX":
		return acc.best
	}
	return rdf.Term{}
}

// group replaces the WHERE rows by one row per group, in order of first
// appearance: the group's first row — where the grouped variables are read
// from — with the value of every aggregate in its slot. Rows are keyed by the
// ID tuple of the GROUP BY slots; without GROUP BY all rows form one group,
// present even when there are no rows (COUNT(*) over no matches is 0). HAVING
// then decides which groups stay. A cancellation stops the pass wherever it
// is; the caller finds it in ec.cancel.
func (ec *evalCtx) group(table []rdf.ID) []rdf.ID {
	p := ec.prog
	w, na := p.width, len(p.aggs)
	if ec.groups == nil {
		ec.groups = make(map[string]int32)
	}
	if ec.pairSeen == nil {
		ec.pairSeen = make(map[[2]rdf.ID]struct{})
	}
	clear(ec.pairSeen)
	out := ec.pushTable()
	open := func(row []rdf.ID) {
		ec.tabs[out] = append(ec.tabs[out], row...)
		ec.accs = append(ec.accs, make([]aggAcc, na)...)
	}
	if len(p.groupSlots) == 0 && len(table) == 0 {
		open(ec.zero)
	}
	for r := 0; r < len(table) && ec.cancel.check() == nil; r += w {
		row := table[r : r+w]
		key := ec.keyBuf[:0]
		for _, slot := range p.groupSlots {
			key = appendID(key, row[slot])
		}
		ec.keyBuf = key
		gi, ok := ec.groups[string(key)]
		if !ok {
			gi = int32(len(ec.groups))
			ec.groups[string(key)] = gi
			open(row)
		}
		ec.view = row
		for j := range p.aggs {
			no := int(gi)*na + j
			ec.add(&p.aggs[j].agg, &ec.accs[no], no)
		}
	}

	groups, n := ec.tabs[out], 0
	for r := 0; r < len(groups); r += w {
		row := groups[r : r+w]
		for j, a := range p.aggs {
			row[a.slot] = ec.intern(ec.accs[r/w*na+j].value(a.agg.Fn))
		}
		if p.having != nil {
			ec.view = row
			if ok, err := ebv(p.having, ec); err != nil || !ok {
				continue
			}
		}
		n += copy(groups[n:n+w], row)
	}
	return groups[:n]
}

// checkAggregation reports whether the query needs grouped evaluation and
// rejects the projections grouped evaluation cannot produce. Both errors
// depend only on the query's shape: Parse refuses them.
func (q *Query) checkAggregation() (grouped bool, err error) {
	grouped = len(q.GroupBy) > 0 || q.Having != nil
	for _, item := range q.Select {
		grouped = grouped || hasAggregate(item.Expr)
	}
	for _, key := range q.OrderBy {
		grouped = grouped || hasAggregate(key.Expr)
	}
	if !grouped {
		return false, nil
	}
	if q.Star {
		return true, fmt.Errorf("sparql: SELECT * cannot be combined with aggregation")
	}
	// Non-aggregate select expressions may reference only grouped variables.
	inGroupBy := make(map[string]bool, len(q.GroupBy))
	for _, v := range q.GroupBy {
		inGroupBy[v] = true
	}
	for _, item := range q.Select {
		if hasAggregate(item.Expr) {
			continue
		}
		for _, v := range exprVars(item.Expr) {
			if !inGroupBy[v] {
				return true, fmt.Errorf("sparql: variable ?%s in SELECT is neither aggregated nor in GROUP BY", v)
			}
		}
	}
	return true, nil
}
