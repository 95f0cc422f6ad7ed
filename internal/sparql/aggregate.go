package sparql

import (
	"fmt"
	"strings"

	"optimatch/internal/rdf"
)

// AggExpr is an aggregate function call: COUNT(?x), COUNT(*), COUNT(DISTINCT
// ?x), SUM/AVG/MIN/MAX(expr). Aggregates may appear in SELECT expressions,
// HAVING constraints and ORDER BY keys; the evaluator computes them per
// group and substitutes their values before ordinary expression evaluation.
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

// substituteAggregates returns a copy of e with every AggExpr replaced by
// the literal its computed value, looked up by the aggregate's key.
func substituteAggregates(e Expression, values map[string]rdf.Term) Expression {
	switch e := e.(type) {
	case AggExpr:
		if v, ok := values[aggKey(e)]; ok {
			return LitExpr{Term: v}
		}
		return e
	case NotExpr:
		return NotExpr{Inner: substituteAggregates(e.Inner, values)}
	case NegExpr:
		return NegExpr{Inner: substituteAggregates(e.Inner, values)}
	case AndExpr:
		return AndExpr{L: substituteAggregates(e.L, values), R: substituteAggregates(e.R, values)}
	case OrExpr:
		return OrExpr{L: substituteAggregates(e.L, values), R: substituteAggregates(e.R, values)}
	case CmpExpr:
		return CmpExpr{Op: e.Op, L: substituteAggregates(e.L, values), R: substituteAggregates(e.R, values)}
	case ArithExpr:
		return ArithExpr{Op: e.Op, L: substituteAggregates(e.L, values), R: substituteAggregates(e.R, values)}
	case CallExpr:
		args := make([]Expression, len(e.Args))
		for i, a := range e.Args {
			args[i] = substituteAggregates(a, values)
		}
		return CallExpr{Name: e.Name, Args: args}
	default:
		return e
	}
}

// aggKey identifies one aggregate instance for memoization within a group.
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

// collectAggregates gathers the distinct aggregate instances of e into out.
func collectAggregates(e Expression, out map[string]AggExpr) {
	walkExpr(e, func(sub Expression) {
		if agg, ok := sub.(AggExpr); ok {
			out[aggKey(agg)] = agg
		}
	})
}

// computeAggregate evaluates one aggregate over a group of solutions.
func computeAggregate(ec *evalCtx, agg AggExpr, group []solution) (rdf.Term, error) {
	if agg.Fn == "COUNT" && agg.Star {
		return rdf.Int(int64(len(group))), nil
	}
	var values []rdf.Term
	var seen map[string]bool
	if agg.Distinct {
		seen = make(map[string]bool)
	}
	for _, s := range group {
		v, err := agg.Arg.Eval(solView{ec, s})
		if err != nil {
			continue // per SPARQL, error rows are skipped by aggregates
		}
		if agg.Distinct {
			k := v.String()
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		values = append(values, v)
	}
	switch agg.Fn {
	case "COUNT":
		return rdf.Int(int64(len(values))), nil
	case "SUM", "AVG":
		sum := 0.0
		n := 0
		for _, v := range values {
			f, ok := v.Float()
			if !ok {
				return rdf.Term{}, fmt.Errorf("%w: %s over non-numeric value %s", errType, agg.Fn, v)
			}
			sum += f
			n++
		}
		if agg.Fn == "SUM" {
			return rdf.Float(sum), nil
		}
		if n == 0 {
			return rdf.Term{}, fmt.Errorf("%w: AVG over empty group", errType)
		}
		return rdf.Float(sum / float64(n)), nil
	case "MIN", "MAX":
		if len(values) == 0 {
			return rdf.Term{}, fmt.Errorf("%w: %s over empty group", errType, agg.Fn)
		}
		best := values[0]
		for _, v := range values[1:] {
			c := v.Compare(best)
			if (agg.Fn == "MIN" && c < 0) || (agg.Fn == "MAX" && c > 0) {
				best = v
			}
		}
		return best, nil
	default:
		return rdf.Term{}, fmt.Errorf("%w: unknown aggregate %s", errType, agg.Fn)
	}
}

// groupSolutions partitions the solutions by the GROUP BY variables. With
// no GROUP BY, all solutions form one group (even an empty one, so that
// COUNT(*) over no matches yields 0).
func groupSolutions(ec *evalCtx, groupBy []string, sols []solution) [][]solution {
	if len(groupBy) == 0 {
		return [][]solution{sols}
	}
	slots := make([]int, len(groupBy))
	for i, v := range groupBy {
		slots[i] = ec.prog.varIndex[v]
	}
	index := make(map[string]int)
	var groups [][]solution
	for _, s := range sols {
		var key strings.Builder
		for _, slot := range slots {
			key.WriteString(s[slot].String())
			key.WriteByte('\x1f')
		}
		k := key.String()
		gi, ok := index[k]
		if !ok {
			gi = len(groups)
			index[k] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], s)
	}
	return groups
}

// evalGrouped performs grouping, aggregation, HAVING and projection for
// queries that use GROUP BY or aggregates (and passed checkAggregation).
func (ec *evalCtx) evalGrouped(q *Query, sols []solution) (*Results, error) {
	// Collect every aggregate instance used anywhere.
	aggs := make(map[string]AggExpr)
	for _, item := range q.Select {
		collectAggregates(item.Expr, aggs)
	}
	if q.Having != nil {
		collectAggregates(q.Having, aggs)
	}
	for _, key := range q.OrderBy {
		collectAggregates(key.Expr, aggs)
	}

	groups := groupSolutions(ec, q.GroupBy, sols)

	type groupRow struct {
		rep    solution // representative solution for grouped vars
		values map[string]rdf.Term
	}
	var rows []groupRow
	for _, g := range groups {
		if err := ec.cancel.check(); err != nil {
			return nil, err
		}
		values := make(map[string]rdf.Term, len(aggs))
		for key, agg := range aggs {
			v, err := computeAggregate(ec, agg, g)
			if err != nil {
				continue // unbound aggregate: projection yields unbound
			}
			values[key] = v
		}
		var rep solution
		if len(g) > 0 {
			rep = g[0]
		} else {
			rep = ec.emptySolution()
		}
		if q.Having != nil {
			ok, err := ebv(substituteAggregates(q.Having, values), solView{ec, rep})
			if err != nil || !ok {
				continue
			}
		}
		rows = append(rows, groupRow{rep: rep, values: values})
	}

	// ORDER BY over groups.
	if len(q.OrderBy) > 0 {
		type keyed struct {
			row  groupRow
			keys []rdf.Term
		}
		ks := make([]keyed, len(rows))
		for i, row := range rows {
			keys := make([]rdf.Term, len(q.OrderBy))
			for j, ok := range q.OrderBy {
				expr := substituteAggregates(ok.Expr, row.values)
				if v, err := expr.Eval(solView{ec, row.rep}); err == nil {
					keys[j] = v
				}
			}
			ks[i] = keyed{row: row, keys: keys}
		}
		sortKeyed := func(a, b keyed) bool {
			for j := range q.OrderBy {
				c := a.keys[j].Compare(b.keys[j])
				if q.OrderBy[j].Desc {
					c = -c
				}
				if c != 0 {
					return c < 0
				}
			}
			return false
		}
		for i := 1; i < len(ks); i++ {
			for j := i; j > 0 && sortKeyed(ks[j], ks[j-1]); j-- {
				ks[j], ks[j-1] = ks[j-1], ks[j]
			}
		}
		for i := range ks {
			rows[i] = ks[i].row
		}
	}

	// Projection.
	res := &Results{}
	for _, item := range q.Select {
		res.Vars = append(res.Vars, item.Alias)
	}
	var seen map[string]bool
	var keyer distinctKeyer
	if q.Distinct {
		seen = make(map[string]bool)
		keyer.dict = ec.g.Dict()
	}
	for _, row := range rows {
		if err := ec.cancel.check(); err != nil {
			return nil, err
		}
		out := make([]rdf.Term, len(q.Select))
		for i, item := range q.Select {
			expr := substituteAggregates(item.Expr, row.values)
			if v, err := expr.Eval(solView{ec, row.rep}); err == nil {
				out[i] = v
			}
		}
		if q.Distinct {
			key := keyer.key(out)
			if seen[key] {
				continue
			}
			seen[key] = true
		}
		res.Rows = append(res.Rows, out)
	}
	if q.Offset > 0 {
		if q.Offset >= len(res.Rows) {
			res.Rows = nil
		} else {
			res.Rows = res.Rows[q.Offset:]
		}
	}
	if q.Limit >= 0 && q.Limit < len(res.Rows) {
		res.Rows = res.Rows[:q.Limit]
	}
	return res, nil
}

// checkAggregation reports whether the query needs grouped evaluation and
// rejects the projections grouped evaluation cannot produce. Both errors
// depend only on the query's shape, so ExecOpts reports them before it
// evaluates anything.
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
