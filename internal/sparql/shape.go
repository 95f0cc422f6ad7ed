package sparql

import "optimatch/internal/rdf"

// Shape is a query less the constants of its thresholds: the root group's
// FILTER(?v op number) elements with op one of < <= > >=, number op ?v
// counting as the same comparison turned around. Knowledge-base entries grown
// from one expert pattern differ in exactly those constants, and a looser
// entry that finds nothing in a plan proves a tighter one finds nothing there
// either (Contains).
type Shape struct {
	// Key is the query's canonical text (Query.String) with each threshold
	// printed as ?v op ?, a bare '?' no parsed query prints. Queries with equal
	// keys differ in their threshold constants alone.
	Key string

	thresholds []threshold // in root-group order
}

type threshold struct {
	op  CmpOp // with the variable on the left
	lit rdf.Term
	n   float64 // lit's number
}

// ShapeOf returns the query's shape. A grouped or aggregating query has none
// (ok is false, and the zero Shape comes back): a row a tighter filter drops
// changes its group's aggregates rather than dropping a row of the answer, and
// under HAVING(COUNT(*) < 3) it can even add one.
func ShapeOf(q *Query) (s Shape, ok bool) {
	if q.Analysis().prog.grouped {
		return Shape{}, false
	}
	root := &GroupPattern{Elems: make([]PatternElem, len(q.Where.Elems))}
	for i, el := range q.Where.Elems {
		if f, ok := el.(FilterElem); ok {
			if v, op, lit, n, ok := varVsNumber(f.Expr); ok && op != OpEq && op != OpNeq {
				s.thresholds = append(s.thresholds, threshold{op: op, lit: lit, n: n})
				el = FilterElem{Expr: CmpExpr{Op: op, L: VarExpr{Name: v}, R: VarExpr{}}}
			}
		}
		root.Elems[i] = el
	}
	shaped := *q
	shaped.Where = root
	s.Key = shaped.String()
	return s, true
}

// Contains reports whether every row of a query of shape t is a row of a
// query of shape s, as often (under LIMIT or OFFSET: whether t answers nothing
// where s answers nothing): the keys are equal and each of s's thresholds is
// at least as loose as t's, both as a number and as the literal's spelling.
// CmpExpr compares ?v with the constant as numbers when ?v is numeric and as
// strings when it is any other literal, where ?v > 150 refuses "1200z" that
// ?v > 1000 keeps; so 150 contains 1000 for numbers only, and neither 1e+06
// nor 1.5e+06 contains the other. The zero Shape contains nothing.
func (s Shape) Contains(t Shape) bool {
	if s.Key == "" || s.Key != t.Key {
		return false
	}
	for i, x := range s.thresholds {
		y := t.thresholds[i]
		lower := x.op == OpGt || x.op == OpGe // a lower bound: looser is smaller
		if lower && !(x.n <= y.n && x.lit.Value <= y.lit.Value) ||
			!lower && !(x.n >= y.n && x.lit.Value >= y.lit.Value) {
			return false
		}
	}
	return true
}
