// Package kb implements the OptImatch knowledge base (paper Section 2.3):
// a library of expert problem patterns with recommendation templates written
// in the handler tagging language, automatic context adaptation of those
// templates to the user's query execution plans, and statistical-correlation
// ranking of the resulting recommendations with confidence scores
// (Algorithms 4 and 5). An occurrence is a transform.Match, a row of the
// entry's query; Build resolves template tags to its columns.
package kb

import (
	"cmp"
	"regexp"
	"slices"
	"strconv"
	"strings"

	"optimatch/internal/qep"
	"optimatch/internal/transform"
)

// Field accessors usable as @ALIAS.FIELD in recommendation templates.
const (
	FieldName     = "NAME"
	FieldType     = "TYPE"
	FieldID       = "ID"
	FieldCard     = "CARD"
	FieldCost     = "COST"
	FieldIOCost   = "IOCOST"
	FieldSelfCost = "SELFCOST"
)

// notApplicable is what @ALIAS.FIELD renders when the bound resource has no
// such field (a cost on a base object). An ANY handler can bind an operator or
// a base object, so only the match knows which: expansion renders the gap, the
// way an empty helper renders "(none)", instead of failing the whole report.
const notApplicable = "(n/a)"

// field evaluates @ALIAS.FIELD, the alias resolved to column c.
func field(m transform.Match, c int, name string) string {
	op, obj := m.Operator(c), m.Object(c)
	switch strings.ToUpper(name) {
	case FieldName:
		if obj != nil {
			return obj.Name
		}
		if op != nil {
			return op.DisplayName()
		}
	case FieldType:
		if obj != nil {
			return obj.Type
		}
		if op != nil {
			return op.Type
		}
	case FieldID:
		if op != nil {
			return strconv.Itoa(op.ID)
		}
		if obj != nil {
			return obj.Name
		}
	case FieldCard:
		if op != nil {
			return qep.FormatNumShort(op.Cardinality)
		}
		if obj != nil {
			return qep.FormatNumShort(obj.Cardinality)
		}
	case FieldCost:
		if op != nil {
			return qep.FormatNumShort(op.TotalCost)
		}
	case FieldIOCost:
		if op != nil {
			return qep.FormatNumShort(op.IOCost)
		}
	case FieldSelfCost:
		if op != nil {
			return qep.FormatNumShort(op.SelfCost())
		}
	}
	return notApplicable
}

// Helper functions usable as @ALIAS(FN) in recommendation templates.
const (
	FnInput     = "INPUT"     // columns flowing from the handler into its consumer
	FnPredicate = "PREDICATE" // columns referenced by the handler's predicates
	FnColumns   = "COLUMNS"   // the handler's own column list
)

// helper evaluates @ALIAS(FN), the alias resolved to column c.
func helper(m transform.Match, c int, fn string) string {
	plan, op, obj := m.Plan(), m.Operator(c), m.Object(c)
	var cols []string
	switch strings.ToUpper(fn) {
	case FnInput:
		switch {
		case obj != nil:
			cols = objectStreamColumns(plan, obj)
			if len(cols) == 0 {
				cols = obj.Columns
			}
		case op != nil:
			for _, in := range op.Inputs {
				cols = append(cols, in.Columns...)
			}
		}
	case FnPredicate:
		switch {
		case op != nil:
			cols = predicateColumns(op.Predicates)
		case obj != nil:
			if consumer := objectConsumer(plan, obj); consumer != nil {
				cols = predicateColumns(consumer.Predicates)
			}
		}
	case FnColumns:
		switch {
		case obj != nil:
			cols = obj.Columns
		case op != nil:
			cols = operatorOutputColumns(op)
		}
	}
	cols = dedupeColumns(cols)
	if len(cols) == 0 {
		return "(none)"
	}
	return strings.Join(cols, ", ")
}

// objectConsumer finds the operator reading the base object.
func objectConsumer(plan *qep.Plan, obj *qep.BaseObject) *qep.Operator {
	for _, op := range plan.Ops() {
		for _, in := range op.Inputs {
			if in.Obj == obj {
				return op
			}
		}
	}
	return nil
}

// objectStreamColumns returns the columns carried by the stream from obj to
// its consumer.
func objectStreamColumns(plan *qep.Plan, obj *qep.BaseObject) []string {
	for _, op := range plan.Ops() {
		for _, in := range op.Inputs {
			if in.Obj == obj {
				return in.Columns
			}
		}
	}
	return nil
}

// operatorOutputColumns returns the columns the operator sends to its parent.
func operatorOutputColumns(op *qep.Operator) []string {
	if op.Parent == nil {
		return nil
	}
	for _, in := range op.Parent.Inputs {
		if in.Op == op {
			return in.Columns
		}
	}
	return nil
}

// qualifiedColRe extracts "Q1.CUST_ID"-style qualified column references
// from predicate text.
var qualifiedColRe = regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*\.([A-Za-z_][A-Za-z0-9_]*)`)

// predicateColumns extracts the distinct column names referenced in
// predicate strings, preserving first-appearance order.
func predicateColumns(preds []string) []string {
	var out []string
	for _, p := range preds {
		for _, m := range qualifiedColRe.FindAllStringSubmatch(p, -1) {
			out = append(out, m[1])
		}
	}
	return dedupeColumns(out)
}

func dedupeColumns(cols []string) []string {
	seen := make(map[string]bool, len(cols))
	var out []string
	for _, c := range cols {
		c = strings.TrimSpace(c)
		// Strip correlation qualifiers like "Q1." if present.
		if i := strings.LastIndexByte(c, '.'); i >= 0 {
			c = c[i+1:]
		}
		if c == "" || seen[c] {
			continue
		}
		seen[c] = true
		out = append(out, c)
	}
	return out
}

// SortOccurrences orders the occurrences of one entry in one plan stably by
// their fingerprints — per column in alias order the alias, '=', the bound
// value and ';' — compared as strings, without spelling them. Recommend keeps
// the first MaxOccurrences of this order, so it decides what a report says.
func SortOccurrences(ms []transform.Match) {
	slices.SortStableFunc(ms, compareRows)
}

// compareRows compares the fingerprints of two rows of one column table. Up to
// the first column whose values differ they are equal; there the first
// differing byte decides, unless one value is a proper prefix of the other:
// then the shorter one's ';' meets the longer one's next byte, and the bytes
// after decide. So ".../pop/21" sorts before ".../pop/2".
func compareRows(a, b transform.Match) int {
	for k, c := range a.Cols.Sorted() {
		va, vb := a.Cells[c].Value, b.Cells[c].Value
		if va == vb {
			continue
		}
		n := min(len(va), len(vb))
		if va[:n] != vb[:n] {
			return strings.Compare(va[:n], vb[:n])
		}
		fa, fb := fingerprint{a, 4*k + 2, n}, fingerprint{b, 4*k + 2, n}
		for {
			if x, y := fa.next(), fb.next(); x != y || x < 0 {
				return cmp.Compare(x, y)
			}
		}
	}
	return 0
}

// fingerprint reads a row's fingerprint from byte off of piece i, where the
// pieces of the column at position k of the alias order are 4k (its alias),
// 4k+1 ("="), 4k+2 (its value) and 4k+3 (";").
type fingerprint struct {
	m      transform.Match
	i, off int
}

// next returns the next byte, or -1 past the end.
func (f *fingerprint) next() int {
	order := f.m.Cols.Sorted()
	for f.i < 4*len(order) {
		c := order[f.i/4]
		if piece := [4]string{f.m.Cols.Names()[c], "=", f.m.Cells[c].Value, ";"}[f.i%4]; f.off < len(piece) {
			f.off++
			return int(piece[f.off-1])
		}
		f.i, f.off = f.i+1, 0
	}
	return -1
}
