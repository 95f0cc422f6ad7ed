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

// A render writes one template tag for the resource bound to column c of a
// match: its display name, one of its fields or a helper's columns.
type render func(m transform.Match, c int) string

// notApplicable is what @ALIAS.FIELD renders when the bound resource has no
// such field (a cost on a base object). An ANY handler can bind an operator or
// a base object, so only the match knows which: expansion renders the gap, the
// way an empty helper renders "(none)", instead of failing the whole report.
const notApplicable = "(n/a)"

// fields are the accessors usable as @ALIAS.FIELD in recommendation
// templates, by name in upper case: a template may spell one in any case.
var fields = map[string]render{
	"NAME": field((*qep.Operator).DisplayName, func(o *qep.BaseObject) string { return o.Name }),
	"TYPE": field(func(op *qep.Operator) string { return op.Type }, func(o *qep.BaseObject) string { return o.Type }),
	"ID":   field(func(op *qep.Operator) string { return strconv.Itoa(op.ID) }, func(o *qep.BaseObject) string { return o.Name }),
	"CARD": field(func(op *qep.Operator) string { return qep.FormatNumShort(op.Cardinality) },
		func(o *qep.BaseObject) string { return qep.FormatNumShort(o.Cardinality) }),
	"COST":     field(func(op *qep.Operator) string { return qep.FormatNumShort(op.TotalCost) }, nil),
	"IOCOST":   field(func(op *qep.Operator) string { return qep.FormatNumShort(op.IOCost) }, nil),
	"SELFCOST": field(func(op *qep.Operator) string { return qep.FormatNumShort(op.SelfCost()) }, nil),
}

// field renders a field read from an operator or from a base object,
// whichever the column binds; a nil reader is a field that kind of resource
// does not have.
func field(ofOp func(*qep.Operator) string, ofObj func(*qep.BaseObject) string) render {
	return func(m transform.Match, c int) string {
		if op := m.Operator(c); op != nil && ofOp != nil {
			return ofOp(op)
		}
		if obj := m.Object(c); obj != nil && ofObj != nil {
			return ofObj(obj)
		}
		return notApplicable
	}
}

// helpers are the functions usable as @ALIAS(FN) in recommendation
// templates, by name in upper case.
var helpers = map[string]render{
	// The columns flowing from the handler into its consumer.
	"INPUT": columnList(func(plan *qep.Plan, op *qep.Operator, obj *qep.BaseObject) (cols []string) {
		if obj != nil {
			if _, in := objectInput(plan, obj); in != nil && len(in.Columns) > 0 {
				return in.Columns
			}
			return obj.Columns
		}
		for _, in := range op.Inputs {
			cols = append(cols, in.Columns...)
		}
		return cols
	}),
	// The columns referenced by the handler's predicates: a base object's are
	// its consumer's.
	"PREDICATE": columnList(func(plan *qep.Plan, op *qep.Operator, obj *qep.BaseObject) []string {
		if obj != nil {
			if op, _ = objectInput(plan, obj); op == nil {
				return nil
			}
		}
		return predicateColumns(op.Predicates)
	}),
	// The handler's own column list.
	"COLUMNS": columnList(func(_ *qep.Plan, op *qep.Operator, obj *qep.BaseObject) []string {
		if obj != nil {
			return obj.Columns
		}
		return operatorOutputColumns(op)
	}),
}

// columnList renders a helper's columns for an operator or a base object,
// whichever the column binds, comma-joined without duplicates, or "(none)".
func columnList(cols func(plan *qep.Plan, op *qep.Operator, obj *qep.BaseObject) []string) render {
	return func(m transform.Match, c int) string {
		var list []string
		if op, obj := m.Operator(c), m.Object(c); op != nil || obj != nil {
			list = dedupeColumns(cols(m.Plan(), op, obj))
		}
		if len(list) == 0 {
			return "(none)"
		}
		return strings.Join(list, ", ")
	}
}

// objectInput finds the operator reading the base object and the input it
// reads it through, or nil, nil.
func objectInput(plan *qep.Plan, obj *qep.BaseObject) (*qep.Operator, *qep.Input) {
	for _, op := range plan.Ops() {
		for i := range op.Inputs {
			if op.Inputs[i].Obj == obj {
				return op, &op.Inputs[i]
			}
		}
	}
	return nil, nil
}

// operatorOutputColumns returns the columns the operator sends to its first
// consumer.
func operatorOutputColumns(op *qep.Operator) []string {
	if len(op.Parents) == 0 {
		return nil
	}
	for _, in := range op.Parents[0].Inputs {
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
