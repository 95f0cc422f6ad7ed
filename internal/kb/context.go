// Package kb implements the OptImatch knowledge base (paper Section 2.3):
// a library of expert problem patterns with recommendation templates written
// in the handler tagging language, automatic context adaptation of those
// templates to the user's query execution plans, and statistical-correlation
// ranking of the resulting recommendations with confidence scores
// (Algorithms 4 and 5).
package kb

import (
	"fmt"
	"regexp"
	"sort"
	"strings"

	"optimatch/internal/qep"
	"optimatch/internal/rdf"
	"optimatch/internal/transform"
)

// Occurrence is one match of a knowledge-base pattern in one plan: the
// bindings of the pattern's result handlers (by tagging alias) plus the
// de-transformation context.
type Occurrence struct {
	Plan     *qep.Plan
	Result   *transform.Result
	Bindings map[string]rdf.Term // alias -> matched resource
}

// Binding returns the resource bound to alias (case-insensitive).
func (o *Occurrence) Binding(alias string) (rdf.Term, bool) {
	if t, ok := o.Bindings[alias]; ok {
		return t, true
	}
	for k, t := range o.Bindings {
		if strings.EqualFold(k, alias) {
			return t, true
		}
	}
	return rdf.Term{}, false
}

// Display renders the alias binding the way a user sees it in the plan
// ("NLJOIN(2)", "CUST_DIM").
func (o *Occurrence) Display(alias string) (string, error) {
	t, ok := o.Binding(alias)
	if !ok {
		return "", fmt.Errorf("kb: handler @%s is not bound in this occurrence", alias)
	}
	return o.Result.Describe(t), nil
}

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

// Field evaluates @ALIAS.FIELD.
func (o *Occurrence) Field(alias, field string) (string, error) {
	t, ok := o.Binding(alias)
	if !ok {
		return "", fmt.Errorf("kb: handler @%s is not bound in this occurrence", alias)
	}
	op := o.Result.Operator(t)
	obj := o.Result.Object(t)
	switch strings.ToUpper(field) {
	case FieldName:
		if obj != nil {
			return obj.Name, nil
		}
		if op != nil {
			return op.DisplayName(), nil
		}
	case FieldType:
		if obj != nil {
			return obj.Type, nil
		}
		if op != nil {
			return op.Type, nil
		}
	case FieldID:
		if op != nil {
			return fmt.Sprintf("%d", op.ID), nil
		}
		if obj != nil {
			return obj.Name, nil
		}
	case FieldCard:
		if op != nil {
			return qep.FormatNumShort(op.Cardinality), nil
		}
		if obj != nil {
			return qep.FormatNumShort(obj.Cardinality), nil
		}
	case FieldCost:
		if op != nil {
			return qep.FormatNumShort(op.TotalCost), nil
		}
	case FieldIOCost:
		if op != nil {
			return qep.FormatNumShort(op.IOCost), nil
		}
	case FieldSelfCost:
		if op != nil {
			return qep.FormatNumShort(op.SelfCost()), nil
		}
	default:
		return "", fmt.Errorf("kb: unknown field %q in @%s.%s", field, alias, field)
	}
	return notApplicable, nil
}

// Helper functions usable as @ALIAS(FN) in recommendation templates.
const (
	FnInput     = "INPUT"     // columns flowing from the handler into its consumer
	FnPredicate = "PREDICATE" // columns referenced by the handler's predicates
	FnColumns   = "COLUMNS"   // the handler's own column list
)

// Fn evaluates @ALIAS(FN).
func (o *Occurrence) Fn(alias, fn string) (string, error) {
	t, ok := o.Binding(alias)
	if !ok {
		return "", fmt.Errorf("kb: handler @%s is not bound in this occurrence", alias)
	}
	op := o.Result.Operator(t)
	obj := o.Result.Object(t)
	var cols []string
	switch strings.ToUpper(fn) {
	case FnInput:
		switch {
		case obj != nil:
			cols = o.objectStreamColumns(obj)
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
			if consumer := o.objectConsumer(obj); consumer != nil {
				cols = predicateColumns(consumer.Predicates)
			}
		}
	case FnColumns:
		switch {
		case obj != nil:
			cols = obj.Columns
		case op != nil:
			cols = o.operatorOutputColumns(op)
		}
	default:
		return "", fmt.Errorf("kb: unknown helper function %q in @%s(%s)", fn, alias, fn)
	}
	cols = dedupeColumns(cols)
	if len(cols) == 0 {
		return "(none)", nil
	}
	return strings.Join(cols, ", "), nil
}

// objectConsumer finds the operator reading the base object.
func (o *Occurrence) objectConsumer(obj *qep.BaseObject) *qep.Operator {
	for _, op := range o.Plan.Ops() {
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
func (o *Occurrence) objectStreamColumns(obj *qep.BaseObject) []string {
	for _, op := range o.Plan.Ops() {
		for _, in := range op.Inputs {
			if in.Obj == obj {
				return in.Columns
			}
		}
	}
	return nil
}

// operatorOutputColumns returns the columns the operator sends to its parent.
func (o *Occurrence) operatorOutputColumns(op *qep.Operator) []string {
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

// SortOccurrences orders occurrences deterministically by their binding
// fingerprint, so reports are stable across runs. Each fingerprint is built
// once, and moves with its occurrence.
func SortOccurrences(occs []Occurrence) {
	if len(occs) < 2 {
		return
	}
	keys := make([]string, len(occs))
	for i := range occs {
		keys[i] = occurrenceKey(occs[i])
	}
	sort.Stable(byFingerprint{keys, occs})
}

type byFingerprint struct {
	keys []string
	occs []Occurrence
}

func (b byFingerprint) Len() int           { return len(b.keys) }
func (b byFingerprint) Less(i, j int) bool { return b.keys[i] < b.keys[j] }
func (b byFingerprint) Swap(i, j int) {
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
	b.occs[i], b.occs[j] = b.occs[j], b.occs[i]
}

func occurrenceKey(o Occurrence) string {
	keys := make([]string, 0, len(o.Bindings))
	for k := range o.Bindings {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(o.Bindings[k].Value)
		b.WriteByte(';')
	}
	return b.String()
}
