package transform

import (
	"slices"
	"strings"
	"unicode"

	"optimatch/internal/qep"
	"optimatch/internal/rdf"
)

// Columns is the column table of one parsed query's result, built once per
// parse and shared by every row: the projected names, their case-folded forms
// and the columns in ascending name order.
type Columns struct {
	names, folded []string
	sorted        []int
}

// NewColumns builds the column table of a query projecting names, in order.
func NewColumns(names []string) *Columns {
	c := &Columns{names: names, folded: make([]string, len(names)), sorted: make([]int, len(names))}
	for i, name := range names {
		c.folded[i], c.sorted[i] = fold(name), i
	}
	slices.SortStableFunc(c.sorted, func(a, b int) int { return strings.Compare(names[a], names[b]) })
	return c
}

// fold maps every rune to the least rune of its case-folding orbit: two names
// fold alike exactly when strings.EqualFold holds between them.
func fold(s string) string {
	return strings.Map(func(r rune) rune {
		least := r
		for f := unicode.SimpleFold(r); f != r; f = unicode.SimpleFold(f) {
			least = min(least, f)
		}
		return least
	}, s)
}

// Names returns the projected names in column order; do not modify.
func (c *Columns) Names() []string { return c.names }

// Sorted returns the column numbers in ascending name order; do not modify.
func (c *Columns) Sorted() []int { return c.sorted }

// Index returns the first column spelled name, else the first whose name
// equals it case-insensitively, else -1.
func (c *Columns) Index(name string) int {
	if i := slices.Index(c.names, name); i >= 0 {
		return i
	}
	return slices.Index(c.folded, fold(name))
}

// Match is one row of a query's result over one plan — search, raw SPARQL and
// knowledge-base occurrences alike: the plan's Result, the query's columns and
// the row's cells, which the result already holds. A column de-transforms back
// to a plan entity when asked (Algorithm 3, line 6).
type Match struct {
	Result *Result
	Cols   *Columns
	Cells  []rdf.Term
}

// AppendMatches appends the rows of a result over r to dst as matches.
func AppendMatches(dst []Match, r *Result, cols *Columns, rows [][]rdf.Term) []Match {
	for _, cells := range rows {
		dst = append(dst, Match{Result: r, Cols: cols, Cells: cells})
	}
	return dst
}

// Plan returns the plan the row matched in.
func (m Match) Plan() *qep.Plan { return m.Result.Plan }

// Column returns the column bound to alias (Columns.Index), or -1.
func (m Match) Column(alias string) int { return m.Cols.Index(alias) }

// Term returns the term in column c, or the zero Term (no such column, unbound).
func (m Match) Term(c int) rdf.Term {
	if c < 0 || c >= len(m.Cells) {
		return rdf.Term{}
	}
	return m.Cells[c]
}

// Operator returns the plan operator in column c, or nil.
func (m Match) Operator(c int) *qep.Operator { return m.Result.Operator(m.Term(c)) }

// Object returns the base object in column c, or nil.
func (m Match) Object(c int) *qep.BaseObject { return m.Result.Object(m.Term(c)) }

// Display renders column c as a user sees it in the plan: "NLJOIN(2)",
// "CUST_DIM", or the raw term.
func (m Match) Display(c int) string { return m.Result.Describe(m.Term(c)) }

// AppendDisplay appends column c as Display renders it.
func (m Match) AppendDisplay(dst []byte, c int) []byte {
	return m.Result.appendDescribe(dst, m.Term(c))
}

// String renders the match compactly: "Q2: TOP=NLJOIN(2) ANY2=FETCH(3) ...".
func (m Match) String() string {
	var b strings.Builder
	b.WriteString(m.Result.Plan.ID + ":")
	for c, name := range m.Cols.names {
		b.WriteString(" " + name + "=" + m.Display(c))
	}
	return b.String()
}
