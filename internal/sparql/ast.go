// Package sparql implements the subset of the SPARQL query language that
// OptImatch autogenerates from problem patterns, plus generous margins for
// hand-written queries: basic graph patterns, FILTER expressions with the
// standard operator and builtin set, property paths, OPTIONAL, UNION,
// SELECT with aliases and expressions, DISTINCT, ORDER BY, LIMIT and OFFSET.
//
// Queries are parsed into an AST (Query), compiled lightly (BGP join-order
// heuristics run at evaluation time against the target graph's statistics),
// and evaluated against an rdf.Graph.
package sparql

import (
	"optimatch/internal/rdf"
)

// Query is a parsed SELECT query.
type Query struct {
	Prefixes map[string]string
	Distinct bool
	Star     bool // SELECT *
	Select   []SelectItem
	Where    *GroupPattern
	GroupBy  []string   // GROUP BY variables
	Having   Expression // HAVING constraint (nil when absent)
	OrderBy  []OrderKey
	Limit    int // -1 when absent
	Offset   int // 0 when absent

	// analysis memoizes the static query analysis (see Analysis). Parse
	// fills it in so parsed queries can be shared across goroutines.
	analysis *Analysis
}

// SelectItem is one projection: an expression (usually a plain variable)
// with an optional alias.
type SelectItem struct {
	Expr  Expression
	Alias string // result column name; defaults to the variable name
}

// OrderKey is one ORDER BY key.
type OrderKey struct {
	Expr Expression
	Desc bool
}

// GroupPattern is a `{ ... }` group: an ordered list of pattern elements.
type GroupPattern struct {
	Elems []PatternElem
}

// PatternElem is one element inside a group pattern.
type PatternElem interface{ patternElem() }

// TriplePattern matches one triple; the predicate position is a property
// path (a single IRI in the common case).
type TriplePattern struct {
	S NodeRef
	P Path
	O NodeRef
}

// FilterElem is a FILTER constraint.
type FilterElem struct {
	Expr Expression
}

// OptionalElem is an OPTIONAL { ... } group.
type OptionalElem struct {
	Group *GroupPattern
}

// UnionElem is `{A} UNION {B} [UNION {C} ...]`.
type UnionElem struct {
	Branches []*GroupPattern
}

// GroupElem is a nested plain group `{ ... }`.
type GroupElem struct {
	Group *GroupPattern
}

// BindElem is `BIND(expr AS ?var)`.
type BindElem struct {
	Expr Expression
	Var  string
}

// FilterExistsElem is `FILTER EXISTS { ... }` / `FILTER NOT EXISTS { ... }`:
// a solution survives when the inner group has (respectively has no)
// matches under the solution's bindings.
type FilterExistsElem struct {
	Not   bool
	Group *GroupPattern
}

func (TriplePattern) patternElem()    {}
func (FilterElem) patternElem()       {}
func (OptionalElem) patternElem()     {}
func (UnionElem) patternElem()        {}
func (GroupElem) patternElem()        {}
func (BindElem) patternElem()         {}
func (FilterExistsElem) patternElem() {}

// NodeRef is a subject or object position: either a variable or a concrete
// RDF term.
type NodeRef struct {
	Var  string   // non-empty when a variable
	Term rdf.Term // valid when Var == ""
}

// IsVar reports whether the node is a variable reference.
func (n NodeRef) IsVar() bool { return n.Var != "" }

// VarRef returns a variable node.
func VarRef(name string) NodeRef { return NodeRef{Var: name} }

// TermRef returns a concrete-term node.
func TermRef(t rdf.Term) NodeRef { return NodeRef{Term: t} }

// Path is a property path expression in the predicate position.
type Path interface{ pathNode() }

// PredPath is a single predicate IRI, the common case.
type PredPath struct {
	IRI string
}

// InvPath is `^path` (inverse).
type InvPath struct {
	Inner Path
}

// SeqPath is `a/b/...`.
type SeqPath struct {
	Parts []Path
}

// AltPath is `a|b|...`.
type AltPath struct {
	Alts []Path
}

// Path modifiers.
const (
	ModOneOrMore  = '+'
	ModZeroOrMore = '*'
	ModZeroOrOne  = '?'
)

// ModPath is `path+`, `path*` or `path?`.
type ModPath struct {
	Inner Path
	Mod   byte
}

func (PredPath) pathNode() {}
func (InvPath) pathNode()  {}
func (SeqPath) pathNode()  {}
func (AltPath) pathNode()  {}
func (ModPath) pathNode()  {}

// Vars returns the distinct variable names mentioned anywhere in the group,
// in first-appearance order, except those only a BIND expression reads: the
// group never binds them, so SELECT * has no column for them.
func (g *GroupPattern) Vars() []string {
	var out []string
	seen := make(map[string]bool)
	g.eachVar(func(v string) {
		if v != "" && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	})
	return out
}

// eachVar calls fn on every variable Vars lists, in order and as often as it
// is mentioned, and on "" for a triple pattern's constant.
func (g *GroupPattern) eachVar(fn func(v string)) {
	for _, el := range g.Elems {
		switch el := el.(type) {
		case TriplePattern:
			fn(el.S.Var)
			if pv, ok := el.P.(predVarPath); ok {
				fn(pv.name)
			}
			fn(el.O.Var)
		case FilterElem:
			walkExpr(el.Expr, func(sub Expression) {
				if v, ok := sub.(VarExpr); ok {
					fn(v.Name)
				}
			})
		case OptionalElem:
			el.Group.eachVar(fn)
		case UnionElem:
			for _, b := range el.Branches {
				b.eachVar(fn)
			}
		case GroupElem:
			el.Group.eachVar(fn)
		case BindElem:
			fn(el.Var)
		case FilterExistsElem:
			el.Group.eachVar(fn)
		}
	}
}
