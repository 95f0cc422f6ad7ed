package sparql

import (
	"fmt"
	"strings"

	"optimatch/internal/rdf"
)

// String prints q as SPARQL text that Parse reads back to q, memoised
// analysis and prefix table aside: IRIs in full, blank nodes as _:label (and
// [] as []), the fewest parentheses the grammar needs, and every literal in a
// form that lexes to the same term. The text is a function of the AST alone,
// so two spellings of one query — prefixed names or full IRIs, keyword case,
// whitespace, comments, $x or ?x — print alike.
func (q *Query) String() string {
	var w printer
	w.query(q)
	return w.String()
}

// printer writes SPARQL text. It is the one place that does: Query.String,
// Explain's pattern and filter lines and the closure memo's path key all
// print through it.
type printer struct {
	strings.Builder
	depth int // group nesting, for indentation
}

// printed returns what f writes on a fresh printer.
func printed(f func(w *printer)) string {
	var w printer
	f(&w)
	return w.String()
}

func pathString(p Path) string { return printed(func(w *printer) { w.path(p, pathAlt) }) }

func (w *printer) query(q *Query) {
	w.WriteString("SELECT ")
	if q.Distinct {
		w.WriteString("DISTINCT ")
	}
	if q.Star {
		w.WriteString("*")
	}
	for i, it := range q.Select {
		if i > 0 {
			w.WriteByte(' ')
		}
		if v, ok := it.Expr.(VarExpr); ok && v.Name == it.Alias {
			w.variable(v.Name)
			continue
		}
		w.WriteByte('(')
		w.expr(it.Expr, precOr)
		w.WriteString(" AS ")
		w.variable(it.Alias)
		w.WriteByte(')')
	}
	w.WriteString(" WHERE ")
	w.group(q.Where)
	if len(q.GroupBy) > 0 {
		w.WriteString("\nGROUP BY")
		for _, v := range q.GroupBy {
			w.WriteByte(' ')
			w.variable(v)
		}
	}
	if q.Having != nil {
		w.WriteString("\nHAVING(")
		w.expr(q.Having, precOr)
		w.WriteByte(')')
	}
	if len(q.OrderBy) > 0 {
		w.WriteString("\nORDER BY")
		for _, k := range q.OrderBy {
			w.WriteByte(' ')
			if v, ok := k.Expr.(VarExpr); ok && !k.Desc {
				w.variable(v.Name)
				continue
			}
			if k.Desc {
				w.WriteString("DESC(")
			} else {
				w.WriteString("ASC(")
			}
			w.expr(k.Expr, precOr)
			w.WriteByte(')')
		}
	}
	if q.Limit >= 0 {
		fmt.Fprintf(w, "\nLIMIT %d", q.Limit)
	}
	if q.Offset != 0 {
		fmt.Fprintf(w, "\nOFFSET %d", q.Offset)
	}
	w.WriteByte('\n')
}

func (w *printer) newline() {
	w.WriteByte('\n')
	for i := 0; i < w.depth; i++ {
		w.WriteString("  ")
	}
}

// group prints one element per line. Consecutive triple patterns of one
// subject share it through ';': that is how the parser reads a [] subject
// into more than one pattern, and for any other subject it changes nothing.
func (w *printer) group(g *GroupPattern) {
	w.WriteByte('{')
	w.depth++
	for i := 0; i < len(g.Elems); i++ {
		w.newline()
		switch el := g.Elems[i].(type) {
		case TriplePattern:
			w.node(el.S)
			for {
				w.WriteByte(' ')
				w.path(el.P, pathAlt)
				w.WriteByte(' ')
				w.node(el.O)
				next, ok := nextTriple(g.Elems, i)
				if !ok || next.S != el.S {
					break
				}
				i, el = i+1, next
				w.WriteString(" ;")
				w.newline()
				w.WriteByte(' ')
			}
			w.WriteString(" .")
		case FilterElem:
			w.filter(el.Expr)
		case OptionalElem:
			w.WriteString("OPTIONAL ")
			w.group(el.Group)
		case UnionElem:
			for j, b := range el.Branches {
				if j > 0 {
					w.WriteString(" UNION ")
				}
				w.group(b)
			}
		case GroupElem:
			w.group(el.Group)
		case BindElem:
			w.bind(el)
		case FilterExistsElem:
			w.WriteString(existsLabel(el.Not) + " ")
			w.group(el.Group)
		}
	}
	w.depth--
	if len(g.Elems) > 0 {
		w.newline()
	}
	w.WriteByte('}')
}

func nextTriple(elems []PatternElem, i int) (TriplePattern, bool) {
	if i+1 >= len(elems) {
		return TriplePattern{}, false
	}
	tp, ok := elems[i+1].(TriplePattern)
	return tp, ok
}

func (w *printer) filter(e Expression) {
	w.WriteString("FILTER(")
	w.expr(e, precOr)
	w.WriteByte(')')
}

func (w *printer) bind(b BindElem) {
	w.WriteString("BIND(")
	w.expr(b.Expr, precOr)
	w.WriteString(" AS ")
	w.variable(b.Var)
	w.WriteByte(')')
}

func (w *printer) node(n NodeRef) {
	if n.IsVar() {
		w.variable(n.Var)
	} else {
		w.term(n.Term)
	}
}

// variable prints a variable the way the query wrote it: the parser names a
// blank node _:b as blankVarPrefix+"b" and each [] anonVarPrefix+"n".
func (w *printer) variable(name string) {
	switch {
	case strings.HasPrefix(name, blankVarPrefix):
		w.WriteString("_:" + name[len(blankVarPrefix):])
	case strings.HasPrefix(name, anonVarPrefix):
		w.WriteString("[]")
	default:
		w.WriteString("?" + name)
	}
}

// term prints an IRI as <iri> and a literal as "lex" or "lex"^^<datatype>,
// except a number whose lexical form the lexer reads as one number token of
// the same datatype: that one is printed bare.
func (w *printer) term(t rdf.Term) {
	switch {
	case t.IsIRI():
		w.WriteString("<" + t.Value + ">")
	case t.IsLiteral() && bareNumber(t):
		w.WriteString(t.Value)
	case t.IsLiteral():
		w.WriteByte('"')
		for i := 0; i < len(t.Value); i++ {
			switch c := t.Value[i]; c {
			case '"', '\\':
				w.WriteByte('\\')
				w.WriteByte(c)
			case '\n':
				w.WriteString(`\n`)
			case '\r':
				w.WriteString(`\r`)
			case '\t':
				w.WriteString(`\t`)
			default:
				w.WriteByte(c)
			}
		}
		w.WriteByte('"')
		if t.Datatype != "" {
			w.WriteString("^^<" + t.Datatype + ">")
		}
	default:
		w.WriteString(t.String())
	}
}

func bareNumber(t rdf.Term) bool {
	s := t.Value
	return (t.Datatype == rdf.XSDInteger || t.Datatype == rdf.XSDDouble) &&
		s != "" && s[0] >= '0' && s[0] <= '9' && numberEnd(s, 0) == len(s) &&
		numberTerm(s).Datatype == t.Datatype
}

// Path precedence, loosest first: the parser's parsePathAlt, parsePathSeq,
// parsePathEltOrInverse and parsePathElt levels.
const (
	pathAlt = iota
	pathSeq
	pathInv
	pathMod
	pathPrimary
)

func pathPrec(p Path) int {
	switch p.(type) {
	case AltPath:
		return pathAlt
	case SeqPath:
		return pathSeq
	case InvPath:
		return pathInv
	case ModPath:
		return pathMod
	}
	return pathPrimary
}

// path prints p, parenthesised when it binds looser than min. The operands of
// '|' and '/' print one level tighter, so a nested Alt or Seq keeps its own
// node; '^' takes an element (a modified primary), a modifier a primary.
func (w *printer) path(p Path, min int) {
	if pathPrec(p) < min {
		w.WriteByte('(')
		w.path(p, pathAlt)
		w.WriteByte(')')
		return
	}
	switch p := p.(type) {
	case PredPath:
		w.WriteString("<" + p.IRI + ">")
	case predVarPath:
		w.variable(p.name)
	case InvPath:
		w.WriteByte('^')
		w.path(p.Inner, pathMod)
	case ModPath:
		w.path(p.Inner, pathPrimary)
		w.WriteByte(p.Mod)
	case SeqPath:
		for i, sub := range p.Parts {
			if i > 0 {
				w.WriteByte('/')
			}
			w.path(sub, pathInv)
		}
	case AltPath:
		for i, sub := range p.Alts {
			if i > 0 {
				w.WriteByte('|')
			}
			w.path(sub, pathSeq)
		}
	default:
		panic(fmt.Sprintf("sparql: cannot print path %T", p))
	}
}

// Expression precedence, loosest first: the parser's precedence-climbing
// levels.
const (
	precOr = iota
	precAnd
	precCmp
	precAdd
	precMul
	precUnary
	precPrimary
)

func exprPrec(e Expression) int {
	switch e := e.(type) {
	case OrExpr:
		return precOr
	case AndExpr:
		return precAnd
	case CmpExpr:
		return precCmp
	case ArithExpr:
		if e.Op == '+' || e.Op == '-' {
			return precAdd
		}
		return precMul
	case NotExpr, NegExpr:
		return precUnary
	}
	return precPrimary
}

var cmpOps = [...]string{OpEq: " = ", OpNeq: " != ", OpLt: " < ", OpGt: " > ", OpLe: " <= ", OpGe: " >= "}

// expr prints e, parenthesised when it binds looser than min. Binary
// operators associate left, so a right operand prints one level tighter; a
// comparison does not chain, so both of its operands do.
func (w *printer) expr(e Expression, min int) {
	prec := exprPrec(e)
	if prec < min {
		w.WriteByte('(')
		w.expr(e, precOr)
		w.WriteByte(')')
		return
	}
	binary := func(l Expression, op string, r Expression, lmin int) {
		w.expr(l, lmin)
		w.WriteString(op)
		w.expr(r, prec+1)
	}
	switch e := e.(type) {
	case VarExpr:
		w.variable(e.Name)
	case LitExpr:
		w.term(e.Term)
	case NotExpr:
		w.WriteByte('!')
		w.expr(e.Inner, precUnary)
	case NegExpr:
		w.WriteByte('-')
		w.expr(e.Inner, precUnary)
	case OrExpr:
		binary(e.L, " || ", e.R, prec)
	case AndExpr:
		binary(e.L, " && ", e.R, prec)
	case CmpExpr:
		binary(e.L, cmpOps[e.Op], e.R, prec+1)
	case ArithExpr:
		binary(e.L, " "+string(e.Op)+" ", e.R, prec)
	case CallExpr:
		w.WriteString(e.Name + "(")
		for i, a := range e.Args {
			if i > 0 {
				w.WriteString(", ")
			}
			w.expr(a, precOr)
		}
		w.WriteByte(')')
	case AggExpr:
		w.WriteString(e.Fn + "(")
		if e.Distinct {
			w.WriteString("DISTINCT ")
		}
		if e.Star {
			w.WriteByte('*')
		} else {
			w.expr(e.Arg, precOr)
		}
		w.WriteByte(')')
	default:
		panic(fmt.Sprintf("sparql: cannot print expression %T", e))
	}
}
