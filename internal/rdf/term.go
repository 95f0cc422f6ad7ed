// Package rdf implements the RDF data model and an in-memory,
// dictionary-encoded triple store used by OptImatch to represent query
// execution plans as labeled directed graphs.
//
// A triple is (subject, predicate, object); subjects and predicates are IRIs
// or blank nodes, objects may additionally be literals. A Builder writes a
// graph's triples in insertion order; Builder.Graph builds over them one
// immutable index of two sorted permutations (SPO and POS) and returns the
// read-only Graph, on which every triple pattern with a bound predicate, or
// with only its subject bound, is answered by an offset read and at most two
// short binary searches, in an order fixed by the insertion sequence. A
// pattern whose object is bound and predicate free filters the subject's
// bucket, or probes POS once per predicate in use.
package rdf

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind discriminates the three RDF term kinds.
type Kind uint8

// Term kinds.
const (
	IRIKind Kind = iota + 1
	BlankKind
	LiteralKind
)

// Common XSD datatype IRIs used by the transformer and the SPARQL evaluator.
const (
	XSDString  = "http://www.w3.org/2001/XMLSchema#string"
	XSDDouble  = "http://www.w3.org/2001/XMLSchema#double"
	XSDInteger = "http://www.w3.org/2001/XMLSchema#integer"
	XSDBoolean = "http://www.w3.org/2001/XMLSchema#boolean"
)

// Term is an RDF term: an IRI, a blank node, or a literal. The zero Term is
// invalid and reports Kind 0; use the constructors below.
//
// Terms are small value types and are compared with ==. For literals the
// comparison is syntactic (same lexical form and datatype); the SPARQL
// evaluator performs value-based comparison where the spec requires it.
type Term struct {
	Kind     Kind
	Value    string // IRI text, blank node label, or literal lexical form
	Datatype string // literal datatype IRI; empty means xsd:string
}

// IRI returns an IRI term.
func IRI(iri string) Term { return Term{Kind: IRIKind, Value: iri} }

// Blank returns a blank node term with the given label (without the "_:"
// prefix).
func Blank(label string) Term { return Term{Kind: BlankKind, Value: label} }

// String returns a plain string literal.
func String(s string) Term { return Term{Kind: LiteralKind, Value: s} }

// Float returns an xsd:double literal. The lexical form uses the shortest
// representation that round-trips.
func Float(f float64) Term {
	return Term{Kind: LiteralKind, Value: strconv.FormatFloat(f, 'g', -1, 64), Datatype: XSDDouble}
}

// Int returns an xsd:integer literal.
func Int(i int64) Term {
	return Term{Kind: LiteralKind, Value: strconv.FormatInt(i, 10), Datatype: XSDInteger}
}

// Bool returns an xsd:boolean literal.
func Bool(b bool) Term {
	return Term{Kind: LiteralKind, Value: strconv.FormatBool(b), Datatype: XSDBoolean}
}

// TypedLiteral returns a literal with an explicit datatype IRI.
func TypedLiteral(lex, datatype string) Term {
	return Term{Kind: LiteralKind, Value: lex, Datatype: datatype}
}

// IsIRI reports whether the term is an IRI.
func (t Term) IsIRI() bool { return t.Kind == IRIKind }

// IsBlank reports whether the term is a blank node.
func (t Term) IsBlank() bool { return t.Kind == BlankKind }

// IsLiteral reports whether the term is a literal.
func (t Term) IsLiteral() bool { return t.Kind == LiteralKind }

// Zero reports whether the term is the invalid zero value.
func (t Term) Zero() bool { return t.Kind == 0 }

// Float reports the numeric value of a literal term. It accepts any lexical
// form Go's strconv understands, which covers both the decimal ("15771.0")
// and exponent ("1.0E+07") renderings found in explain files. The second
// return value is false when the term is not a literal or not numeric.
func (t Term) Float() (float64, bool) {
	if t.Kind != LiteralKind {
		return 0, false
	}
	s := strings.TrimSpace(t.Value)
	if !numericStart(s) {
		return 0, false
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, false
	}
	return f, true
}

// numericStart reports whether s begins the way a number in
// strconv.ParseFloat's syntax can: with a sign, a digit or a point, or with
// the first letter of "inf", "infinity" or "nan" in a string of their length.
// ParseFloat allocates the error it returns, and most literals of a plan graph
// are operator names, column lists and predicate texts: they are refused here
// for one byte's look.
func numericStart(s string) bool {
	if s == "" {
		return false
	}
	switch c := s[0]; {
	case '0' <= c && c <= '9', c == '.', c == '+', c == '-':
		return true
	case c|0x20 == 'i', c|0x20 == 'n':
		return len(s) == 3 || len(s) == 8
	}
	return false
}

// Bool reports the boolean value of an xsd:boolean literal.
func (t Term) Bool() (bool, bool) {
	if t.Kind != LiteralKind {
		return false, false
	}
	switch t.Value {
	case "true", "1":
		return true, true
	case "false", "0":
		return false, true
	}
	return false, false
}

// IsNumeric reports whether the literal parses as a number.
func (t Term) IsNumeric() bool {
	_, ok := t.Float()
	return ok
}

// String renders the term in N-Triples syntax: <iri>, _:label, or
// "lexical"^^<datatype>.
func (t Term) String() string { return string(appendTerm(nil, t)) }

// Compare orders terms: IRIs before blanks before literals; within a kind,
// lexicographically by value (numeric literals compare by value when both
// sides are numeric). It returns -1, 0 or +1.
func (t Term) Compare(o Term) int {
	if t.Kind != o.Kind {
		if t.Kind < o.Kind {
			return -1
		}
		return 1
	}
	if t.Kind == LiteralKind {
		if a, ok := t.Float(); ok {
			if b, ok2 := o.Float(); ok2 {
				switch {
				case a < b:
					return -1
				case a > b:
					return 1
				default:
					return 0
				}
			}
		}
	}
	return strings.Compare(t.Value, o.Value)
}

// Triple is a single RDF statement.
type Triple struct {
	S, P, O Term
}

// String renders the triple as one N-Triples line (without the newline).
func (t Triple) String() string {
	return fmt.Sprintf("%s %s %s .", t.S, t.P, t.O)
}
