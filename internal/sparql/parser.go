package sparql

import (
	"fmt"
	"strconv"
	"strings"

	"optimatch/internal/rdf"
)

// RDFType is the IRI the keyword 'a' abbreviates in the predicate position.
const RDFType = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

// Parse parses a SELECT query.
func Parse(input string) (*Query, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	// The one place a query is refused for its shape rather than its text.
	if _, err := q.checkAggregation(); err != nil {
		return nil, err
	}
	// Pre-computed, so that the query is safe to share across goroutines.
	if q.analysis, err = analyzeQuery(q); err != nil {
		return nil, err
	}
	return q, nil
}

// maxDepth bounds how deep a query nests: groups (OPTIONAL, UNION branches
// and FILTER [NOT] EXISTS included), expressions (parentheses, unary
// operators, function arguments) and paths, on one count. The root group is
// at depth 1, and a predicate or an expression one level inside the group
// it is in. Every walk of the AST after the parser — the compiler's, which
// also checks the scope rules and collects the required constants, the
// printer's, evaluation — then costs at most maxDepth times the input.
const maxDepth = 64

// MaxQueryBytes is the longest query text a server should read: maxDepth
// bounds how deep a query nests, this how much there is of it.
const MaxQueryBytes = 64 << 10

type parser struct {
	toks      []token
	pos       int
	depth     int // the groups, unary expressions and path elements open
	prefixes  map[string]string
	blankSeq  int
	blankVars map[string]string // blank label -> internal var name
}

// enter opens one level of nesting, refusing the query past maxDepth; leave
// closes it.
func (p *parser) enter() error {
	if p.depth++; p.depth > maxDepth {
		return fmt.Errorf("sparql: query nests deeper than %d", maxDepth)
	}
	return nil
}

func (p *parser) leave() { p.depth-- }

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) at(k tokenKind) bool {
	return p.toks[p.pos].kind == k
}
func (p *parser) atKeyword(kw string) bool {
	t := p.toks[p.pos]
	return t.kind == tokKeyword && t.text == kw
}

func (p *parser) expect(k tokenKind, what string) (token, error) {
	t := p.peek()
	if t.kind != k {
		return token{}, p.errf("expected %s, found %q", what, t.text)
	}
	return p.next(), nil
}

func (p *parser) expectKeyword(kw string) error {
	if !p.atKeyword(kw) {
		return p.errf("expected %s, found %q", kw, p.peek().text)
	}
	p.next()
	return nil
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("sparql: parse error near offset %d: %s", p.peek().pos, fmt.Sprintf(format, args...))
}

func (p *parser) parseQuery() (*Query, error) {
	q := &Query{
		Prefixes: make(map[string]string),
		Limit:    -1,
	}
	p.prefixes = q.Prefixes
	p.blankVars = make(map[string]string)

	// Prologue.
	for p.atKeyword("PREFIX") {
		p.next()
		pn, err := p.expect(tokPName, "prefix name")
		if err != nil {
			return nil, err
		}
		if !strings.HasSuffix(pn.text, ":") {
			return nil, p.errf("PREFIX name must end with ':', found %q", pn.text)
		}
		iri, err := p.expect(tokIRI, "prefix IRI")
		if err != nil {
			return nil, err
		}
		q.Prefixes[strings.TrimSuffix(pn.text, ":")] = iri.text
	}

	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	if p.atKeyword("DISTINCT") {
		p.next()
		q.Distinct = true
	} else if p.atKeyword("REDUCED") {
		p.next()
	}

	// Projection.
	if p.at(tokStar) {
		p.next()
		q.Star = true
	} else {
		for {
			item, ok, err := p.parseSelectItem()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			q.Select = append(q.Select, item)
		}
		if len(q.Select) == 0 {
			return nil, p.errf("SELECT requires at least one projection or *")
		}
	}

	if p.atKeyword("WHERE") {
		p.next()
	}
	group, err := p.parseGroup()
	if err != nil {
		return nil, err
	}
	q.Where = group

	// Solution modifiers: GROUP BY, HAVING, ORDER BY, LIMIT/OFFSET.
	if p.atKeyword("GROUP") {
		p.next()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for p.at(tokVar) {
			q.GroupBy = append(q.GroupBy, p.next().text)
		}
		if len(q.GroupBy) == 0 {
			return nil, p.errf("GROUP BY requires at least one variable")
		}
	}
	if p.atKeyword("HAVING") {
		p.next()
		having, err := p.parseConstraint()
		if err != nil {
			return nil, err
		}
		q.Having = having
	}
	if p.atKeyword("ORDER") {
		p.next()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			key, ok, err := p.parseOrderKey()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			q.OrderBy = append(q.OrderBy, key)
		}
		if len(q.OrderBy) == 0 {
			return nil, p.errf("ORDER BY requires at least one key")
		}
	}
	for p.atKeyword("LIMIT") || p.atKeyword("OFFSET") {
		kw := p.next().text
		n, err := p.expect(tokNumber, "integer")
		if err != nil {
			return nil, err
		}
		v, err := strconv.Atoi(n.text)
		if err != nil {
			return nil, p.errf("bad %s value %q", kw, n.text)
		}
		if kw == "LIMIT" {
			q.Limit = v
		} else {
			q.Offset = v
		}
	}

	if !p.at(tokEOF) {
		return nil, p.errf("unexpected trailing input %q", p.peek().text)
	}
	return q, nil
}

// parseSelectItem parses `?v`, `?v AS ?alias` or `(expr AS ?alias)`.
// ok=false signals the end of the projection list.
func (p *parser) parseSelectItem() (SelectItem, bool, error) {
	switch {
	case p.at(tokVar):
		v := p.next().text
		item := SelectItem{Expr: VarExpr{Name: v}, Alias: v}
		if p.atKeyword("AS") {
			p.next()
			alias, err := p.expect(tokVar, "alias variable")
			if err != nil {
				return SelectItem{}, false, err
			}
			item.Alias = alias.text
		}
		return item, true, nil
	case p.at(tokLParen):
		p.next()
		expr, err := p.parseExpr()
		if err != nil {
			return SelectItem{}, false, err
		}
		if err := p.expectKeyword("AS"); err != nil {
			return SelectItem{}, false, err
		}
		alias, err := p.expect(tokVar, "alias variable")
		if err != nil {
			return SelectItem{}, false, err
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return SelectItem{}, false, err
		}
		return SelectItem{Expr: expr, Alias: alias.text}, true, nil
	default:
		return SelectItem{}, false, nil
	}
}

func (p *parser) parseOrderKey() (OrderKey, bool, error) {
	switch {
	case p.atKeyword("ASC"), p.atKeyword("DESC"):
		desc := p.next().text == "DESC"
		if _, err := p.expect(tokLParen, "("); err != nil {
			return OrderKey{}, false, err
		}
		expr, err := p.parseExpr()
		if err != nil {
			return OrderKey{}, false, err
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return OrderKey{}, false, err
		}
		return OrderKey{Expr: expr, Desc: desc}, true, nil
	case p.at(tokVar):
		return OrderKey{Expr: VarExpr{Name: p.next().text}}, true, nil
	default:
		return OrderKey{}, false, nil
	}
}

func (p *parser) parseGroup() (*GroupPattern, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	if _, err := p.expect(tokLBrace, "{"); err != nil {
		return nil, err
	}
	g := &GroupPattern{}
	for {
		switch {
		case p.at(tokRBrace):
			p.next()
			return g, nil
		case p.at(tokEOF):
			return nil, p.errf("unterminated group pattern")
		case p.atKeyword("FILTER"):
			p.next()
			if p.atKeyword("EXISTS") || p.atKeyword("NOT") {
				not := false
				if p.atKeyword("NOT") {
					p.next()
					not = true
				}
				if err := p.expectKeyword("EXISTS"); err != nil {
					return nil, err
				}
				sub, err := p.parseGroup()
				if err != nil {
					return nil, err
				}
				g.Elems = append(g.Elems, FilterExistsElem{Not: not, Group: sub})
				p.eatDot()
				continue
			}
			expr, err := p.parseConstraint()
			if err != nil {
				return nil, err
			}
			g.Elems = append(g.Elems, FilterElem{Expr: expr})
			p.eatDot()
		case p.atKeyword("OPTIONAL"):
			p.next()
			sub, err := p.parseGroup()
			if err != nil {
				return nil, err
			}
			g.Elems = append(g.Elems, OptionalElem{Group: sub})
			p.eatDot()
		case p.atKeyword("BIND"):
			p.next()
			if _, err := p.expect(tokLParen, "("); err != nil {
				return nil, err
			}
			expr, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("AS"); err != nil {
				return nil, err
			}
			v, err := p.expect(tokVar, "variable")
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokRParen, ")"); err != nil {
				return nil, err
			}
			g.Elems = append(g.Elems, BindElem{Expr: expr, Var: v.text})
			p.eatDot()
		case p.at(tokLBrace):
			first, err := p.parseGroup()
			if err != nil {
				return nil, err
			}
			branches := []*GroupPattern{first}
			for p.atKeyword("UNION") {
				p.next()
				b, err := p.parseGroup()
				if err != nil {
					return nil, err
				}
				branches = append(branches, b)
			}
			if len(branches) > 1 {
				g.Elems = append(g.Elems, UnionElem{Branches: branches})
			} else {
				g.Elems = append(g.Elems, GroupElem{Group: first})
			}
			p.eatDot()
		default:
			if err := p.parseTriplesSameSubject(g); err != nil {
				return nil, err
			}
			p.eatDot()
		}
	}
}

func (p *parser) eatDot() {
	for p.at(tokDot) {
		p.next()
	}
}

// parseTriplesSameSubject parses `subject predicateObjectList` with the `;`
// and `,` abbreviations, appending TriplePatterns to g.
func (p *parser) parseTriplesSameSubject(g *GroupPattern) error {
	subj, err := p.parseNodeRef("subject")
	if err != nil {
		return err
	}
	for {
		// A variable is a whole predicate, never a part of a path.
		var path Path
		if p.at(tokVar) {
			path = predVarPath{name: p.next().text}
		} else if path, err = p.parsePath(); err != nil {
			return err
		}
		for {
			obj, err := p.parseNodeRef("object")
			if err != nil {
				return err
			}
			g.Elems = append(g.Elems, TriplePattern{S: subj, P: path, O: obj})
			if p.at(tokComma) {
				p.next()
				continue
			}
			break
		}
		if p.at(tokSemicolon) {
			p.next()
			// A dangling semicolon before '.' or '}' is permitted.
			if p.at(tokDot) || p.at(tokRBrace) {
				return nil
			}
			continue
		}
		return nil
	}
}

// parseNodeRef parses a variable, IRI, prefixed name, literal, blank node or
// `[]` in a subject/object position.
func (p *parser) parseNodeRef(what string) (NodeRef, error) {
	t := p.peek()
	switch t.kind {
	case tokVar:
		p.next()
		return VarRef(t.text), nil
	case tokIRI:
		p.next()
		return TermRef(rdf.IRI(t.text)), nil
	case tokPName:
		p.next()
		iri, err := p.expandPName(t.text)
		if err != nil {
			return NodeRef{}, err
		}
		return TermRef(rdf.IRI(iri)), nil
	case tokBlank:
		p.next()
		return VarRef(p.blankVar(t.text)), nil
	case tokLBracket:
		p.next()
		if _, err := p.expect(tokRBracket, "]"); err != nil {
			return NodeRef{}, err
		}
		p.blankSeq++
		return VarRef(fmt.Sprintf("%s%d", anonVarPrefix, p.blankSeq)), nil
	case tokString:
		p.next()
		lit := rdf.String(t.text)
		if p.at(tokHatHat) {
			p.next()
			dt := p.peek()
			switch dt.kind {
			case tokIRI:
				p.next()
				lit = rdf.TypedLiteral(t.text, dt.text)
			case tokPName:
				p.next()
				iri, err := p.expandPName(dt.text)
				if err != nil {
					return NodeRef{}, err
				}
				lit = rdf.TypedLiteral(t.text, iri)
			default:
				return NodeRef{}, p.errf("expected datatype IRI after ^^")
			}
		}
		return TermRef(lit), nil
	case tokNumber:
		p.next()
		return TermRef(numberTerm(t.text)), nil
	case tokMinus:
		p.next()
		n, err := p.expect(tokNumber, "number")
		if err != nil {
			return NodeRef{}, err
		}
		return TermRef(numberTerm("-" + n.text)), nil
	case tokKeyword:
		switch t.text {
		case "TRUE":
			p.next()
			return TermRef(rdf.Bool(true)), nil
		case "FALSE":
			p.next()
			return TermRef(rdf.Bool(false)), nil
		}
	}
	return NodeRef{}, p.errf("expected %s, found %q", what, t.text)
}

// The variables blank nodes stand for: _:b is blankVarPrefix+"b", the n-th []
// of the query anonVarPrefix+"n". A query cannot spell either as ?name.
const (
	blankVarPrefix = "!blank_"
	anonVarPrefix  = "!anon"
)

// blankVar maps a blank node label used in the query to a stable internal
// variable name (blank nodes in queries behave as non-projectable variables).
func (p *parser) blankVar(label string) string {
	if v, ok := p.blankVars[label]; ok {
		return v
	}
	v := blankVarPrefix + label
	p.blankVars[label] = v
	return v
}

func numberTerm(text string) rdf.Term {
	if strings.ContainsAny(text, ".eE") {
		return rdf.TypedLiteral(text, rdf.XSDDouble)
	}
	return rdf.TypedLiteral(text, rdf.XSDInteger)
}

func (p *parser) expandPName(pname string) (string, error) {
	i := strings.IndexByte(pname, ':')
	if i < 0 {
		return "", p.errf("malformed prefixed name %q", pname)
	}
	prefix, local := pname[:i], pname[i+1:]
	base, ok := p.prefixes[prefix]
	if !ok {
		return "", p.errf("undeclared prefix %q", prefix)
	}
	return base + local, nil
}

// parsePath parses a property path (used in the predicate position).
func (p *parser) parsePath() (Path, error) {
	return p.parsePathAlt()
}

func (p *parser) parsePathAlt() (Path, error) {
	first, err := p.parsePathSeq()
	if err != nil {
		return nil, err
	}
	if !p.at(tokPipe) {
		return first, nil
	}
	alts := []Path{first}
	for p.at(tokPipe) {
		p.next()
		next, err := p.parsePathSeq()
		if err != nil {
			return nil, err
		}
		alts = append(alts, next)
	}
	return AltPath{Alts: alts}, nil
}

func (p *parser) parsePathSeq() (Path, error) {
	first, err := p.parsePathEltOrInverse()
	if err != nil {
		return nil, err
	}
	if !p.at(tokSlash) {
		return first, nil
	}
	parts := []Path{first}
	for p.at(tokSlash) {
		p.next()
		next, err := p.parsePathEltOrInverse()
		if err != nil {
			return nil, err
		}
		parts = append(parts, next)
	}
	return SeqPath{Parts: parts}, nil
}

func (p *parser) parsePathEltOrInverse() (Path, error) {
	if p.at(tokCaret) {
		p.next()
		inner, err := p.parsePathElt()
		if err != nil {
			return nil, err
		}
		return InvPath{Inner: inner}, nil
	}
	return p.parsePathElt()
}

func (p *parser) parsePathElt() (Path, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	prim, err := p.parsePathPrimary()
	if err != nil {
		return nil, err
	}
	switch {
	case p.at(tokPlus):
		p.next()
		return ModPath{Inner: prim, Mod: ModOneOrMore}, nil
	case p.at(tokStar):
		p.next()
		return ModPath{Inner: prim, Mod: ModZeroOrMore}, nil
	case p.at(tokQuestion):
		p.next()
		return ModPath{Inner: prim, Mod: ModZeroOrOne}, nil
	}
	return prim, nil
}

func (p *parser) parsePathPrimary() (Path, error) {
	t := p.peek()
	switch t.kind {
	case tokIRI:
		p.next()
		return PredPath{IRI: t.text}, nil
	case tokPName:
		p.next()
		iri, err := p.expandPName(t.text)
		if err != nil {
			return nil, err
		}
		return PredPath{IRI: iri}, nil
	case tokA:
		p.next()
		return PredPath{IRI: RDFType}, nil
	case tokLParen:
		p.next()
		inner, err := p.parsePath()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		return inner, nil
	default:
		return nil, p.errf("expected predicate or property path, found %q", t.text)
	}
}

// predVarPath is a variable used as the predicate (e.g. SELECT all
// properties of an operator): a degenerate "path" the evaluator handles
// itself. It is unexported: only the evaluator needs it.
type predVarPath struct{ name string }

func (predVarPath) pathNode() {}

// parseAggregate parses COUNT(*), COUNT([DISTINCT] expr), SUM/AVG/MIN/MAX(expr).
func (p *parser) parseAggregate(fn string) (Expression, error) {
	p.next() // consume the function keyword
	if _, err := p.expect(tokLParen, "("); err != nil {
		return nil, err
	}
	agg := AggExpr{Fn: fn}
	if p.atKeyword("DISTINCT") {
		p.next()
		agg.Distinct = true
	}
	if p.at(tokStar) {
		if fn != "COUNT" {
			return nil, p.errf("%s(*) is not allowed; only COUNT(*)", fn)
		}
		p.next()
		agg.Star = true
	} else {
		arg, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		agg.Arg = arg
	}
	if _, err := p.expect(tokRParen, ")"); err != nil {
		return nil, err
	}
	return agg, nil
}

// parseConstraint parses a FILTER constraint: a parenthesized expression or
// a builtin call.
func (p *parser) parseConstraint() (Expression, error) {
	if p.at(tokLParen) {
		p.next()
		expr, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		return expr, nil
	}
	if p.at(tokKeyword) {
		// Through parseUnary, so that the call nests as deep as the
		// FILTER(call) it prints as.
		return p.parseUnary()
	}
	return nil, p.errf("expected FILTER constraint, found %q", p.peek().text)
}

// Expression grammar (precedence climbing).

func (p *parser) parseExpr() (Expression, error) { return p.parseOr() }

func (p *parser) parseOr() (Expression, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.at(tokOrOr) {
		p.next()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = OrExpr{L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expression, error) {
	left, err := p.parseRelational()
	if err != nil {
		return nil, err
	}
	for p.at(tokAndAnd) {
		p.next()
		right, err := p.parseRelational()
		if err != nil {
			return nil, err
		}
		left = AndExpr{L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseRelational() (Expression, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	var op CmpOp
	switch p.peek().kind {
	case tokEq:
		op = OpEq
	case tokNeq:
		op = OpNeq
	case tokLt:
		op = OpLt
	case tokGt:
		op = OpGt
	case tokLe:
		op = OpLe
	case tokGe:
		op = OpGe
	default:
		return left, nil
	}
	p.next()
	right, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	return CmpExpr{Op: op, L: left, R: right}, nil
}

func (p *parser) parseAdditive() (Expression, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.at(tokPlus) || p.at(tokMinus) {
		op := byte('+')
		if p.next().kind == tokMinus {
			op = '-'
		}
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = ArithExpr{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseMultiplicative() (Expression, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.at(tokStar) || p.at(tokSlash) {
		op := byte('*')
		if p.next().kind == tokSlash {
			op = '/'
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = ArithExpr{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseUnary() (Expression, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	switch p.peek().kind {
	case tokBang:
		p.next()
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return NotExpr{Inner: inner}, nil
	case tokMinus:
		p.next()
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return NegExpr{Inner: inner}, nil
	case tokPlus:
		p.next()
		return p.parseUnary()
	default:
		return p.parsePrimaryExpr()
	}
}

func (p *parser) parsePrimaryExpr() (Expression, error) {
	t := p.peek()
	switch t.kind {
	case tokLParen:
		p.next()
		expr, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		return expr, nil
	case tokVar:
		p.next()
		return VarExpr{Name: t.text}, nil
	case tokNumber:
		p.next()
		return LitExpr{Term: numberTerm(t.text)}, nil
	case tokString:
		p.next()
		lit := rdf.String(t.text)
		if p.at(tokHatHat) {
			p.next()
			dt := p.peek()
			switch dt.kind {
			case tokIRI:
				p.next()
				lit = rdf.TypedLiteral(t.text, dt.text)
			case tokPName:
				p.next()
				iri, err := p.expandPName(dt.text)
				if err != nil {
					return nil, err
				}
				lit = rdf.TypedLiteral(t.text, iri)
			default:
				return nil, p.errf("expected datatype IRI after ^^")
			}
		}
		return LitExpr{Term: lit}, nil
	case tokIRI:
		p.next()
		return LitExpr{Term: rdf.IRI(t.text)}, nil
	case tokPName:
		p.next()
		iri, err := p.expandPName(t.text)
		if err != nil {
			return nil, err
		}
		return LitExpr{Term: rdf.IRI(iri)}, nil
	case tokKeyword:
		switch t.text {
		case "TRUE":
			p.next()
			return LitExpr{Term: rdf.Bool(true)}, nil
		case "FALSE":
			p.next()
			return LitExpr{Term: rdf.Bool(false)}, nil
		}
		if aggregateFns[t.text] {
			return p.parseAggregate(t.text)
		}
		arity, ok := builtinArity[t.text]
		if !ok {
			return nil, p.errf("unknown function or keyword %q", t.text)
		}
		p.next()
		if _, err := p.expect(tokLParen, "("); err != nil {
			return nil, err
		}
		var args []Expression
		if !p.at(tokRParen) {
			for {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if p.at(tokComma) {
					p.next()
					continue
				}
				break
			}
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		if len(args) < arity[0] || (arity[1] >= 0 && len(args) > arity[1]) {
			return nil, p.errf("%s: wrong argument count %d", t.text, len(args))
		}
		return CallExpr{Name: t.text, Args: args}, nil
	default:
		return nil, p.errf("expected expression, found %q", t.text)
	}
}
