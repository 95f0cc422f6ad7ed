package sparql

import "optimatch/internal/rdf"

// Analysis is the static, graph-independent analysis of a query, computed
// once per parsed query and shared by every evaluation. Required is the set
// of constant terms every matching graph must contain: the evaluator, which
// resolves all of Consts to the target graph's dense IDs in one pass before
// matching, skips the WHERE clause when one of them has no ID there
// (evalCtx.exec's bail-out — the one vocabulary test a workload scan runs).
type Analysis struct {
	// Required holds constant terms (IRIs and literals from triple patterns,
	// plus predicate IRIs from property paths) that any graph with at least
	// one solution must contain. Constants appearing only under OPTIONAL,
	// NOT EXISTS, or in some-but-not-all UNION branches are excluded; so are
	// predicates reachable only through a zero-length path (`*`, `?`).
	Required []rdf.Term

	// Consts holds every constant term appearing in any triple pattern or
	// property path of the query, Required or not, in first-appearance
	// order. The evaluator resolves these against the target graph's
	// dictionary once per (query, graph) pair.
	Consts []rdf.Term

	// prog is the query's compiled program (see compile.go): what the
	// evaluator runs, built here so that it is computed and shared exactly
	// like the rest of the analysis.
	prog *program
}

// RequiredIn reports whether every required term is present in the graph's
// vocabulary (its term dictionary). When it returns false the query has no
// solutions over g; when it returns true the graph is a candidate. It is the
// term-space statement of ExecOpts' bail-out, which acts on the same verdict
// in ID space; TestRequiredConstantSoundness holds both to the reference
// evaluator. Production code does not call it.
func (a *Analysis) RequiredIn(g *rdf.Graph) bool {
	d := g.Dict()
	for _, t := range a.Required {
		if d.Lookup(t) == rdf.NoID {
			return false
		}
	}
	return true
}

// Analysis returns the query's static analysis, computing it on first use.
// Parse pre-computes it, so queries obtained from Parse may share the
// result across goroutines; hand-assembled Query values must call Analysis
// (or Exec) once before any concurrent use. Only Parse refuses a query: a
// hand-assembled value must be one Parse would accept (print it with String
// and parse that to check), or what it evaluates to is unspecified.
func (q *Query) Analysis() *Analysis {
	if q.analysis == nil {
		q.analysis = analyzeQuery(q)
	}
	return q.analysis
}

// Projection returns the names of the query's result columns, the Vars of
// every Results it evaluates to; do not modify.
func (q *Query) Projection() []string { return q.Analysis().prog.projVars }

// termSet is an insertion-ordered set of terms.
type termSet struct {
	seen  map[rdf.Term]bool
	order []rdf.Term
}

func newTermSet() *termSet {
	return &termSet{seen: make(map[rdf.Term]bool)}
}

// add adds t to s; a nil set takes nothing.
func (s *termSet) add(t rdf.Term) {
	if s == nil || t.Zero() || s.seen[t] {
		return
	}
	s.seen[t] = true
	s.order = append(s.order, t)
}

func (s *termSet) addAll(o *termSet) {
	for _, t := range o.order {
		s.add(t)
	}
}

// intersect returns the terms of s that o holds too, in s's order; a nil s
// stands for every term.
func (s *termSet) intersect(o *termSet) *termSet {
	if s == nil {
		return o
	}
	kept := newTermSet()
	for _, t := range s.order {
		if o.seen[t] {
			kept.add(t)
		}
	}
	return kept
}

func analyzeQuery(q *Query) *Analysis {
	consts, req := newTermSet(), newTermSet()
	groupRequired(q.Where, consts, req)
	return &Analysis{Required: req.order, Consts: consts.order, prog: compile(q, consts.order, req.order)}
}

// groupRequired adds the terms a group pattern requires to req (nil: they
// are not required) while registering every constant it encounters
// (required or not) in consts.
//
// Soundness argument, per element kind: a triple pattern in the group must
// match for the group to produce solutions, and the evaluator yields zero
// rows for a pattern whose subject or object constant is absent from the
// dictionary, so those constants are required; a predicate is required only
// when every traversal of the path must cross it (see pathRequired).
// OPTIONAL groups never eliminate solutions, UNION eliminates only terms
// missing from every branch (so the intersection of branch requirements is
// required), FILTER EXISTS keeps a solution only when its group matches (so
// its group's requirements propagate), and FILTER NOT EXISTS, plain FILTER
// and BIND compare values without probing the graph and require nothing.
func groupRequired(g *GroupPattern, consts, req *termSet) {
	for _, el := range g.Elems {
		switch el := el.(type) {
		case TriplePattern:
			if !el.S.IsVar() {
				consts.add(el.S.Term)
				req.add(el.S.Term)
			}
			if !el.O.IsVar() {
				consts.add(el.O.Term)
				req.add(el.O.Term)
			}
			pathConsts(el.P, consts)
			pathRequired(el.P, req)
		case GroupElem:
			groupRequired(el.Group, consts, req)
		case OptionalElem:
			groupRequired(el.Group, consts, nil)
		case UnionElem:
			var common *termSet
			for _, b := range el.Branches {
				br := newTermSet()
				groupRequired(b, consts, br)
				common = common.intersect(br)
			}
			req.addAll(common)
		case FilterExistsElem:
			if el.Not {
				groupRequired(el.Group, consts, nil)
			} else {
				groupRequired(el.Group, consts, req)
			}
		case FilterElem, BindElem:
			// Value-space only; nothing must exist in the graph.
		}
	}
}

// pathRequired adds the predicate IRIs every traversal of the path must
// cross. A `*` or `?` modifier admits a zero-length traversal, so nothing
// under it is required; an alternation requires only predicates common to
// all alternatives; a sequence requires each of its parts' requirements.
func pathRequired(p Path, req *termSet) {
	switch p := p.(type) {
	case PredPath:
		req.add(rdf.IRI(p.IRI))
	case InvPath:
		pathRequired(p.Inner, req)
	case SeqPath:
		for _, part := range p.Parts {
			pathRequired(part, req)
		}
	case AltPath:
		var common *termSet
		for _, alt := range p.Alts {
			br := newTermSet()
			pathRequired(alt, br)
			common = common.intersect(br)
		}
		req.addAll(common)
	case ModPath:
		if p.Mod == ModOneOrMore {
			pathRequired(p.Inner, req)
		}
		// `*` and `?` match zero-length traversals: nothing required.
	}
}

// pathConsts registers every predicate IRI mentioned anywhere in the path.
func pathConsts(p Path, consts *termSet) {
	switch p := p.(type) {
	case PredPath:
		consts.add(rdf.IRI(p.IRI))
	case InvPath:
		pathConsts(p.Inner, consts)
	case SeqPath:
		for _, part := range p.Parts {
			pathConsts(part, consts)
		}
	case AltPath:
		for _, alt := range p.Alts {
			pathConsts(alt, consts)
		}
	case ModPath:
		pathConsts(p.Inner, consts)
	}
}
