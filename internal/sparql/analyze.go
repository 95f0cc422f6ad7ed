package sparql

import "optimatch/internal/rdf"

// Analysis is the static, graph-independent analysis of a query, computed
// once per parsed query and shared by every evaluation. Required is the set
// of constant terms every matching graph must contain: the evaluator, which
// resolves all of Consts to the target graph's dense IDs in one pass before
// matching, skips the WHERE clause when one of them has no ID there
// (evalCtx.exec's bail-out — the one vocabulary test a workload scan runs).
// Both are collected by the compiler's walk of the WHERE clause (compile.go),
// the one that also decides what each group binds.
type Analysis struct {
	// Required holds constant terms (IRIs and literals from triple patterns,
	// plus predicate IRIs from property paths) that any graph with at least
	// one solution must contain, in Consts' order. Constants appearing only
	// under OPTIONAL, NOT EXISTS, or in some-but-not-all UNION branches are
	// excluded; so are predicates reachable only through a zero-length path
	// (`*`, `?`).
	Required []rdf.Term

	// Consts holds every constant term appearing in any triple pattern or
	// property path of the query, Required or not, in the order the walk
	// meets them: textual, except that a group's FILTER [NOT] EXISTS come
	// after its other elements. The evaluator resolves these against the
	// target graph's dictionary once per (query, graph) pair.
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
		q.analysis, _ = analyzeQuery(q)
	}
	return q.analysis
}

// Projection returns the names of the query's result columns, the Vars of
// every Results it evaluates to; do not modify.
func (q *Query) Projection() []string { return q.Analysis().prog.projVars }

func analyzeQuery(q *Query) (*Analysis, error) {
	p, err := compile(q)
	a := &Analysis{Required: make([]rdf.Term, 0, len(p.required)), Consts: p.consts, prog: p}
	for _, n := range p.required {
		a.Required = append(a.Required, p.consts[n])
	}
	return a, err
}
