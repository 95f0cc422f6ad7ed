// Package optimatch is a from-scratch, stdlib-only reproduction of the
// OptImatch system (Damasio, Szlichta, Mierzejewski, Zuzarte: "Query
// Performance Problem Determination with Knowledge Base in Semantic Web
// System OptImatch", EDBT 2016): query performance problem determination
// over DB2-style query execution plans via RDF transformation, SPARQL
// pattern matching and a knowledge base of expert recommendations.
//
// The typical flow:
//
//	eng := optimatch.New()
//	plan, err := eng.LoadText(explainText) // parse + transform to RDF
//	matches, err := eng.FindPattern(context.Background(), optimatch.PatternA())
//	reports, err := eng.RunKB(context.Background(), optimatch.CanonicalKB())
//
// Custom patterns are built fluently (the programmatic equivalent of the
// paper's GUI pattern builder):
//
//	b := optimatch.NewPatternBuilder("my-pattern", "expensive sort over join")
//	srt := b.Pop("SORT")
//	j := b.Pop(optimatch.TypeJoin)
//	srt.Descendant(j)
//	srt.Where("hasTotalCost", ">", 10000)
//	p, err := b.Build()
//
// or decoded from the JSON form of the paper's Figure 5 via ParsePatternJSON.
//
// This package is a thin facade: the implementation lives in the internal
// packages (rdf, sparql, qep, transform, pattern, kb, workload, core), each
// documented independently.
package optimatch

import (
	"io"

	"optimatch/internal/cluster"
	"optimatch/internal/core"
	"optimatch/internal/kb"
	"optimatch/internal/pattern"
	"optimatch/internal/qep"
	"optimatch/internal/rdf"
	"optimatch/internal/sparql"
	"optimatch/internal/transform"
	"optimatch/internal/workload"
)

// Engine loads query execution plans and matches patterns against them.
type Engine = core.Engine

// Match is one pattern occurrence in one plan: a result row whose columns
// (found by handler alias with Column) de-transform to plan operators and base
// objects on demand.
type Match = transform.Match

// PlanReport is the knowledge-base outcome for one plan.
type PlanReport = core.PlanReport

// WorkloadSummary aggregates a knowledge-base run over a workload.
type WorkloadSummary = core.WorkloadSummary

// Option configures an Engine.
type Option = core.Option

// New creates an engine. Use WithWorkers to bound matcher parallelism.
func New(opts ...Option) *Engine { return core.New(opts...) }

// WithWorkers bounds the engine's parallelism.
func WithWorkers(n int) Option { return core.WithWorkers(n) }

// Summarize aggregates knowledge-base reports.
func Summarize(reports []PlanReport) WorkloadSummary { return core.Summarize(reports) }

// NoRecommendation is reported for plans no knowledge-base entry matches.
const NoRecommendation = core.NoRecommendation

// Plan is a parsed query execution plan (a tree of LOLEPOPs).
type Plan = qep.Plan

// Operator is one LOLEPOP of a plan.
type Operator = qep.Operator

// BaseObject is a table or index referenced by a plan.
type BaseObject = qep.BaseObject

// ParsePlan parses explain text in the OptImatch explain format.
func ParsePlan(text string) (*Plan, error) { return qep.Parse(text) }

// RenderPlan draws the classic ASCII plan graph (the paper's Figure 1).
func RenderPlan(p *Plan) string { return qep.Render(p) }

// WritePlan serializes a plan back to explain text.
func WritePlan(w io.Writer, p *Plan) error { return qep.Write(w, p) }

// Pattern is a problem pattern (the paper's Figure 5 JSON object).
type Pattern = pattern.Pattern

// PatternBuilder builds patterns fluently.
type PatternBuilder = pattern.Builder

// CompiledPattern is a pattern compiled to SPARQL with its handler table.
type CompiledPattern = pattern.Compiled

// Pseudo operator types usable in patterns.
const (
	TypeAny     = pattern.TypeAny
	TypeJoin    = pattern.TypeJoin
	TypeScan    = pattern.TypeScan
	TypeBaseObj = pattern.TypeBaseObj
)

// NewPatternBuilder starts a fluent pattern definition.
func NewPatternBuilder(name, description string) *PatternBuilder {
	return pattern.NewBuilder(name, description)
}

// ParsePatternJSON decodes a pattern from its JSON (Figure 5) form.
func ParsePatternJSON(data []byte) (*Pattern, error) { return pattern.FromJSON(data) }

// SPARQLQuery is a parsed SPARQL SELECT query; String prints it back as
// SPARQL text in full IRIs, the same for every spelling of the query.
type SPARQLQuery = sparql.Query

// ParseSPARQL parses a SPARQL SELECT query for Engine.FindSPARQL.
func ParseSPARQL(text string) (*SPARQLQuery, error) { return sparql.Parse(text) }

// CompilePattern translates a pattern into an executable SPARQL query
// through handlers (the paper's Algorithm 2 / Figure 6).
func CompilePattern(p *Pattern) (*CompiledPattern, error) { return pattern.Compile(p) }

// The paper's canonical expert patterns plus the motivating-scenario
// extensions.
var (
	PatternA = pattern.A // NLJOIN over a large inner table scan
	PatternB = pattern.B // join of two left-outer-join subtrees
	PatternC = pattern.C // scan with collapsed cardinality estimate
	PatternD = pattern.D // spilling SORT
	PatternE = pattern.E // materialized subquery above 50% of plan cost
	PatternF = pattern.F // shared common subexpression (multi-consumer TEMP)
	PatternG = pattern.G // join without a join predicate (cartesian product)
)

// KnowledgeBase is a library of expert patterns and recommendations.
type KnowledgeBase = kb.KnowledgeBase

// KBEntry is one knowledge-base record.
type KBEntry = kb.Entry

// Recommendation is an expert remedy written in the handler tagging
// language (templates with @ALIAS tags).
type Recommendation = kb.Recommendation

// Ranked is a context-adapted, confidence-scored recommendation.
type Ranked = kb.Ranked

// NewKB returns an empty knowledge base.
func NewKB() *KnowledgeBase { return kb.New() }

// CanonicalKB returns a knowledge base populated with the paper's four
// expert patterns and their recommendations.
func CanonicalKB() *KnowledgeBase { return kb.MustCanonical() }

// ExtendedKB returns CanonicalKB plus entries for the expensive-subquery,
// shared-common-subexpression and cartesian-join patterns (E, F and G).
func ExtendedKB() *KnowledgeBase { return kb.MustExtended() }

// LoadKB reads a knowledge base saved with (*KnowledgeBase).Save.
func LoadKB(r io.Reader) (*KnowledgeBase, error) { return kb.Load(r) }

// WorkloadConfig controls synthetic workload generation (the stand-in for
// the paper's proprietary IBM customer workload; see DESIGN.md).
type WorkloadConfig = workload.Config

// Workload is a generated plan set with pattern-injection ground truth.
type Workload = workload.Workload

// GenerateWorkload builds a deterministic synthetic workload.
func GenerateWorkload(cfg WorkloadConfig) (*Workload, error) { return workload.Generate(cfg) }

// ClusterResult is a cost-based clustering of a workload.
type ClusterResult = cluster.Result

// PatternCorrelation reports how a pattern's matches distribute over the
// clusters (the paper's "perform cost based clustering and correlate
// results of applying expert patterns to each cluster", Section 1.1).
type PatternCorrelation = cluster.PatternCorrelation

// ClusterWorkload groups plans into k cost-based clusters (deterministic
// k-means over log-cost/size/operator-mix features).
func ClusterWorkload(plans []*Plan, k int, seed int64) (*ClusterResult, error) {
	return cluster.KMeans(plans, k, seed)
}

// CorrelateMatches computes per-cluster match rates and lifts for a set of
// pattern matches.
func CorrelateMatches(res *ClusterResult, patternName string, matches []Match, totalPlans int) PatternCorrelation {
	matched := make(map[string]bool, len(matches))
	for _, m := range matches {
		matched[m.Plan().ID] = true
	}
	return cluster.Correlate(res, patternName, matched, totalPlans)
}

// --- Generic diagnostic data (paper Section 5) ---
//
// The paper's methodology applies to any machine-generated diagnostic data
// that lends itself to a property-graph representation: log data, debug
// traces, sensor streams. The RDF store and SPARQL engine underneath
// OptImatch are exposed here so other diagnostic domains can transform
// their artifacts and reuse the same pattern matching (see
// examples/logdiag).

// Graph is an in-memory RDF graph: a dictionary-encoded, read-only triple
// store with one index (two sorted permutations of the triples, SPO and POS),
// built by a GraphBuilder. Results without ORDER BY come back in an
// order fixed by the sequence of Adds — the same on every execution and for
// every graph built the same way. A graph is safe for concurrent queries.
type Graph = rdf.Graph

// Term is an RDF term (IRI, blank node or literal).
type Term = rdf.Term

// Triple is one RDF statement.
type Triple = rdf.Triple

// QueryResults is a SPARQL solution table.
type QueryResults = sparql.Results

// GraphBuilder writes one Graph: Add its triples, then take the graph from
// its Graph method, after which the builder is spent and panics on any call.
// A builder must not be used concurrently.
type GraphBuilder = rdf.Builder

// NewGraphBuilder returns a builder of an empty RDF graph.
func NewGraphBuilder() *GraphBuilder { return rdf.NewBuilder() }

// IRI, Blank, Lit and Num construct RDF terms for custom diagnostic graphs.
func IRI(iri string) Term     { return rdf.IRI(iri) }
func Blank(label string) Term { return rdf.Blank(label) }
func Lit(s string) Term       { return rdf.String(s) }
func Num(f float64) Term      { return rdf.Float(f) }
func BoolTerm(b bool) Term    { return rdf.Bool(b) }

// Query parses and executes a SPARQL query against a graph.
func Query(g *Graph, query string) (*QueryResults, error) {
	q, err := sparql.Parse(query)
	if err != nil {
		return nil, err
	}
	return q.Exec(g)
}

// WriteNTriples serializes a graph in N-Triples form; ReadNTriples parses
// it back.
func WriteNTriples(w io.Writer, g *Graph) error { return rdf.WriteNTriples(w, g) }

// ReadNTriples parses N-Triples statements into a fresh graph.
func ReadNTriples(r io.Reader) (*Graph, error) { return rdf.ParseNTriples(r) }
