package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"optimatch/internal/kb"
	"optimatch/internal/pattern"
	"optimatch/internal/qep"
	"optimatch/internal/transform"
	"optimatch/internal/workload"
)

// sizes fixes how much work one repetition does. The counts are tuned so
// that a repetition lasts one to two seconds on a 2-core box — about as long
// as the set-up / recovery cycle that follows it, so that a run of
// run_seconds holds six to ten of each. Workload and metric names never
// depend on them.
type sizes struct {
	Resident int // plans loaded by set-up
	Churn    int // extra plans that writes upload and delete again

	SetupBatches, SetupBatchSize int // resident plans ingested through /api/plans:batch; the rest go through POST /api/plans

	KBScansPerRep int // kb_scan_cold: kb/run requests per repetition
	DeckCycles    int // search_adhoc: passes over the 12-request deck per repetition

	// ingest_durable, per repetition: batches of IngestBatchSize plus
	// IngestSingles single uploads (each read back once), and as many
	// deletes as plans came in. WAL records per repetition equal
	// CompactEvery, so every repetition contains exactly one compaction.
	IngestBatches, IngestBatchSize, IngestSingles int
	CompactEvery                                  int64

	// serve_mixed, per client and repetition.
	MixedOps, MixedWrites, MixedFresh int

	TraceReps   int // repetitions of a traced run, alternately untraced and traced
	SamplePlans int // plans the staged replica and the exec probes run over
	ProbePairs  int // upload/delete pairs of the upload-during-scan probe
}

var defaultSizes = sizes{
	Resident: 64, Churn: 62,
	SetupBatches: 2, SetupBatchSize: 16,
	KBScansPerRep: 16,
	DeckCycles:    12,
	IngestBatches: 4, IngestBatchSize: 12, IngestSingles: 14, CompactEvery: 80,
	MixedOps: 200, MixedWrites: 4, MixedFresh: 20,
	TraceReps: 8, SamplePlans: 32, ProbePairs: 16,
}

// quickSizes is the -quick mode the package's own test runs: every code
// path, a few seconds in total.
var quickSizes = sizes{
	Resident: 16, Churn: 12,
	SetupBatches: 1, SetupBatchSize: 8,
	KBScansPerRep: 3,
	DeckCycles:    1,
	IngestBatches: 1, IngestBatchSize: 6, IngestSingles: 6, CompactEvery: 19,
	MixedOps: 40, MixedWrites: 2, MixedFresh: 4,
	TraceReps: 2, SamplePlans: 8, ProbePairs: 3,
}

// ingestPlans is how many plans one ingest_durable repetition uploads (and
// deletes).
func (z sizes) ingestPlans() int { return z.IngestBatches*z.IngestBatchSize + z.IngestSingles }

// plan is one generated explain file.
type plan struct {
	ID   string
	Text string
}

// request is one prepared HTTP request of a deck.
type request struct {
	Kind   string // kbrun, search, sparql, rdf: the read classes
	Method string
	Path   string
	Body   string
}

// Entry names of the canonical patterns the generator can inject, by
// ground-truth key.
var truthEntries = map[string]string{
	workload.KeyA: "nljoin-inner-tbscan",
	workload.KeyB: "loj-both-sides",
	workload.KeyC: "scan-cardinality-collapse",
	workload.KeyD: "sort-spill",
	workload.KeyG: "cartesian-join",
}

// variants is how many values a seeded threshold is drawn from: more than
// the engine's 256-entry parse-once cache holds, so a varying query is
// parsed and specialised again nearly every time.
const variants = 1024

// inputs is everything a run sends to the server, made from the seed alone.
type inputs struct {
	Seed     int64
	Resident []plan
	Churn    []plan
	Truth    workload.Truth // over resident and churn plans

	// search_adhoc deck: 12 slots, each with one fixed body or `variants`
	// bodies that differ in a numeric threshold.
	Deck [][]request
	// serve_mixed hot deck: 16 fixed requests, the last 4 plan-RDF GETs.
	Hot []request

	GenSeconds float64
}

// genPlans generates n plans with exact injection shares and a fixed
// multiset of operator counts (60..240, evenly spaced), so that two seeds
// give workloads of the same total size and only the plan shapes differ.
// Sizes alternate between the first and the second half of the list —
// set-up sends one half through the batch route and the other through
// single uploads — and are shuffled inside each half.
func genPlans(seed int64, n int, prefix string) ([]plan, workload.Truth, error) {
	ops := make([]int, 0, n)
	for _, parity := range []int{0, 1} {
		for i := parity; i < n; i += 2 {
			ops = append(ops, 60+i*180/max(n-1, 1))
		}
	}
	rng, half := rand.New(rand.NewSource(seed)), (n+1)/2
	rng.Shuffle(half, func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	rng.Shuffle(n-half, func(i, j int) { ops[half+i], ops[half+j] = ops[half+j], ops[half+i] })
	share := func(pct int) int { return max(n*pct/100, 1) }
	w, err := workload.Generate(workload.Config{
		Seed: seed, NumPlans: n, OpCounts: ops,
		InjectA: share(15), InjectB: share(12), InjectC: share(18), InjectD: share(10), InjectG: share(5),
	})
	if err != nil {
		return nil, nil, err
	}
	// The generator names plans Q1..Qn; give each set its own prefix so
	// resident and churn plans never collide.
	rename := make(map[string]string, n)
	plans := make([]plan, n)
	for i, p := range w.Plans {
		id := fmt.Sprintf("%s%d", prefix, i+1)
		rename[p.ID] = id
		p.ID = id
		plans[i] = plan{ID: id, Text: qep.Text(p)}
	}
	truth := workload.Truth{}
	for key, ids := range w.Truth {
		truth[key] = map[string]bool{}
		for id := range ids {
			truth[key][rename[id]] = true
		}
	}
	return plans, truth, nil
}

// patternA is pattern.A with the inner-cardinality threshold as a
// parameter: the knowledge-base variants and the varying search request
// share every triple pattern with the canonical entry and differ in one
// FILTER constant.
func patternA(name string, innerCard float64) *pattern.Pattern {
	b := pattern.NewBuilder(name, "NLJOIN repeatedly scanning a large inner table")
	top := b.Pop("NLJOIN").Alias("TOP")
	outer := b.Pop(pattern.TypeAny)
	inner := b.Pop("TBSCAN").Alias("SCAN3")
	base := b.Pop(pattern.TypeBaseObj).Alias("BASE4")
	top.OuterChild(outer)
	top.InnerChild(inner)
	outer.Where("hasEstimateCardinality", ">", 1)
	inner.Where("hasEstimateCardinality", ">", innerCard)
	inner.Child(base)
	return b.MustBuild()
}

func patternC(baseCard float64) *pattern.Pattern {
	b := pattern.NewBuilder("scan-cardinality-collapse", "Scan estimating almost no rows out of a large table")
	scan := b.Pop(pattern.TypeScan).Alias("TOP")
	base := b.Pop(pattern.TypeBaseObj).Alias("BASE2")
	scan.Where("hasEstimateCardinality", "<", 0.001)
	base.Where("hasEstimateCardinality", ">", baseCard)
	scan.Child(base)
	return b.MustBuild()
}

func patternE(factor float64) *pattern.Pattern {
	b := pattern.NewBuilder("expensive-subquery", "Materialized subquery costing a large share of the plan")
	tmp := b.Pop("TEMP").Alias("TOP")
	in := b.Pop(pattern.TypeAny).Alias("INPUT2")
	tmp.Child(in)
	tmp.WherePlan("hasTotalCost", ">", factor, "hasTotalCost")
	return b.MustBuild()
}

// scanKB is the kb_scan_cold knowledge base: the seven extended entries
// plus seven variants of pattern A whose inner-cardinality threshold is
// perturbed — fourteen entries, eight of which share every triple pattern.
func scanKB() *kb.KnowledgeBase {
	k := kb.MustExtended()
	for _, t := range []float64{150, 250, 400, 650, 1000, 1600, 2500} {
		name := fmt.Sprintf("nljoin-inner-tbscan-over-%d", int(t))
		_, err := k.Add(patternA(name, t), kb.Recommendation{
			Title:    "Create index on inner table",
			Category: "INDEX",
			Template: "Create index on @BASE4.NAME: the nested loop join @TOP rescans @SCAN3.CARD rows per outer row.",
		})
		if err != nil {
			panic(fmt.Sprintf("bench: kb variant %s: %v", name, err))
		}
	}
	return k
}

const prologue = transform.Prologue

// The five raw SPARQL requests. %s is the seeded threshold of the varying
// ones.
const (
	qDescent = prologue + `SELECT ?top ?join WHERE {
  ?top preduri:hasPopType "RETURN" .
  ?top preduri:hasChildPop+ ?join .
  ?join preduri:hasPopType "NLJOIN" .
}`
	qClosure = prologue + `SELECT ?anc ?sort WHERE {
  ?anc preduri:hasChildPop+ ?sort .
  ?sort preduri:hasPopType "SORT" .
}`
	qFilter = prologue + `SELECT ?pop ?card WHERE {
  ?pop preduri:hasPopClass "JOIN" .
  ?pop preduri:hasEstimateCardinality ?card .
  FILTER(?card > %s) .
}`
	qOptional = prologue + `SELECT ?pop ?cost ?pred WHERE {
  { ?pop preduri:hasPopType "FILTER" . } UNION { ?pop preduri:hasPopType "GRPBY" . }
  ?pop preduri:hasTotalCost ?cost .
  OPTIONAL { ?pop preduri:hasPredicateText ?pred . }
  FILTER(?cost > %s) .
}`
	qGroup = prologue + `SELECT ?type (COUNT(?pop) AS ?n) WHERE {
  ?pop preduri:hasPopType ?type .
  ?pop preduri:hasIOCost ?io .
  FILTER(?io > %s) .
}
GROUP BY ?type
ORDER BY DESC(?n) ?type
LIMIT 5`
)

func searchRequest(p *pattern.Pattern) request {
	body, err := p.ToJSON()
	if err != nil {
		panic(fmt.Sprintf("bench: pattern %s: %v", p.Name, err))
	}
	return request{Kind: "search", Method: "POST", Path: "/api/search", Body: string(body)}
}

func sparqlRequest(q string) request {
	return request{Kind: "sparql", Method: "POST", Path: "/api/sparql", Body: q}
}

// varying builds the `variants` bodies of one deck slot. The thresholds
// move in a band narrow enough that the result set hardly changes: the
// point is a text the parse-once cache has not seen, not a different
// answer.
func varying(build func(step float64) request) []request {
	out := make([]request, variants)
	for i := range out {
		out[i] = build(float64(i))
	}
	return out
}

// fresh is a SPARQL request no run has sent before: the threshold encodes
// the client and a counter, so the response cache can only miss.
func fresh(client, n int) request {
	return sparqlRequest(fmt.Sprintf(qFilter, fmt.Sprintf("%d", 20_000_000+client*1_000_000+n)))
}

func genInputs(seed int64, z sizes) (*inputs, error) {
	start := time.Now()
	in := &inputs{Seed: seed}
	var err error
	var churnTruth workload.Truth
	if in.Resident, in.Truth, err = genPlans(seed, z.Resident, "R"); err != nil {
		return nil, err
	}
	if in.Churn, churnTruth, err = genPlans(seed+1, z.Churn, "U"); err != nil {
		return nil, err
	}
	for key, ids := range churnTruth {
		for id := range ids {
			in.Truth[key][id] = true
		}
	}

	ext := pattern.Extended() // A B C D E F G
	fixed := func(r request) []request { return []request{r} }
	in.Deck = [][]request{
		varying(func(s float64) request { return searchRequest(patternA("nljoin-inner-tbscan", 100+s/100)) }),
		fixed(searchRequest(ext[1])),
		varying(func(s float64) request { return searchRequest(patternC(1_000_000 + s)) }),
		fixed(searchRequest(ext[3])),
		varying(func(s float64) request { return searchRequest(patternE(0.5 + s/100_000)) }),
		fixed(searchRequest(ext[5])),
		fixed(searchRequest(ext[6])),
		fixed(sparqlRequest(qDescent)),
		fixed(sparqlRequest(qClosure)),
		varying(func(s float64) request {
			return sparqlRequest(fmt.Sprintf(qFilter, fmt.Sprintf("%d", 10_000_000+int(s))))
		}),
		varying(func(s float64) request { return sparqlRequest(fmt.Sprintf(qOptional, fmt.Sprintf("%d", 1000+int(s)))) }),
		varying(func(s float64) request { return sparqlRequest(fmt.Sprintf(qGroup, fmt.Sprintf("%d", 100+int(s)))) }),
	}

	in.Hot = []request{{Kind: "kbrun", Method: "POST", Path: "/api/kb/run"}}
	for _, p := range ext {
		in.Hot = append(in.Hot, searchRequest(p))
	}
	in.Hot = append(in.Hot,
		sparqlRequest(qDescent), sparqlRequest(qClosure),
		sparqlRequest(fmt.Sprintf(qFilter, "10000000")), sparqlRequest(fmt.Sprintf(qGroup, "100")))
	// The RDF reads go to resident plans no workload ever deletes.
	rng := rand.New(rand.NewSource(seed + 2))
	for _, i := range rng.Perm(z.Resident)[:4] {
		in.Hot = append(in.Hot, request{Kind: "rdf", Method: "GET", Path: "/api/plans/" + in.Resident[i].ID + "/rdf"})
	}
	in.GenSeconds = time.Since(start).Seconds()
	return in, nil
}

// ndjson frames plans for POST /api/plans:batch: one JSON string per line.
func ndjson(plans []plan) string {
	var b bytes.Buffer
	for _, p := range plans {
		line, _ := json.Marshal(p.Text) // a string always marshals
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.String()
}
