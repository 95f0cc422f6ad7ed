package sparql_test

import (
	"slices"
	"testing"

	"optimatch/internal/kb"
	"optimatch/internal/sparql"
	"optimatch/internal/transform"
	"optimatch/internal/workload"
)

// soundnessShapes probe the analyzer's blind spots with a constant no
// generated plan contains: where it is not required (under OPTIONAL, in one
// UNION branch, under NOT EXISTS) the evaluator must not bail out on it; a
// zero-or-more path over a predicate some graphs lack requires nothing of
// that predicate; and where the constant is required, every graph bails out.
// The last shape is the one absent everywhere.
var soundnessShapes = []struct{ name, text string }{
	{"absent under OPTIONAL", `
SELECT ?pop ?x WHERE {
  ?pop preduri:hasPopType "NLJOIN" .
  OPTIONAL { ?pop preduri:hasPopType "NO_SUCH_TYPE" . ?pop preduri:hasPopType ?x }
}`},
	{"absent in one UNION branch", `
SELECT ?pop WHERE {
  { ?pop preduri:hasPopType "NO_SUCH_TYPE" } UNION { ?pop preduri:hasPopType "TBSCAN" }
}`},
	{"absent under NOT EXISTS", `
SELECT ?pop WHERE {
  ?pop preduri:hasPopType "HSJOIN" .
  FILTER NOT EXISTS { ?pop preduri:hasPopType "NO_SUCH_TYPE" }
}`},
	{"star path over a predicate some graphs lack", `
SELECT ?pop WHERE {
  ?pop preduri:hasPopType "TBSCAN" .
  ?pop preduri:hasChildPop* ?desc .
  ?desc preduri:isABaseObj true .
}`},
	{"required and absent everywhere", `
SELECT ?pop WHERE { ?pop preduri:hasPopType "NO_SUCH_TYPE" }`},
}

// TestRequiredConstantSoundness is the oracle of the one vocabulary test the
// system has, ExecOpts' required-constant bail-out, over every knowledge-base
// entry and the shapes above on generated workloads. Per (query, graph):
// ExecOpts and the algebra oracle — which has no bail-out and never
// consults the analysis — return the same row multiset; ExecOpts bails out
// exactly when Analysis.RequiredIn, the term-space statement of the same
// verdict, is false; and then the reference really has no rows.
func TestRequiredConstantSoundness(t *testing.T) {
	type namedQuery struct {
		name  string
		q     *sparql.Query
		entry bool // a knowledge-base entry, not one of the shapes
	}
	var queries []namedQuery
	parse := func(name, text string, entry bool) {
		q, err := sparql.Parse(text)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		queries = append(queries, namedQuery{name, q, entry})
	}
	for _, entry := range kb.MustExtended().Entries() {
		parse(entry.Name, entry.SPARQL, true)
	}
	for _, shape := range soundnessShapes {
		parse(shape.name, transform.Prologue+shape.text, false)
	}
	absentEverywhere := queries[len(queries)-1].name

	for _, seed := range []int64{1, 7, 2016} {
		w, err := workload.Generate(workload.Config{
			Seed: seed, NumPlans: 40, MinOps: 30, MaxOps: 90,
			InjectA: 6, InjectB: 5, InjectC: 7, InjectD: 4, InjectG: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		bailedEntries, matched := 0, 0
		for _, r := range transform.TransformAll(w.Plans) {
			for _, nq := range queries {
				var stats sparql.EvalStats
				got, err := nq.q.ExecOpts(r.Graph, sparql.ExecOptions{Stats: &stats})
				if err != nil {
					t.Fatal(err)
				}
				want := sparql.ExecReference(nq.q, r.Graph)
				gotRows, wantRows := sparql.RowStrings(got), sparql.RowStrings(want)
				slices.Sort(gotRows)
				slices.Sort(wantRows)
				if !slices.Equal(gotRows, wantRows) {
					t.Fatalf("seed %d, %s on plan %s: rows diverge from the reference\n got: %q\nwant: %q",
						seed, nq.name, r.Plan.ID, gotRows, wantRows)
				}
				matched += want.Len()

				bailouts := stats.Snapshot().ConstantBailouts
				if nq.q.Analysis().RequiredIn(r.Graph) {
					if bailouts != 0 || nq.name == absentEverywhere {
						t.Fatalf("seed %d, %s on plan %s: RequiredIn holds, %d bail-outs", seed, nq.name, r.Plan.ID, bailouts)
					}
					continue
				}
				if want.Len() != 0 {
					t.Fatalf("seed %d: RequiredIn rules out %s on plan %s, which has %d matches",
						seed, nq.name, r.Plan.ID, want.Len())
				}
				if bailouts != 1 {
					t.Fatalf("seed %d, %s on plan %s: RequiredIn is false, ExecOpts counted %d bail-outs, want 1",
						seed, nq.name, r.Plan.ID, bailouts)
				}
				if nq.entry {
					bailedEntries++
				}
			}
		}
		if bailedEntries == 0 || matched == 0 {
			t.Fatalf("seed %d: %d knowledge-base pairs bailed out, %d rows matched; the check is vacuous", seed, bailedEntries, matched)
		}
	}
}

// TestAnalysisOracleKB holds Analysis.Required and Analysis.Consts of every
// entry of the extended knowledge base to the oracle, in order.
func TestAnalysisOracleKB(t *testing.T) {
	for _, e := range kb.MustExtended().Entries() {
		q, err := sparql.Parse(e.SPARQL)
		if err != nil {
			t.Fatal(err)
		}
		a := q.Analysis()
		if required, consts := sparql.AnalysisOracle(q); !slices.Equal(a.Required, required) || !slices.Equal(a.Consts, consts) {
			t.Errorf("%s: Required %v, Consts %v\nthe oracle: %v, %v", e.Name, a.Required, a.Consts, required, consts)
		}
	}
}
