package kb

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"optimatch/internal/qep"
	"optimatch/internal/rdf"
	"optimatch/internal/sparql"
	"optimatch/internal/transform"
	"optimatch/internal/workload"
)

// The oracle: occurrences as the engine built them before they were rows — a
// fresh alias -> term map per row —, ordered by the fingerprint string built
// from that map, and tags answered by looking the alias up in it (exact, then
// case-insensitively). What replaced each is checked against it below.

// asOccurrence builds the map-keyed occurrence of one row.
func asOccurrence(m transform.Match) Occurrence {
	bind := make(map[string]rdf.Term, len(m.Cells))
	for c, name := range m.Cols.Names() {
		bind[name] = m.Cells[c]
	}
	return Occurrence{Plan: m.Plan(), Result: m.Result, Bindings: bind}
}

// occurrenceKey is the fingerprint occurrences were sorted on: per binding,
// in alias order, "alias=value;".
func occurrenceKey(o Occurrence) string {
	keys := make([]string, 0, len(o.Bindings))
	for k := range o.Bindings {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(o.Bindings[k].Value)
		b.WriteByte(';')
	}
	return b.String()
}

// oracleBinding is the lookup a tag was answered with.
func oracleBinding(o Occurrence, alias string) (rdf.Term, bool) {
	if t, ok := o.Bindings[alias]; ok {
		return t, true
	}
	for k, t := range o.Bindings {
		if strings.EqualFold(k, alias) {
			return t, true
		}
	}
	return rdf.Term{}, false
}

// single is a one-column row holding t, for rendering one looked-up binding.
func single(o Occurrence, t rdf.Term) transform.Match {
	return transform.Match{Result: o.Result, Cols: transform.NewColumns([]string{""}), Cells: []rdf.Term{t}}
}

// oracleExpand renders a template by looking every tag's alias up in the map.
func oracleExpand(nodes []templateNode, o Occurrence) (string, error) {
	var b strings.Builder
	for _, n := range nodes {
		if n.literal != "" {
			b.WriteString(n.literal)
			continue
		}
		for i, alias := range n.aliases {
			t, ok := oracleBinding(o, alias)
			if !ok {
				return "", fmt.Errorf("kb: handler @%s is not bound in this occurrence", alias)
			}
			if i > 0 {
				b.WriteString(", ")
			}
			switch m := single(o, t); {
			case n.field != "":
				b.WriteString(fields[strings.ToUpper(n.field)](m, 0))
			case n.fn != "":
				b.WriteString(helpers[strings.ToUpper(n.fn)](m, 0))
			default:
				b.WriteString(m.Display(0))
			}
		}
	}
	return b.String(), nil
}

// oracleFeatures scores the map's bindings, in map order.
func oracleFeatures(o Occurrence) []float64 {
	m := transform.Match{Result: o.Result}
	for _, t := range o.Bindings {
		m.Cells = append(m.Cells, t)
	}
	return Features(m)
}

// OracleRecommend ranks the rows of an entry's result over r the way the
// map-keyed occurrences were ranked.
func OracleRecommend(e *Entry, r *transform.Result, res *sparql.Results) ([]Ranked, error) {
	occs := make([]Occurrence, 0, res.Len())
	for i := 0; i < res.Len(); i++ {
		bind := make(map[string]rdf.Term, len(res.Vars))
		for c, v := range res.Vars {
			bind[v] = res.At(i, c)
		}
		occs = append(occs, Occurrence{Plan: r.Plan, Result: r, Bindings: bind})
	}
	sort.SliceStable(occs, func(i, j int) bool { return occurrenceKey(occs[i]) < occurrenceKey(occs[j]) })
	var out []Ranked
	for ri, rec := range e.Recommendations {
		for i, o := range occs {
			if rec.MaxOccurrences > 0 && i >= rec.MaxOccurrences {
				break
			}
			text, err := oracleExpand(e.templates[ri], o)
			if err != nil {
				return nil, err
			}
			out = append(out, Ranked{Entry: e, Recommendation: rec, Text: text,
				Confidence: Confidence(e.Profile, oracleFeatures(o), rec.Weight)})
		}
	}
	SortRanked(out)
	return out, nil
}

// RenderRanked spells a ranked list exactly: entry, title, confidence to the
// last bit, text.
func RenderRanked(rs []Ranked) string {
	var b strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&b, "%s | %s | %b | %s\n", r.Entry.Name, r.Recommendation.Title, r.Confidence, r.Text)
	}
	return b.String()
}

// TestCompareRowsIsTheFingerprintOrder draws rows whose values hold ';', '=',
// digits and proper prefixes of each other — the bytes where comparing a value
// and comparing its fingerprint could part — under column tables whose alias
// order is not their column order, and holds compareRows to the comparison of
// the fingerprint strings, pair by pair and as a stable sort.
func TestCompareRowsIsTheFingerprintOrder(t *testing.T) {
	aliases := []string{"TOP", "T", "TO", "A1", "A", "B=", "X;", "INNER3"}
	const alphabet = "a12;=/"
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		names := slices.Clone(aliases)
		rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		cols := transform.NewColumns(names[:1+rng.Intn(4)])
		var stems []string // values share stems, so prefixes are common
		for i := 0; i < 4; i++ {
			stems = append(stems, randString(rng, alphabet, rng.Intn(4)))
		}
		rows := make([]transform.Match, 2+rng.Intn(30))
		for i := range rows {
			cells := make([]rdf.Term, len(cols.Names()))
			for c := range cells {
				cells[c] = rdf.IRI(stems[rng.Intn(len(stems))] + randString(rng, alphabet, rng.Intn(3)))
			}
			rows[i] = transform.Match{Result: &transform.Result{Plan: &qep.Plan{ID: fmt.Sprint(i)}}, Cols: cols, Cells: cells}
		}
		for _, a := range rows {
			for _, b := range rows {
				want := strings.Compare(occurrenceKey(asOccurrence(a)), occurrenceKey(asOccurrence(b)))
				if got := compareRows(a, b); sign(got) != want {
					t.Fatalf("seed %d: compareRows(%v, %v) = %d, the fingerprints compare %d (%q vs %q)",
						seed, a.Cells, b.Cells, got, want, occurrenceKey(asOccurrence(a)), occurrenceKey(asOccurrence(b)))
				}
			}
		}
		want := slices.Clone(rows)
		sort.SliceStable(want, func(i, j int) bool {
			return occurrenceKey(asOccurrence(want[i])) < occurrenceKey(asOccurrence(want[j]))
		})
		SortOccurrences(rows)
		for i := range rows {
			if rows[i].Result != want[i].Result {
				t.Fatalf("seed %d: position %d holds row %s, the fingerprint sort puts row %s there", seed, i, rows[i].Plan().ID, want[i].Plan().ID)
			}
		}
	}
}

func randString(rng *rand.Rand, alphabet string, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

func sign(n int) int {
	switch {
	case n < 0:
		return -1
	case n > 0:
		return 1
	}
	return 0
}

// TestRecommendMatchesOracle: over the 24-plan `qepgen -seed 42` workload,
// every extended entry's recommendations for every plan — text, confidence
// and order — are what the map-keyed occurrences gave.
func TestRecommendMatchesOracle(t *testing.T) {
	w, err := workload.Generate(workload.Config{
		Seed: 42, NumPlans: 24, MinOps: 30, MaxOps: 80, InjectA: 4, InjectB: 3, InjectC: 5, HardFraction: 0.35,
	})
	if err != nil {
		t.Fatal(err)
	}
	occurrences := 0
	for _, plan := range w.Plans {
		r := transform.Transform(plan)
		for _, e := range MustExtended().Entries() {
			res, err := e.Compiled().Parsed.Exec(r.Graph)
			if err != nil {
				t.Fatal(err)
			}
			want, err := OracleRecommend(e, r, res)
			if err != nil {
				t.Fatal(err)
			}
			got := e.Recommend(transform.AppendMatches(nil, r, e.Compiled().Columns, res.Rows))
			if RenderRanked(got) != RenderRanked(want) {
				t.Errorf("plan %s, entry %s:\n%s--- oracle ---\n%s", plan.ID, e.Name, RenderRanked(got), RenderRanked(want))
			}
			occurrences += res.Len()
		}
	}
	if occurrences == 0 {
		t.Fatal("no entry matched any plan: the comparison compared nothing")
	}
}
