package sparql

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"optimatch/internal/rdf"
)

// refEval is a naive reference implementation of property-path semantics
// used to cross-check evalPath: it materializes the relation of each path
// as a set of (s, o) pairs over the whole graph.
func refEval(g *rdf.Graph, p Path) map[[2]rdf.ID]bool {
	switch p := p.(type) {
	case PredPath:
		out := map[[2]rdf.ID]bool{}
		pid := g.Dict().Lookup(rdf.IRI(p.IRI))
		if pid == rdf.NoID {
			return out
		}
		g.Match(rdf.NoID, pid, rdf.NoID, func(s, _, o rdf.ID) bool {
			out[[2]rdf.ID{s, o}] = true
			return true
		})
		return out
	case InvPath:
		inner := refEval(g, p.Inner)
		out := make(map[[2]rdf.ID]bool, len(inner))
		for k := range inner {
			out[[2]rdf.ID{k[1], k[0]}] = true
		}
		return out
	case SeqPath:
		cur := refEval(g, p.Parts[0])
		for _, part := range p.Parts[1:] {
			next := refEval(g, part)
			joined := map[[2]rdf.ID]bool{}
			for a := range cur {
				for b := range next {
					if a[1] == b[0] {
						joined[[2]rdf.ID{a[0], b[1]}] = true
					}
				}
			}
			cur = joined
		}
		return cur
	case AltPath:
		out := map[[2]rdf.ID]bool{}
		for _, alt := range p.Alts {
			for k := range refEval(g, alt) {
				out[k] = true
			}
		}
		return out
	case ModPath:
		base := refEval(g, p.Inner)
		out := map[[2]rdf.ID]bool{}
		switch p.Mod {
		case ModZeroOrOne:
			for _, n := range refNodes(g) {
				out[[2]rdf.ID{n, n}] = true
			}
			for k := range base {
				out[k] = true
			}
		case ModOneOrMore, ModZeroOrMore:
			// Transitive closure: every pair found is extended by one base
			// step, until no step finds a new one.
			succ := map[rdf.ID][]rdf.ID{}
			var work [][2]rdf.ID
			for k := range base {
				succ[k[0]] = append(succ[k[0]], k[1])
				out[k] = true
				work = append(work, k)
			}
			for len(work) > 0 {
				a := work[len(work)-1]
				work = work[:len(work)-1]
				for _, o := range succ[a[1]] {
					if k := [2]rdf.ID{a[0], o}; !out[k] {
						out[k] = true
						work = append(work, k)
					}
				}
			}
			if p.Mod == ModZeroOrMore {
				for _, n := range refNodes(g) {
					out[[2]rdf.ID{n, n}] = true
				}
			}
		}
		return out
	default:
		panic("refEval: unsupported path")
	}
}

func refNodes(g *rdf.Graph) []rdf.ID {
	seen := map[rdf.ID]bool{}
	var out []rdf.ID
	g.Match(rdf.NoID, rdf.NoID, rdf.NoID, func(s, _, o rdf.ID) bool {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
		if !seen[o] {
			seen[o] = true
			out = append(out, o)
		}
		return true
	})
	return out
}

// collectPath gathers evalPath's output as a sorted pair list, with
// duplicates removed (closure paths have set semantics; plain alternatives
// may emit duplicates which the engine dedupes at extendTriple level).
func collectPath(g *rdf.Graph, p Path, s, o rdf.ID) [][2]rdf.ID {
	set := map[[2]rdf.ID]bool{}
	evalPath(&pathEnv{g: g}, p, s, o, func(ms, mo rdf.ID) bool {
		set[[2]rdf.ID{ms, mo}] = true
		return true
	})
	out := make([][2]rdf.ID, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

func filterRef(ref map[[2]rdf.ID]bool, s, o rdf.ID) [][2]rdf.ID {
	out := make([][2]rdf.ID, 0, len(ref))
	for k := range ref {
		if s != rdf.NoID && k[0] != s {
			continue
		}
		if o != rdf.NoID && k[1] != o {
			continue
		}
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// randomPathGraph builds a small random graph over a few predicates.
func randomPathGraph(seed int64) *rdf.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := rdf.NewBuilder()
	nodes := make([]rdf.Term, 6)
	for i := range nodes {
		nodes[i] = rdf.IRI(fmt.Sprintf("urn:n%d", i))
	}
	preds := []rdf.Term{rdf.IRI("urn:p"), rdf.IRI("urn:q"), rdf.IRI("urn:r")}
	n := 4 + rng.Intn(14)
	for i := 0; i < n; i++ {
		b.Add(nodes[rng.Intn(len(nodes))], preds[rng.Intn(len(preds))], nodes[rng.Intn(len(nodes))])
	}
	return b.Graph()
}

// randomPath builds a random path AST of bounded depth.
func randomPath(rng *rand.Rand, depth int) Path {
	preds := []string{"urn:p", "urn:q", "urn:r"}
	if depth <= 0 || rng.Float64() < 0.4 {
		return PredPath{IRI: preds[rng.Intn(len(preds))]}
	}
	switch rng.Intn(4) {
	case 0:
		return InvPath{Inner: randomPath(rng, depth-1)}
	case 1:
		return SeqPath{Parts: []Path{randomPath(rng, depth-1), randomPath(rng, depth-1)}}
	case 2:
		return AltPath{Alts: []Path{randomPath(rng, depth-1), randomPath(rng, depth-1)}}
	default:
		mods := []byte{ModOneOrMore, ModZeroOrMore, ModZeroOrOne}
		return ModPath{Inner: randomPath(rng, depth-1), Mod: mods[rng.Intn(len(mods))]}
	}
}

// TestPathAgainstReferenceProperty cross-checks evalPath with the naive
// reference for random graphs, random paths and every endpoint binding
// combination.
func TestPathAgainstReferenceProperty(t *testing.T) {
	check := func(seed int64) bool {
		g := randomPathGraph(seed)
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		p := randomPath(rng, 3)
		ref := refEval(g, p)

		// Bound endpoints over the graph's nodes (sorted so the pick is
		// reproducible; refNodes follows map iteration order).
		nodes := refNodes(g)
		sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
		var s, o rdf.ID
		if len(nodes) > 0 {
			s = nodes[rng.Intn(len(nodes))]
			o = nodes[rng.Intn(len(nodes))]
		}

		// Unbound-unbound.
		if !reflect.DeepEqual(collectPath(g, p, rdf.NoID, rdf.NoID), filterRef(ref, rdf.NoID, rdf.NoID)) {
			t.Logf("seed %d path %s: unbound mismatch", seed, pathString(p))
			return false
		}
		if len(nodes) == 0 {
			return true
		}
		if !reflect.DeepEqual(collectPath(g, p, s, rdf.NoID), filterRef(ref, s, rdf.NoID)) {
			t.Logf("seed %d path %s: s-bound mismatch", seed, pathString(p))
			return false
		}
		if !reflect.DeepEqual(collectPath(g, p, rdf.NoID, o), filterRef(ref, rdf.NoID, o)) {
			t.Logf("seed %d path %s: o-bound mismatch", seed, pathString(p))
			return false
		}
		if !reflect.DeepEqual(collectPath(g, p, s, o), filterRef(ref, s, o)) {
			t.Logf("seed %d path %s: both-bound mismatch", seed, pathString(p))
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestPathEarlyStop verifies that emit returning false stops enumeration
// through every path operator.
func TestPathEarlyStop(t *testing.T) {
	g := randomPathGraph(42)
	paths := []Path{
		PredPath{IRI: "urn:p"},
		InvPath{Inner: PredPath{IRI: "urn:p"}},
		SeqPath{Parts: []Path{PredPath{IRI: "urn:p"}, PredPath{IRI: "urn:q"}}},
		AltPath{Alts: []Path{PredPath{IRI: "urn:p"}, PredPath{IRI: "urn:q"}}},
		ModPath{Inner: PredPath{IRI: "urn:p"}, Mod: ModZeroOrMore},
		ModPath{Inner: PredPath{IRI: "urn:p"}, Mod: ModOneOrMore},
		ModPath{Inner: PredPath{IRI: "urn:p"}, Mod: ModZeroOrOne},
	}
	for _, p := range paths {
		total := 0
		evalPath(&pathEnv{g: g}, p, rdf.NoID, rdf.NoID, func(_, _ rdf.ID) bool {
			total++
			return true
		})
		if total < 2 {
			continue // nothing to stop early on
		}
		calls := 0
		stopped := evalPath(&pathEnv{g: g}, p, rdf.NoID, rdf.NoID, func(_, _ rdf.ID) bool {
			calls++
			return calls < 2
		})
		if stopped {
			t.Errorf("path %s: early stop not propagated", pathString(p))
		}
		if calls != 2 {
			t.Errorf("path %s: %d calls after stop, want 2", pathString(p), calls)
		}
	}
}
