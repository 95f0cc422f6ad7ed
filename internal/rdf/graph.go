package rdf

import "sync/atomic"

// Graph is an in-memory RDF graph (triple store). Triples are dictionary
// encoded: every term is interned to a dense ID and three permutation
// indexes (SPO, POS, OSP) answer every bound/unbound combination of a triple
// pattern without scanning.
//
// A Graph is safe for concurrent readers once loading has finished; loading
// (Add) must not run concurrently with anything else. OptImatch builds one
// graph per query execution plan, then matches many patterns against it.
type Graph struct {
	dict *Dict

	spo map[ID]map[ID][]ID // subject -> predicate -> objects
	pos map[ID]map[ID][]ID // predicate -> object -> subjects
	osp map[ID]map[ID][]ID // object -> subject -> predicates

	// spoSets shadows large SPO buckets with a membership set so that bulk
	// loading stays linear per bucket; small buckets keep the plain slice
	// scan. The slices above remain the iteration source for Match, so
	// insertion order is preserved either way.
	spoSets map[[2]ID]map[ID]struct{}

	// acc holds the lazily built acceleration snapshots (per-predicate CSR
	// adjacency, distinct-node list, predicate totals); see csr.go. Add
	// invalidates it.
	acc atomic.Pointer[accel]

	size int
}

// dupSetThreshold is the SPO bucket size above which duplicate detection
// switches from a linear slice scan to a set probe.
const dupSetThreshold = 16

// NewGraph returns an empty graph with a fresh dictionary.
func NewGraph() *Graph {
	return &Graph{
		dict: NewDict(),
		spo:  make(map[ID]map[ID][]ID),
		pos:  make(map[ID]map[ID][]ID),
		osp:  make(map[ID]map[ID][]ID),
	}
}

// Dict exposes the graph's term dictionary. Callers must treat it as
// read-only; interning new terms is done through Add.
func (g *Graph) Dict() *Dict { return g.dict }

// Len reports the number of distinct triples in the graph.
func (g *Graph) Len() int { return g.size }

// Add inserts the triple (s, p, o). Duplicate triples are ignored.
// It reports whether the triple was newly inserted.
func (g *Graph) Add(s, p, o Term) bool {
	return g.AddIDs(g.dict.Intern(s), g.dict.Intern(p), g.dict.Intern(o))
}

// AddTriple inserts t. Duplicate triples are ignored.
func (g *Graph) AddTriple(t Triple) bool { return g.Add(t.S, t.P, t.O) }

// AddIDs inserts a triple given already-interned IDs. It reports whether the
// triple was newly inserted.
func (g *Graph) AddIDs(s, p, o ID) bool {
	g.invalidateAccel()
	ps := g.spo[s]
	if ps == nil {
		ps = make(map[ID][]ID)
		g.spo[s] = ps
	}
	objs := ps[p]
	if set, ok := g.spoSets[[2]ID{s, p}]; ok {
		if _, dup := set[o]; dup {
			return false
		}
		set[o] = struct{}{}
	} else {
		for _, existing := range objs {
			if existing == o {
				return false
			}
		}
		if len(objs)+1 > dupSetThreshold {
			set := make(map[ID]struct{}, 2*len(objs))
			for _, existing := range objs {
				set[existing] = struct{}{}
			}
			set[o] = struct{}{}
			if g.spoSets == nil {
				g.spoSets = make(map[[2]ID]map[ID]struct{})
			}
			g.spoSets[[2]ID{s, p}] = set
		}
	}
	ps[p] = append(objs, o)

	op := g.pos[p]
	if op == nil {
		op = make(map[ID][]ID)
		g.pos[p] = op
	}
	op[o] = append(op[o], s)

	so := g.osp[o]
	if so == nil {
		so = make(map[ID][]ID)
		g.osp[o] = so
	}
	so[s] = append(so[s], p)

	g.size++
	return true
}

// Has reports whether the triple (s, p, o) is in the graph.
func (g *Graph) Has(s, p, o Term) bool {
	sid, pid, oid := g.dict.Lookup(s), g.dict.Lookup(p), g.dict.Lookup(o)
	if sid == NoID || pid == NoID || oid == NoID {
		return false
	}
	return g.HasIDs(sid, pid, oid)
}

// HasIDs reports whether the fully bound triple is in the graph.
func (g *Graph) HasIDs(s, p, o ID) bool {
	if set, ok := g.spoSets[[2]ID{s, p}]; ok {
		_, present := set[o]
		return present
	}
	for _, existing := range g.spo[s][p] {
		if existing == o {
			return true
		}
	}
	return false
}

// Match calls fn for every triple matching the pattern, where NoID in any
// position acts as a wildcard. Iteration stops early when fn returns false.
// The iteration order is unspecified.
func (g *Graph) Match(s, p, o ID, fn func(s, p, o ID) bool) {
	switch {
	case s != NoID && p != NoID && o != NoID:
		if g.HasIDs(s, p, o) {
			fn(s, p, o)
		}
	case s != NoID && p != NoID:
		for _, obj := range g.spo[s][p] {
			if !fn(s, p, obj) {
				return
			}
		}
	case s != NoID && o != NoID:
		for _, pred := range g.osp[o][s] {
			if !fn(s, pred, o) {
				return
			}
		}
	case p != NoID && o != NoID:
		for _, subj := range g.pos[p][o] {
			if !fn(subj, p, o) {
				return
			}
		}
	case s != NoID:
		for pred, objs := range g.spo[s] {
			for _, obj := range objs {
				if !fn(s, pred, obj) {
					return
				}
			}
		}
	case p != NoID:
		for obj, subjs := range g.pos[p] {
			for _, subj := range subjs {
				if !fn(subj, p, obj) {
					return
				}
			}
		}
	case o != NoID:
		for subj, preds := range g.osp[o] {
			for _, pred := range preds {
				if !fn(subj, pred, o) {
					return
				}
			}
		}
	default:
		for subj, ps := range g.spo {
			for pred, objs := range ps {
				for _, obj := range objs {
					if !fn(subj, pred, obj) {
						return
					}
				}
			}
		}
	}
}

// Count estimates the number of triples matching the pattern (NoID =
// wildcard). For the (s,-,o) combination it returns an upper bound without
// enumerating; all other combinations are exact and O(1) — the (-,p,-) total
// through a snapshot counted once per graph (see predTotal) — or O(index
// bucket).
func (g *Graph) Count(s, p, o ID) int {
	switch {
	case s != NoID && p != NoID && o != NoID:
		if g.HasIDs(s, p, o) {
			return 1
		}
		return 0
	case s != NoID && p != NoID:
		return len(g.spo[s][p])
	case p != NoID && o != NoID:
		return len(g.pos[p][o])
	case s != NoID && o != NoID:
		return len(g.osp[o][s])
	case s != NoID:
		n := 0
		for _, objs := range g.spo[s] {
			n += len(objs)
		}
		return n
	case p != NoID:
		return g.predTotal(p)
	case o != NoID:
		n := 0
		for _, preds := range g.osp[o] {
			n += len(preds)
		}
		return n
	default:
		return g.size
	}
}

// MatchScan is a deliberately unindexed full-scan matcher with the same
// contract as Match. It exists only for the index ablation benchmark.
func (g *Graph) MatchScan(s, p, o ID, fn func(s, p, o ID) bool) {
	for subj, ps := range g.spo {
		if s != NoID && subj != s {
			continue
		}
		for pred, objs := range ps {
			if p != NoID && pred != p {
				continue
			}
			for _, obj := range objs {
				if o != NoID && obj != o {
					continue
				}
				if !fn(subj, pred, obj) {
					return
				}
			}
		}
	}
}

// Triples materializes every triple in the graph. Intended for tests and
// serialization, not for matching.
func (g *Graph) Triples() []Triple {
	out := make([]Triple, 0, g.size)
	g.Match(NoID, NoID, NoID, func(s, p, o ID) bool {
		out = append(out, Triple{g.dict.Term(s), g.dict.Term(p), g.dict.Term(o)})
		return true
	})
	return out
}

// Subjects returns the distinct subjects carrying predicate p with object o
// (either may be NoID as wildcard), as terms. Convenience for tests.
func (g *Graph) Subjects(p, o Term) []Term {
	pid := g.dict.Lookup(p)
	var oid ID
	if !o.Zero() {
		oid = g.dict.Lookup(o)
		if oid == NoID {
			return nil
		}
	}
	if pid == NoID {
		return nil
	}
	seen := make(map[ID]bool)
	var out []Term
	g.Match(NoID, pid, oid, func(s, _, _ ID) bool {
		if !seen[s] {
			seen[s] = true
			out = append(out, g.dict.Term(s))
		}
		return true
	})
	return out
}

// Objects returns the objects of (s, p) as terms. Convenience accessor used
// by the de-transformer and tests.
func (g *Graph) Objects(s, p Term) []Term {
	sid, pid := g.dict.Lookup(s), g.dict.Lookup(p)
	if sid == NoID || pid == NoID {
		return nil
	}
	objs := g.spo[sid][pid]
	out := make([]Term, len(objs))
	for i, o := range objs {
		out[i] = g.dict.Term(o)
	}
	return out
}

// FirstObject returns the single object of (s, p), or a zero Term when the
// edge is absent.
func (g *Graph) FirstObject(s, p Term) Term {
	objs := g.Objects(s, p)
	if len(objs) == 0 {
		return Term{}
	}
	return objs[0]
}
