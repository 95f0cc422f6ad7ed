package rdf

import (
	"cmp"
	"math"
	"slices"
	"sync"
)

// Graph is an in-memory RDF graph (triple store). Triples are dictionary
// encoded: every term is interned to a dense ID, the triples are kept as an
// insertion-ordered log, and one immutable index over that log (see
// index.go) answers every bound/unbound combination of a triple pattern
// without scanning.
//
// A graph is built, then read, and has two states. While it is being built
// (Add, Intern) nothing else may touch it. An Add only appends: a triple
// added twice sits in the log twice until the index build, which sorts the
// log anyway, drops every occurrence but the first. The first read — any
// method that consults the index, Len included — or an explicit Freeze
// freezes the graph: it builds the index once, and from then on every Add or
// Intern panics and the graph is safe for concurrent readers. OptImatch
// builds one graph per query execution plan, freezes it, then matches many
// patterns against it.
type Graph struct {
	dict *Dict

	log [][3]ID // triples (s, p, o) in insertion order; distinct once frozen

	freeze sync.Once
	idx    *index // nil until the graph is frozen
}

// NewGraph returns an empty graph with a fresh dictionary.
func NewGraph() *Graph { return NewGraphSize(0, 0, 0) }

// NewGraphSize returns an empty graph with room for terms distinct terms held
// as terms, numbers distinct numbers (see Dict) and triples Adds, for a
// builder that can count them beforehand: neither the dictionary nor the log
// then grows by copying itself.
func NewGraphSize(terms, numbers, triples int) *Graph {
	return &Graph{dict: newDictSize(terms, numbers), log: make([][3]ID, 0, triples)}
}

// Dict exposes the graph's term dictionary. Callers must treat it as
// read-only; terms are interned through Add or Intern.
func (g *Graph) Dict() *Dict { return g.dict }

// Len reports the number of distinct triples in the graph.
func (g *Graph) Len() int { return len(g.triples()) }

// triples returns the log once the index build has dropped its duplicates.
func (g *Graph) triples() [][3]ID {
	g.index()
	return g.log
}

// MaxID returns the largest dense term ID the graph's dictionary has issued.
// Valid IDs are 1..MaxID; bitsets and the index's offset arrays are sized off
// it.
func (g *Graph) MaxID() ID { return ID(g.dict.Len()) }

// Intern returns the ID of t in the graph's dictionary, issuing the next one
// when t is new. A builder that uses a term in many triples interns it once
// and adds the triples with AddIDs. Intern panics on a frozen graph.
func (g *Graph) Intern(t Term) ID {
	g.mustBeMutable()
	return g.dict.Intern(t)
}

// InternFloat is Intern(Float(f)) for a builder that holds the number: the
// dictionary keeps its float bits (of a NaN, those of the one NaN strconv
// returns, which is what Term.Float reads from "NaN") and never formats it.
func (g *Graph) InternFloat(f float64) ID {
	g.mustBeMutable()
	if f != f {
		f = math.NaN()
	}
	return g.dict.internNumber(numKey{refDouble, math.Float64bits(f)})
}

// Add inserts the triple (s, p, o); a triple already in the graph is ignored.
// Add panics on a frozen graph.
func (g *Graph) Add(s, p, o Term) {
	g.mustBeMutable()
	g.AddIDs(g.dict.Intern(s), g.dict.Intern(p), g.dict.Intern(o))
}

// AddTriple inserts t; a triple already in the graph is ignored.
func (g *Graph) AddTriple(t Triple) { g.Add(t.S, t.P, t.O) }

// AddIDs inserts a triple given already-interned IDs. It panics on a frozen
// graph or on an ID the graph's dictionary never issued (the index is sized
// off MaxID).
func (g *Graph) AddIDs(s, p, o ID) {
	g.mustBeMutable()
	if max(s, p, o) > g.MaxID() || min(s, p, o) == NoID {
		panic("rdf: AddIDs with an ID the dictionary never issued")
	}
	g.log = append(g.log, [3]ID{s, p, o})
}

// mustBeMutable panics when the graph was frozen: like Dict.Term on an ID it
// never issued, an Add after the first read is always a programming error.
func (g *Graph) mustBeMutable() {
	if g.idx != nil {
		panic("rdf: Add on a frozen graph")
	}
}

// Freeze ends the graph's building phase now rather than at its first read,
// so no reader pays for the index. Freezing is one-way and idempotent.
func (g *Graph) Freeze() { g.index() }

// clip returns s without spare capacity, in a new array if it has any.
func clip[S ~[]E, E any](s S) S {
	if cap(s) == len(s) {
		return s
	}
	return append(make(S, 0, len(s)), s...)
}

// index returns the graph's index, freezing the graph on first use. Reads
// that race the first one wait for it.
func (g *Graph) index() *index {
	g.freeze.Do(g.build)
	return g.idx
}

// build freezes the graph: it freezes the dictionary, which completes the
// numeric column, indexes the log and cuts the log to its length. index runs
// it once.
func (g *Graph) build() {
	g.dict.freeze()
	g.idx, g.log = buildIndex(g.log, g.dict.num)
	g.log = clip(g.log)
}

// Has reports whether the triple (s, p, o) is in the graph.
func (g *Graph) Has(s, p, o Term) bool {
	sid, pid, oid := g.lookup(s), g.lookup(p), g.lookup(o)
	if sid == NoID || pid == NoID || oid == NoID {
		return false
	}
	return g.HasIDs(sid, pid, oid)
}

// lookup is Dict.Lookup for a read, which freezes the graph first: the freeze
// swaps the dictionary's map of numbers for a sorted list, so a lookup must
// not race it.
func (g *Graph) lookup(t Term) ID {
	g.index()
	return g.dict.Lookup(t)
}

// HasIDs reports whether the fully bound triple is in the graph.
func (g *Graph) HasIDs(s, p, o ID) bool { return g.index().has(s, p, o) }

// ObjectIDs returns the objects of (s, p) in insertion order. The slice is
// shared with the index and must not be mutated. This and SubjectIDs are the
// adjacency lists a property-path closure walks.
func (g *Graph) ObjectIDs(s, p ID) []ID { return g.index().spo.third(s, p) }

// SubjectIDs returns the subjects of (p, o) in insertion order. The slice is
// shared with the index and must not be mutated.
func (g *Graph) SubjectIDs(p, o ID) []ID { return g.index().pos.third(p, o) }

// NodeIDs returns every distinct term ID used as a subject or an object, in
// ascending ID (= first-interned) order. The list is part of the index;
// callers must treat it as read-only. Zero-length property paths and
// unanchored closures enumerate it instead of rescanning every triple.
func (g *Graph) NodeIDs() []ID { return g.index().nodes }

// Float is Term.Float of the term behind id, read from the column parsed when
// the graph froze: FILTERs over cardinalities and costs compare the same few
// literals for every row of every evaluation.
func (g *Graph) Float(id ID) (float64, bool) {
	num := g.index().num
	if num[id] == notNumber {
		return 0, false
	}
	return math.Float64frombits(num[id]), true
}

// PredStats returns the statistics of predicate p, nil when no triple
// carries it: a binary search over the predicates in use. The entry is part
// of the index; callers must treat it as read-only.
func (g *Graph) PredStats(p ID) *PredStats {
	preds := g.index().preds
	i, found := slices.BinarySearchFunc(preds, p, func(e PredStats, p ID) int { return cmp.Compare(e.Pred, p) })
	if !found {
		return nil
	}
	return &preds[i]
}

// Match calls fn for every triple matching the pattern, where NoID in any
// position acts as a wildcard. Iteration stops early when fn returns false.
//
// The iteration order is a function of the sequence of Adds that built the
// graph, never of a map: (s,p,-) yields objects and (-,p,o) subjects in
// insertion order (closure walks and the golden reports rely on both),
// (s,-,o) predicates likewise, (-,-,-) is the insertion order itself, and
// the single-bound shapes run in ascending ID of the next component —
// (s,-,-) by predicate, (-,p,-) by object, (-,-,o) by subject — with ties in
// insertion order. Two graphs built by the same Add sequence iterate alike.
func (g *Graph) Match(s, p, o ID, fn func(s, p, o ID) bool) {
	ix := g.index()
	switch {
	case s != NoID && p != NoID && o != NoID:
		if ix.has(s, p, o) {
			fn(s, p, o)
		}
	case s != NoID && p != NoID:
		for _, obj := range ix.spo.third(s, p) {
			if !fn(s, p, obj) {
				return
			}
		}
	case s != NoID && o != NoID:
		for _, pred := range ix.osp.third(o, s) {
			if !fn(s, pred, o) {
				return
			}
		}
	case p != NoID && o != NoID:
		for _, subj := range ix.pos.third(p, o) {
			if !fn(subj, p, o) {
				return
			}
		}
	case s != NoID:
		for i, end := ix.spo.bucket(s); i < end; i++ {
			if !fn(s, ix.spo.b[i], ix.spo.c[i]) {
				return
			}
		}
	case p != NoID:
		for i, end := ix.pos.bucket(p); i < end; i++ {
			if !fn(ix.pos.c[i], p, ix.pos.b[i]) {
				return
			}
		}
	case o != NoID:
		for i, end := ix.osp.bucket(o); i < end; i++ {
			if !fn(ix.osp.b[i], ix.osp.c[i], o) {
				return
			}
		}
	default:
		g.MatchScan(NoID, NoID, NoID, fn)
	}
}

// Count reports the number of triples matching the pattern (NoID =
// wildcard). Every combination is exact and read off the index's offset
// arrays: an offset difference for the single-bound shapes, two short binary
// searches inside one bucket for the double-bound ones.
func (g *Graph) Count(s, p, o ID) int {
	ix := g.index()
	switch {
	case s != NoID && p != NoID && o != NoID:
		if ix.has(s, p, o) {
			return 1
		}
		return 0
	case s != NoID && p != NoID:
		return len(ix.spo.third(s, p))
	case p != NoID && o != NoID:
		return len(ix.pos.third(p, o))
	case s != NoID && o != NoID:
		return len(ix.osp.third(o, s))
	case s != NoID:
		lo, hi := ix.spo.bucket(s)
		return hi - lo
	case p != NoID:
		lo, hi := ix.pos.bucket(p)
		return hi - lo
	case o != NoID:
		lo, hi := ix.osp.bucket(o)
		return hi - lo
	default:
		return len(g.log) // distinct: ix was built over it
	}
}

// MatchScan is a deliberately unindexed matcher with the same contract as
// Match: a filtered scan of the insertion log. It is the reference the index
// is tested against and the baseline of the index ablation
// (experiments.AblationIndexes, cmd/experiments -ablations).
func (g *Graph) MatchScan(s, p, o ID, fn func(s, p, o ID) bool) {
	for _, t := range g.triples() {
		if (s == NoID || t[0] == s) && (p == NoID || t[1] == p) && (o == NoID || t[2] == o) {
			if !fn(t[0], t[1], t[2]) {
				return
			}
		}
	}
}

// Triples materializes every triple in the graph, in insertion order.
// Intended for tests and serialization, not for matching.
func (g *Graph) Triples() []Triple {
	log := g.triples()
	out := make([]Triple, len(log))
	for i, t := range log {
		out[i] = Triple{g.dict.Term(t[0]), g.dict.Term(t[1]), g.dict.Term(t[2])}
	}
	return out
}

// Subjects returns the distinct subjects carrying predicate p with object o
// (o may be the zero Term as wildcard), as terms. Convenience for tests.
func (g *Graph) Subjects(p, o Term) []Term {
	pid := g.lookup(p)
	var oid ID
	if !o.Zero() {
		oid = g.lookup(o)
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
	sid, pid := g.lookup(s), g.lookup(p)
	if sid == NoID || pid == NoID {
		return nil
	}
	objs := g.ObjectIDs(sid, pid)
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
