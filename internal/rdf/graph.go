package rdf

import (
	"cmp"
	"math"
	"slices"
)

// Graph is an in-memory RDF graph (triple store). Triples are dictionary
// encoded: every term is interned to a dense ID, and the triples are kept
// only as one immutable index (see index.go) of two permutations, SPO and
// POS. SPO is the set of triples itself; together they answer every
// bound/unbound combination of a triple pattern without scanning the graph.
//
// A Graph is read-only: a Builder writes one, and Builder.Graph returns it
// with its index built, so it is safe for concurrent readers from birth.
// OptImatch builds one graph per query execution plan, then matches many
// patterns against it.
type Graph struct {
	dict *Dict
	idx  *index
}

// Builder writes the one Graph its Graph method returns. Nothing else may
// touch it meanwhile. An Add only appends to the builder's log: a triple
// added twice sits in it twice until Graph, whose index build sorts the log
// anyway and drops every occurrence but the first. The graph keeps the
// index, not the log.
type Builder struct {
	dict *Dict   // nil once Graph has handed it over
	log  [][3]ID // triples (s, p, o) in insertion order
}

// NewBuilder returns a builder of an empty graph with a fresh dictionary.
func NewBuilder() *Builder { return NewBuilderSize(0, 0, 0) }

// NewBuilderSize returns a builder with room for terms distinct terms held as
// terms, numbers distinct numbers (see Dict) and triples Adds, for a caller
// that can count them beforehand: neither the dictionary nor the log then
// grows by copying itself.
func NewBuilderSize(terms, numbers, triples int) *Builder {
	return &Builder{dict: newDictSize(terms, numbers), log: make([][3]ID, 0, triples)}
}

// Dict exposes the dictionary being built, read-only; terms are interned
// through Add or Intern. Like every method of a builder whose Graph was
// taken, it panics.
func (b *Builder) Dict() *Dict {
	if b.dict == nil {
		panic("rdf: Builder used after Graph")
	}
	return b.dict
}

// Intern returns the ID of t in the dictionary, issuing the next one when t
// is new. A caller that uses a term in many triples interns it once and adds
// the triples with AddIDs.
func (b *Builder) Intern(t Term) ID { return b.Dict().intern(t) }

// InternFloat is Intern(Float(f)) for a caller that holds the number: the
// dictionary keeps its float bits (of a NaN, those of the one NaN strconv
// returns, which is what Term.Float reads from "NaN") and never formats it.
func (b *Builder) InternFloat(f float64) ID {
	if f != f {
		f = math.NaN()
	}
	return b.Dict().add(Term{}, numKey{refDouble, math.Float64bits(f)})
}

// Add inserts the triple (s, p, o); a triple already in the graph is ignored.
func (b *Builder) Add(s, p, o Term) {
	d := b.Dict()
	b.AddIDs(d.intern(s), d.intern(p), d.intern(o))
}

// AddTriple inserts t; a triple already in the graph is ignored.
func (b *Builder) AddTriple(t Triple) { b.Add(t.S, t.P, t.O) }

// AddIDs inserts a triple given already-interned IDs. It panics on an ID the
// dictionary never issued (the index is sized off the graph's MaxID).
func (b *Builder) AddIDs(s, p, o ID) {
	if max(s, p, o) > ID(b.Dict().Len()) || min(s, p, o) == NoID {
		panic("rdf: AddIDs with an ID the dictionary never issued")
	}
	b.log = append(b.log, [3]ID{s, p, o})
}

// Graph ends the building: it freezes the dictionary, which cuts it to its
// size, indexes the log and hands the dictionary and the index to the graph
// it returns; the log is dropped. The builder keeps nothing, so no later call
// can reach the graph: each one panics.
func (b *Builder) Graph() *Graph {
	d, log := b.Dict(), b.log
	b.dict, b.log = nil, nil
	d.freeze()
	return &Graph{dict: d, idx: buildIndex(log, d.num)}
}

// clip returns s without spare capacity, in a new array if it has any.
func clip[S ~[]E, E any](s S) S {
	if cap(s) == len(s) {
		return s
	}
	return append(make(S, 0, len(s)), s...)
}

// Dict exposes the graph's term dictionary, read-only.
func (g *Graph) Dict() *Dict { return g.dict }

// Len reports the number of distinct triples in the graph.
func (g *Graph) Len() int { return len(g.idx.spo.b) }

// MaxID returns the largest dense term ID the graph's dictionary has issued.
// Valid IDs are 1..MaxID; bitsets and the index's offset arrays are sized off
// it.
func (g *Graph) MaxID() ID { return ID(g.dict.Len()) }

// Has reports whether the triple (s, p, o) is in the graph.
func (g *Graph) Has(s, p, o Term) bool {
	sid, pid, oid := g.dict.Lookup(s), g.dict.Lookup(p), g.dict.Lookup(o)
	if sid == NoID || pid == NoID || oid == NoID {
		return false
	}
	return g.HasIDs(sid, pid, oid)
}

// HasIDs reports whether the fully bound triple is in the graph.
func (g *Graph) HasIDs(s, p, o ID) bool { return g.idx.has(s, p, o) }

// ObjectIDs returns the objects of (s, p) in insertion order. The slice is
// shared with the index and must not be mutated. This and SubjectIDs are the
// adjacency lists a property-path closure walks.
func (g *Graph) ObjectIDs(s, p ID) []ID { return g.idx.spo.third(s, p) }

// SubjectIDs returns the subjects of (p, o) in insertion order. The slice is
// shared with the index and must not be mutated.
func (g *Graph) SubjectIDs(p, o ID) []ID { return g.idx.pos.third(p, o) }

// NodeIDs returns every distinct term ID used as a subject or an object, in
// ascending ID (= first-interned) order. The list is part of the index;
// callers must treat it as read-only. Zero-length property paths and
// unanchored closures enumerate it instead of rescanning every triple.
func (g *Graph) NodeIDs() []ID { return g.idx.nodes }

// Float is Term.Float of the term behind id, read from the column parsed when
// the graph was built: FILTERs over cardinalities and costs compare the same few
// literals for every row of every evaluation.
func (g *Graph) Float(id ID) (float64, bool) {
	num := g.idx.num
	if num[id] == notNumber {
		return 0, false
	}
	return math.Float64frombits(num[id]), true
}

// PredStats returns the statistics of predicate p, nil when no triple
// carries it: a binary search over the predicates in use. The entry is part
// of the index; callers must treat it as read-only.
func (g *Graph) PredStats(p ID) *PredStats {
	preds := g.idx.preds
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
// insertion order (closure walks and the golden reports rely on both), and
// (-,p,-) runs by ascending object, its ties in insertion order. Every shape
// with a free predicate — (s,-,o), (s,-,-), (-,-,o) and (-,-,-) — yields SPO
// order: ascending subject, then predicate, the objects of one (s, p) in
// insertion order. That is the order of Triples. Two graphs built by the same
// Add sequence iterate alike.
func (g *Graph) Match(s, p, o ID, fn func(s, p, o ID) bool) {
	ix := g.idx
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
	case p != NoID && o != NoID:
		for _, subj := range ix.pos.third(p, o) {
			if !fn(subj, p, o) {
				return
			}
		}
	case s != NoID: // (s,-,o) filters s's bucket on o
		for i, end := ix.spo.bucket(s); i < end; i++ {
			if (o == NoID || ix.spo.c[i] == o) && !fn(s, ix.spo.b[i], ix.spo.c[i]) {
				return
			}
		}
	case p != NoID:
		for i, end := ix.pos.bucket(p); i < end; i++ {
			if !fn(ix.pos.c[i], p, ix.pos.b[i]) {
				return
			}
		}
	case o != NoID: // one POS probe per predicate in use, sorted into SPO order
		var keys []uint64
		for _, st := range ix.preds {
			for _, subj := range ix.pos.third(st.Pred, o) {
				keys = append(keys, uint64(subj)<<32|uint64(st.Pred))
			}
		}
		slices.Sort(keys)
		for _, k := range keys {
			if !fn(ID(k>>32), ID(k), o) {
				return
			}
		}
	default:
		for s := ID(1); int(s) < len(ix.spo.off)-1; s++ {
			for i, end := ix.spo.bucket(s); i < end; i++ {
				if !fn(s, ix.spo.b[i], ix.spo.c[i]) {
					return
				}
			}
		}
	}
}

// Count reports the number of triples matching the pattern (NoID =
// wildcard), exactly and without allocating. Every combination with a bound
// predicate, and (s,-,-), is read off the index's offset arrays: an offset
// difference for the single-bound shapes, two short binary searches inside
// one bucket for the double-bound ones. (s,-,o) counts o in s's SPO bucket;
// (-,-,o) sums one POS probe per predicate in use.
func (g *Graph) Count(s, p, o ID) int {
	ix := g.idx
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
	case p != NoID:
		lo, hi := ix.pos.bucket(p)
		return hi - lo
	case s != NoID && o != NoID:
		lo, hi := ix.spo.bucket(s)
		n := 0
		for _, obj := range ix.spo.c[lo:hi] {
			if obj == o {
				n++
			}
		}
		return n
	case s != NoID:
		lo, hi := ix.spo.bucket(s)
		return hi - lo
	case o != NoID:
		n := 0
		for _, st := range ix.preds {
			n += len(ix.pos.third(st.Pred, o))
		}
		return n
	default:
		return g.Len()
	}
}

// Triples materializes every triple in the graph, in SPO order: what
// Match(NoID, NoID, NoID, …) yields. Intended for tests, not for matching.
func (g *Graph) Triples() []Triple {
	out := make([]Triple, 0, g.Len())
	g.Match(NoID, NoID, NoID, func(s, p, o ID) bool {
		out = append(out, Triple{g.dict.Term(s), g.dict.Term(p), g.dict.Term(o)})
		return true
	})
	return out
}

// Subjects returns the distinct subjects carrying predicate p with object o
// (o may be the zero Term as wildcard), as terms. Convenience for tests.
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

// Objects returns the objects of (s, p) as terms, in insertion order: a
// convenience for tests, as are Subjects and FirstObject.
func (g *Graph) Objects(s, p Term) []Term {
	sid, pid := g.dict.Lookup(s), g.dict.Lookup(p)
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
