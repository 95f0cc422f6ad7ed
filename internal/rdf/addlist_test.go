package rdf

import (
	"cmp"
	"slices"
)

// addList is a test's own record of what it added to a builder: the distinct
// triples, as IDs, in the order of their first Add. The graph keeps no log of
// its own, so every order its reads promise is held to this one.
type addList [][3]ID

// add records tr unless it is listed already: a later Add of a triple is a
// no-op.
func (l *addList) add(tr [3]ID) {
	if !slices.Contains(*l, tr) {
		*l = append(*l, tr)
	}
}

// addTriple adds t through b and records it.
func (l *addList) addTriple(b *Builder, t Triple) {
	b.AddTriple(t)
	d := b.Dict()
	l.add([3]ID{d.Lookup(t.S), d.Lookup(t.P), d.Lookup(t.O)})
}

// scan is the unindexed reference matcher: the listed triples matching the
// pattern (NoID = wildcard), in insertion order.
func (l addList) scan(s, p, o ID, fn func(s, p, o ID) bool) {
	for _, t := range l {
		if (s == NoID || t[0] == s) && (p == NoID || t[1] == p) && (o == NoID || t[2] == o) {
			if !fn(t[0], t[1], t[2]) {
				return
			}
		}
	}
}

// spo returns the list in SPO order — ascending subject, then predicate, the
// ties in insertion order — which is what Match(NoID, NoID, NoID, …) and
// Triples must yield.
func (l addList) spo() addList {
	out := slices.Clone(l)
	slices.SortStableFunc(out, func(a, b [3]ID) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	return out
}

// triples is the list as terms of d.
func (l addList) triples(d *Dict) []Triple {
	out := make([]Triple, len(l))
	for i, t := range l {
		out[i] = Triple{d.Term(t[0]), d.Term(t[1]), d.Term(t[2])}
	}
	return out
}
