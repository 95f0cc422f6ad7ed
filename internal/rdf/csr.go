package rdf

import (
	"sync"
	"sync/atomic"
)

// This file implements the graph's acceleration snapshots: per-predicate
// CSR (compressed sparse row) adjacency arrays, a cached distinct-node list
// and the per-predicate triple totals. All exploit the engine's central
// invariant — plan graphs are immutable after load — so each snapshot is built
// at most once per graph and then shared, lock-free, by every concurrent
// reader. A mutation through Add after a snapshot was built invalidates all
// snapshots; the next reader rebuilds them against the new state.

// CSR is an immutable compressed-sparse-row adjacency snapshot for a single
// predicate: forward (subject -> objects) and reverse (object -> subjects)
// edge arrays indexed by dense term ID. A closure BFS walks these flat
// slices instead of stepping through Match callbacks over the index maps.
//
// Neighbor lists preserve the insertion order Match iterates for the same
// (s, p, ·) / (·, p, o) probes, so a BFS over the snapshot discovers nodes
// in exactly the order a Match-driven walk would — result rows stay
// byte-identical with and without the snapshot.
type CSR struct {
	fwdOff []uint32
	fwd    []ID
	revOff []uint32
	rev    []ID
	edges  int
}

// Out returns the objects reachable from subject s over the snapshot's
// predicate, in insertion order. The slice is shared and must not be
// mutated.
func (c *CSR) Out(s ID) []ID {
	if int(s) >= len(c.fwdOff)-1 {
		return nil
	}
	return c.fwd[c.fwdOff[s]:c.fwdOff[s+1]]
}

// In returns the subjects pointing at object o over the snapshot's
// predicate, in insertion order. The slice is shared and must not be
// mutated.
func (c *CSR) In(o ID) []ID {
	if int(o) >= len(c.revOff)-1 {
		return nil
	}
	return c.rev[c.revOff[o]:c.revOff[o+1]]
}

// Edges reports the number of triples the snapshot covers.
func (c *CSR) Edges() int { return c.edges }

// Bytes reports the snapshot's memory footprint (offset and edge arrays).
func (c *CSR) Bytes() int {
	return 4 * (len(c.fwdOff) + len(c.fwd) + len(c.revOff) + len(c.rev))
}

// accel holds a graph's lazily built acceleration snapshots. The maps and
// slices behind the atomic pointers are immutable once published; builders
// serialize on mu and publish copy-on-write.
type accel struct {
	mu     sync.Mutex
	csr    atomic.Pointer[map[ID]*CSR]
	nodes  atomic.Pointer[[]ID]
	totals atomic.Pointer[map[ID]int]
}

// accel returns the graph's snapshot container, creating it on first use.
func (g *Graph) accel() *accel {
	if a := g.acc.Load(); a != nil {
		return a
	}
	a := &accel{}
	empty := map[ID]*CSR{}
	a.csr.Store(&empty)
	if g.acc.CompareAndSwap(nil, a) {
		return a
	}
	return g.acc.Load()
}

// invalidateAccel drops every cached snapshot. Called by Add, which by the
// graph's contract never runs concurrently with readers.
func (g *Graph) invalidateAccel() {
	if g.acc.Load() != nil {
		g.acc.Store(nil)
	}
}

// MaxID returns the largest dense term ID the graph's dictionary has issued.
// Valid IDs are 1..MaxID; bitsets and CSR offset arrays are sized off it.
func (g *Graph) MaxID() ID { return ID(g.dict.Len()) }

// NodeIDs returns every distinct term ID used as a subject or an object, in
// ascending ID (= first-interned) order. The list is built once per graph
// and cached; callers must treat it as read-only. Zero-length property paths
// and unanchored closures enumerate it instead of rescanning every triple.
func (g *Graph) NodeIDs() []ID {
	a := g.accel()
	if ns := a.nodes.Load(); ns != nil {
		return *ns
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if ns := a.nodes.Load(); ns != nil {
		return *ns
	}
	max := g.MaxID()
	out := make([]ID, 0, max)
	for id := ID(1); id <= max; id++ {
		if _, ok := g.spo[id]; ok {
			out = append(out, id)
			continue
		}
		if _, ok := g.osp[id]; ok {
			out = append(out, id)
		}
	}
	a.nodes.Store(&out)
	return out
}

// predTotal returns the number of triples carrying predicate p. The totals
// of every predicate are counted in one pass over the POS index the first
// time any is asked for, so the join-order heuristic, which asks once per
// triple pattern per evaluation, reads them in O(1).
func (g *Graph) predTotal(p ID) int {
	a := g.accel()
	if t := a.totals.Load(); t != nil {
		return (*t)[p]
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if t := a.totals.Load(); t != nil {
		return (*t)[p]
	}
	totals := make(map[ID]int, len(g.pos))
	for pred, byObj := range g.pos {
		n := 0
		for _, subjs := range byObj {
			n += len(subjs)
		}
		totals[pred] = n
	}
	a.totals.Store(&totals)
	return totals[p]
}

// PredCSR returns the CSR adjacency snapshot for predicate p, building and
// caching it on first use. The bool reports whether this call built the
// snapshot (false: served from cache). Safe for concurrent use.
func (g *Graph) PredCSR(p ID) (*CSR, bool) {
	a := g.accel()
	if m := a.csr.Load(); m != nil {
		if c, ok := (*m)[p]; ok {
			return c, false
		}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	old := a.csr.Load()
	if c, ok := (*old)[p]; ok {
		return c, false
	}
	c := g.buildCSR(p)
	next := make(map[ID]*CSR, len(*old)+1)
	for k, v := range *old {
		next[k] = v
	}
	next[p] = c
	a.csr.Store(&next)
	return c, true
}

// buildCSR assembles the forward and reverse adjacency arrays for predicate
// p. Two passes per direction: count degrees, prefix-sum into offsets, fill.
// Iterating subjects and objects in ascending dense-ID order keeps the build
// deterministic and each neighbor list in the index's insertion order.
func (g *Graph) buildCSR(p ID) *CSR {
	n := int(g.MaxID())
	c := &CSR{
		fwdOff: make([]uint32, n+2),
		revOff: make([]uint32, n+2),
	}
	for sid := ID(1); sid <= ID(n); sid++ {
		c.fwdOff[sid+1] = uint32(len(g.spo[sid][p]))
	}
	po := g.pos[p]
	for oid := ID(1); oid <= ID(n); oid++ {
		c.revOff[oid+1] = uint32(len(po[oid]))
	}
	for i := 1; i < len(c.fwdOff); i++ {
		c.fwdOff[i] += c.fwdOff[i-1]
		c.revOff[i] += c.revOff[i-1]
	}
	c.edges = int(c.fwdOff[n+1])
	c.fwd = make([]ID, c.edges)
	c.rev = make([]ID, c.revOff[n+1])
	for sid := ID(1); sid <= ID(n); sid++ {
		copy(c.fwd[c.fwdOff[sid]:], g.spo[sid][p])
	}
	for oid := ID(1); oid <= ID(n); oid++ {
		copy(c.rev[c.revOff[oid]:], po[oid])
	}
	return c
}
