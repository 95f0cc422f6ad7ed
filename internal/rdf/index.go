package rdf

// index is the one immutable index over a graph's triple log: the three
// permutations SPO, POS and OSP as pointer-free columns, plus the distinct
// node list. It exploits the engine's central invariant — plan graphs are
// immutable after load — so it is built once (by Freeze, or by the first
// read of a graph still being assembled) and then shared, lock-free, by
// every concurrent reader. An Add after it was built discards it; the next
// reader rebuilds it against the new log.
type index struct {
	spo, pos, osp perm
	nodes         []ID // distinct subjects and objects, ascending
}

// perm is one permutation (a, b, c) of the log's columns, sorted by (a, b)
// with ties in insertion order. The a column is implicit: off is indexed by
// the dense term ID and rows off[a]..off[a+1] are a's bucket. Inside a
// bucket the rows of one b are contiguous and their c values are in
// insertion order — for SPO that is the object list of (s, p), for POS the
// subject list of (p, o): exactly the neighbor order a Match-driven closure
// walk discovered before the index existed, which the golden reports pin.
type perm struct {
	off  []uint32
	b, c []ID
}

// bucket returns the row range whose first component is a; empty for an ID
// past the last one the index was built for (a term interned later, or one
// that never was).
func (p *perm) bucket(a ID) (lo, hi int) {
	if int(a) >= len(p.off)-1 {
		return 0, 0
	}
	return int(p.off[a]), int(p.off[a+1])
}

// third returns the c values of the rows matching (a, b), in insertion
// order: one offset read and two binary searches inside a's bucket.
func (p *perm) third(a, b ID) []ID {
	lo, hi := p.bucket(a)
	lo += lowerBound(p.b[lo:hi], b)
	hi = lo + lowerBound(p.b[lo:hi], b+1)
	return p.c[lo:hi]
}

// has reports whether the fully bound triple is indexed: the predicates
// linking s to o are nearly always one, whatever the fan-out of (s, p) is.
func (ix *index) has(s, p, o ID) bool {
	for _, pred := range ix.osp.third(o, s) {
		if pred == p {
			return true
		}
	}
	return false
}

// lowerBound returns the first position in the ascending col whose value is
// >= v (len(col) when there is none).
func lowerBound(col []ID, v ID) int {
	lo, hi := 0, len(col)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if col[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// buildIndex sorts the log three ways. maxID is the largest ID a triple may
// carry. Per column one histogram, prefix-summed into the bucket offsets;
// each permutation is then two stable counting-sort passes over row numbers
// (least significant key first), so ties keep the log's insertion order.
func buildIndex(log [][3]ID, maxID int) *index {
	var off [3][]uint32
	for k := range off {
		off[k] = make([]uint32, maxID+2)
		for _, t := range log {
			off[k][t[k]+1]++
		}
		for i := 1; i < len(off[k]); i++ {
			off[k][i] += off[k][i-1]
		}
	}
	cursor := make([]uint32, maxID+2)
	// sortBy returns rows stably reordered by ascending column k.
	sortBy := func(rows []uint32, k int) []uint32 {
		copy(cursor, off[k])
		out := make([]uint32, len(rows))
		for _, r := range rows {
			id := log[r][k]
			out[cursor[id]] = r
			cursor[id]++
		}
		return out
	}
	// permute materializes the permutation (a, b, c) of columns.
	permute := func(rows []uint32, a, b, c int) perm {
		rows = sortBy(sortBy(rows, b), a)
		p := perm{off: off[a], b: make([]ID, len(rows)), c: make([]ID, len(rows))}
		for i, r := range rows {
			p.b[i], p.c[i] = log[r][b], log[r][c]
		}
		return p
	}
	insertion := make([]uint32, len(log))
	for i := range insertion {
		insertion[i] = uint32(i)
	}
	ix := &index{
		spo:   permute(insertion, 0, 1, 2),
		pos:   permute(insertion, 1, 2, 0),
		osp:   permute(insertion, 2, 0, 1),
		nodes: make([]ID, 0, maxID),
	}
	for id := 1; id <= maxID; id++ {
		if off[0][id] != off[0][id+1] || off[2][id] != off[2][id+1] {
			ix.nodes = append(ix.nodes, ID(id))
		}
	}
	return ix
}
