package rdf

import "math"

// index is the one immutable index over a graph's triple log: the three
// permutations SPO, POS and OSP as pointer-free columns, plus the distinct
// node list, the numeric value of every term and the statistics of every
// predicate. It exploits the engine's central invariant — plan graphs are
// immutable after load — so it is built once, when the graph freezes (by
// Freeze, or by its first read), and then shared, lock-free, by every
// concurrent reader.
type index struct {
	spo, pos, osp perm
	nodes         []ID // distinct subjects and objects, ascending
	// num holds Term.Float of every term by ID, as float bits: notNumber where
	// the term has no numeric value. Every literal is parsed — or was handed
	// over as a number, by InternFloat — once, for all the evaluations the
	// graph will see.
	num   []uint64
	preds []PredStats // one entry per predicate in use, ascending by Pred
}

// notNumber marks a term without a numeric value in index.num, unparsed one
// whose lexical form the index build has yet to read: NaN payloads no parse
// produces (strconv's "NaN" is 0x7FF8000000000001).
const (
	notNumber uint64 = 0x7FF8_0000_0BAD_0BAD
	unparsed  uint64 = 0x7FF8_0000_0BAD_0BAE
)

// parseNumbers completes the numeric column: it extends num to one entry per
// term and parses every entry InternFloat did not fill.
func parseNumbers(num []uint64, terms []Term) []uint64 {
	if len(num) != len(terms) {
		all := make([]uint64, len(terms))
		for i := copy(all, num); i < len(all); i++ {
			all[i] = unparsed
		}
		num = all
	}
	for id, bits := range num {
		if bits != unparsed {
			continue
		}
		num[id] = notNumber
		if f, ok := terms[id].Float(); ok {
			num[id] = math.Float64bits(f)
		}
	}
	return num
}

// PredStats describes the triples of one predicate: what a join-order
// estimate can know about a pattern over it without looking at a triple.
type PredStats struct {
	Pred     ID
	Triples  uint32 // triples carrying the predicate
	Subjects uint32 // distinct subjects among them
	Objects  uint32 // distinct objects among them
	// Min and Max bound the numeric objects (Term.Float, NaN left out); Min >
	// Max when no object is numeric.
	Min, Max float64
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
// the dictionary never issued.
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

// buildIndex sorts the log three ways and returns it without its duplicates.
// num is the numeric column, one entry per term; its last ID is the largest a
// triple may carry. Per column one histogram, prefix-summed into the bucket
// offsets; each permutation is then two stable counting-sort passes over row
// numbers (least significant key first), so ties keep the log's insertion
// order. A third pass over POS's rows sorts them by the whole triple, which
// puts the occurrences of one triple side by side, earliest Add first: when
// there are any, the later ones are cut out of the log — in place, every
// other row keeping its order — and the build starts over on what is left.
// The predicate statistics are read off the sorted columns afterwards.
func buildIndex(log [][3]ID, num []uint64) (*index, [][3]ID) {
	maxID := len(num) - 1
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
	// columns materializes rows, sorted by (a, b), as the permutation (a, b, c).
	columns := func(rows []uint32, a, b, c int) perm {
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
	byPO := sortBy(sortBy(insertion, 2), 1)
	bySPO := sortBy(byPO, 0)
	var dup []bool // by row; allocated with the first duplicate found
	for i := 1; i < len(bySPO); i++ {
		if log[bySPO[i]] == log[bySPO[i-1]] {
			if dup == nil {
				dup = make([]bool, len(log))
			}
			dup[bySPO[i]] = true
		}
	}
	if dup != nil {
		distinct := log[:0]
		for r, t := range log {
			if !dup[r] {
				distinct = append(distinct, t)
			}
		}
		return buildIndex(distinct, num)
	}
	ix := &index{
		spo:   columns(sortBy(sortBy(insertion, 1), 0), 0, 1, 2),
		pos:   columns(byPO, 1, 2, 0),
		osp:   columns(sortBy(sortBy(insertion, 0), 2), 2, 0, 1),
		nodes: make([]ID, 0, maxID),
		num:   num,
	}
	// In SPO the rows of one (s, p) are contiguous: each run is one distinct
	// subject of p. The counts go to the sort's cursor array, done with.
	subjects, nPreds := cursor, 0
	clear(subjects)
	for id := 1; id <= maxID; id++ {
		if off[0][id] != off[0][id+1] || off[2][id] != off[2][id+1] {
			ix.nodes = append(ix.nodes, ID(id))
		}
		if off[1][id] != off[1][id+1] {
			nPreds++
		}
		prev := NoID
		for _, p := range ix.spo.b[off[0][id]:off[0][id+1]] {
			if p != prev {
				subjects[p]++
				prev = p
			}
		}
	}
	// In POS a predicate's bucket is its triples, sorted by object.
	ix.preds = make([]PredStats, 0, nPreds)
	for id := 1; id <= maxID; id++ {
		lo, hi := off[1][id], off[1][id+1]
		if lo == hi {
			continue
		}
		st := PredStats{Pred: ID(id), Triples: hi - lo, Subjects: subjects[id], Min: math.Inf(1), Max: math.Inf(-1)}
		prev := NoID
		for _, o := range ix.pos.b[lo:hi] {
			if o == prev {
				continue
			}
			prev = o
			st.Objects++
			if bits := ix.num[o]; bits != notNumber {
				// Compared, not min()/max()ed: a NaN fails both and stays out.
				f := math.Float64frombits(bits)
				if f < st.Min {
					st.Min = f
				}
				if f > st.Max {
					st.Max = f
				}
			}
		}
		ix.preds = append(ix.preds, st)
	}
	return ix, log
}
