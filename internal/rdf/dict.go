package rdf

import (
	"cmp"
	"math"
	"slices"
	"strconv"
)

// ID is a dense dictionary identifier for an interned term. IDs start at 1;
// 0 is reserved as "no term".
type ID uint32

// NoID is the zero ID, never assigned to a term.
const NoID ID = 0

// Dict interns Terms to dense IDs, in first-intern order, and back. A number
// is held as its value: a literal spelled exactly as Float or Int spells its
// value (every number a plan's graph holds) gets an ID but no string, no Term
// and no map entry — its datatype is in ref and its float bits in the numeric
// column, and Term formats it when something prints it. Every other term is
// held as it is. Each is still its own term: "100"^^xsd:integer,
// "100"^^xsd:double and "1.0E+02"^^xsd:double have three IDs.
//
// A Builder interns into it, one caller at a time; Builder.Graph freezes it
// for the graph, whose readers only look terms up: the map of numbers gives
// way to their IDs sorted by value.
type Dict struct {
	byTerm map[Term]ID // the terms held as terms
	terms  []Term      // those terms; terms[0] is the invalid zero term
	ref    []uint32    // by ID: the term's index in terms, or refDouble / refInteger
	// num is the numeric column, by ID, that the graph's index reads: a
	// number's float bits, and for a term held as a term unparsed until the
	// freeze reads Term.Float of it.
	num []uint64
	// The numbers by value: byNum while the dictionary is built, numbers —
	// their IDs sorted by numKey — once Builder.Graph has frozen it.
	byNum   map[numKey]ID
	numbers []ID
}

// A number's ref is its datatype, beyond every index into terms.
const (
	refDouble  uint32 = math.MaxUint32 - 1
	refInteger uint32 = math.MaxUint32
)

// maxExactInt bounds the xsd:integer values held as numbers: up to 2⁵³ in
// magnitude an integer's float bits identify it.
const maxExactInt = 1 << 53

// numKey identifies a number: its datatype's ref and its float bits.
type numKey struct {
	ref  uint32
	bits uint64
}

func (k numKey) compare(o numKey) int {
	return cmp.Or(cmp.Compare(k.ref, o.ref), cmp.Compare(k.bits, o.bits))
}

// number reports whether the dictionary holds t as a number, and by which key:
// an xsd:double spelled as Float spells its value, or an xsd:integer spelled
// as Int spells it and at most 2⁵³ in magnitude. Any other spelling — "1.0E+02",
// "+7", "007" — is a term of its own.
func number(t Term) (numKey, bool) {
	if t.Kind != LiteralKind {
		return numKey{}, false
	}
	var buf [32]byte
	switch t.Datatype {
	case XSDDouble:
		f, err := strconv.ParseFloat(t.Value, 64)
		if err != nil || string(strconv.AppendFloat(buf[:0], f, 'g', -1, 64)) != t.Value {
			return numKey{}, false
		}
		return numKey{refDouble, math.Float64bits(f)}, true
	case XSDInteger:
		i, err := strconv.ParseInt(t.Value, 10, 64)
		if err != nil || i < -maxExactInt || i > maxExactInt || string(strconv.AppendInt(buf[:0], i, 10)) != t.Value {
			return numKey{}, false
		}
		return numKey{refInteger, math.Float64bits(float64(i))}, true
	}
	return numKey{}, false
}

// newDictSize returns an empty dictionary with room for terms terms held as
// terms and numbers numbers.
func newDictSize(terms, numbers int) *Dict {
	d := &Dict{
		byTerm: make(map[Term]ID, terms),
		terms:  make([]Term, 1, terms+1),
		ref:    make([]uint32, 1, terms+numbers+1),
		num:    make([]uint64, 1, terms+numbers+1),
		byNum:  make(map[numKey]ID, numbers),
	}
	d.num[0] = notNumber
	return d
}

// intern returns the ID for t, assigning a fresh one if t was never seen.
func (d *Dict) intern(t Term) ID {
	if k, ok := number(t); ok {
		return d.internNumber(k)
	}
	if id, ok := d.byTerm[t]; ok {
		return id
	}
	id := ID(len(d.ref))
	d.byTerm[t] = id
	d.ref = append(d.ref, uint32(len(d.terms)))
	d.terms = append(d.terms, t)
	d.num = append(d.num, unparsed)
	return id
}

// internNumber is intern of the number k.
func (d *Dict) internNumber(k numKey) ID {
	if id := d.lookupNumber(k); id != NoID {
		return id
	}
	id := ID(len(d.ref))
	d.byNum[k] = id
	d.ref = append(d.ref, k.ref)
	d.num = append(d.num, k.bits)
	return id
}

// Lookup returns the ID previously assigned to t, or NoID if t was never
// interned.
func (d *Dict) Lookup(t Term) ID {
	if k, ok := number(t); ok {
		return d.lookupNumber(k)
	}
	return d.byTerm[t]
}

func (d *Dict) lookupNumber(k numKey) ID {
	if d.byNum != nil {
		return d.byNum[k]
	}
	i, found := slices.BinarySearchFunc(d.numbers, k, func(id ID, k numKey) int { return d.key(id).compare(k) })
	if !found {
		return NoID
	}
	return d.numbers[i]
}

// key is the numKey of the number behind id.
func (d *Dict) key(id ID) numKey { return numKey{d.ref[id], d.num[id]} }

// Term returns the term for id; a number's is formatted from its value. It
// panics on an ID the dictionary never issued, which always indicates a
// programming error in the caller.
func (d *Dict) Term(id ID) Term {
	switch r := d.ref[id]; r {
	case refDouble:
		return Float(math.Float64frombits(d.num[id]))
	case refInteger:
		return Int(int64(math.Float64frombits(d.num[id])))
	default:
		return d.terms[r]
	}
}

// appendToken appends the N-Triples token of id, a number's formatted
// straight into dst: what appendTerm writes for Term(id).
func (d *Dict) appendToken(dst []byte, id ID) []byte {
	f := math.Float64frombits(d.num[id])
	switch d.ref[id] {
	case refDouble:
		dst = strconv.AppendFloat(append(dst, '"'), f, 'g', -1, 64)
		return append(dst, `"^^<`+XSDDouble+`>`...)
	case refInteger:
		dst = strconv.AppendInt(append(dst, '"'), int64(f), 10)
		return append(dst, `"^^<`+XSDInteger+`>`...)
	default:
		return appendTerm(dst, d.terms[d.ref[id]])
	}
}

// Len reports the number of interned terms.
func (d *Dict) Len() int { return len(d.ref) - 1 }

// freeze ends the building, for Builder.Graph: it reads the numeric value of
// every term held as a term into the numeric column, sorts the numbers' IDs by
// value in place of their map, and cuts every column to its length — what a
// capacity hint or an append's doubling left over would stay resident with
// the graph.
func (d *Dict) freeze() {
	for id, r := range d.ref {
		if d.num[id] != unparsed {
			continue
		}
		d.num[id] = notNumber
		if f, ok := d.terms[r].Float(); ok {
			d.num[id] = math.Float64bits(f)
		}
	}
	d.numbers = make([]ID, 0, len(d.byNum))
	for _, id := range d.byNum {
		d.numbers = append(d.numbers, id)
	}
	slices.SortFunc(d.numbers, func(a, b ID) int { return d.key(a).compare(d.key(b)) })
	d.byNum = nil
	d.terms, d.ref, d.num = clip(d.terms), clip(d.ref), clip(d.num)
}
