package rdf

import (
	"encoding/binary"
	"hash/maphash"
	"math"
	"strconv"
)

// ID is a dense dictionary identifier for an interned term. IDs start at 1;
// 0 is reserved as "no term".
type ID uint32

// NoID is the zero ID, never assigned to a term.
const NoID ID = 0

// Dict interns Terms to dense IDs, in first-intern order, and back. A number
// is held as its value: a literal spelled exactly as Float or Int spells its
// value (every number a plan's graph holds) gets an ID but no string and no
// Term — its datatype is in ref and its float bits in the numeric column, and
// Term formats it when something prints it. Every other term is held as it
// is. Each is still its own term: "100"^^xsd:integer, "100"^^xsd:double and
// "1.0E+02"^^xsd:double have three IDs.
//
// One table, slots, finds both kinds: open-addressed, at most ¾ full and
// hashed under a seed, it dedupes while a Builder interns into it (one caller
// at a time) and answers Lookup once Builder.Graph has frozen it.
type Dict struct {
	terms []Term   // the terms held as terms; terms[0] is the invalid zero term
	ref   []uint32 // by ID: the term's index in terms, or refDouble / refInteger
	// num is the numeric column, by ID, that the graph's index reads: a
	// number's float bits, a term's Term.Float read when it was interned.
	num   []uint64
	slots []ID // a power of two long; NoID marks an empty slot
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

// seed keys the table's hash: one a process, unknown to whoever spelled the
// terms, so that no uploaded plan can choose terms whose probes collide.
var seed = maphash.MakeSeed()

// hash is the table's hash, under the seed, of the number k, or of the term t
// when k is the zero numKey: its text, then its Kind and its Datatype's length
// where a number's float bits go, so that no two keys write the same bytes.
func hash(t Term, k numKey) uint64 {
	var h maphash.Hash
	h.SetSeed(seed)
	if k.ref == 0 {
		k.bits = uint64(len(t.Datatype))<<8 | uint64(t.Kind)
		h.WriteString(t.Datatype)
		h.WriteString(t.Value)
	}
	var b [12]byte
	binary.LittleEndian.PutUint32(b[:], k.ref)
	binary.LittleEndian.PutUint64(b[4:], k.bits)
	h.Write(b[:])
	return h.Sum64()
}

// number returns the key by which the dictionary holds t as a number, or the
// zero numKey when it holds t as a term. A number is an xsd:double spelled as
// Float spells its value, or an xsd:integer spelled as Int spells it and at
// most 2⁵³ in magnitude. Any other spelling — "1.0E+02", "+7", "007" — is a
// term of its own.
func number(t Term) numKey {
	if t.Kind != LiteralKind {
		return numKey{}
	}
	var buf [32]byte
	switch t.Datatype {
	case XSDDouble:
		f, err := strconv.ParseFloat(t.Value, 64)
		if err != nil || string(strconv.AppendFloat(buf[:0], f, 'g', -1, 64)) != t.Value {
			return numKey{}
		}
		return numKey{refDouble, math.Float64bits(f)}
	case XSDInteger:
		i, err := strconv.ParseInt(t.Value, 10, 64)
		if err != nil || i < -maxExactInt || i > maxExactInt || string(strconv.AppendInt(buf[:0], i, 10)) != t.Value {
			return numKey{}
		}
		return numKey{refInteger, math.Float64bits(float64(i))}
	}
	return numKey{}
}

// newDictSize returns an empty dictionary with room for terms terms held as
// terms and numbers numbers.
func newDictSize(terms, numbers int) *Dict {
	d := &Dict{
		terms: make([]Term, 1, terms+1),
		ref:   make([]uint32, 1, terms+numbers+1),
		num:   make([]uint64, 1, terms+numbers+1),
		slots: make([]ID, tableSize(terms+numbers)),
	}
	d.num[0] = notNumber
	return d
}

// tableSize is the length of the smallest table holding n IDs at most ¾ full.
func tableSize(n int) int {
	size := 4
	for 3*size < 4*n {
		size *= 2
	}
	return size
}

// find returns the slot of the number k, or of the term t when k is the zero
// numKey: the one holding its ID, or the empty one where its ID goes.
func (d *Dict) find(t Term, k numKey) *ID {
	mask := len(d.slots) - 1
	i := int(hash(t, k)) & mask
	for ; d.slots[i] != NoID; i = (i + 1) & mask {
		if id := d.slots[i]; k.ref == 0 {
			if r := d.ref[id]; r < refDouble && d.terms[r] == t {
				break
			}
		} else if d.key(id) == k { // a term's key is never a number's
			break
		}
	}
	return &d.slots[i]
}

// intern returns the ID for t, assigning a fresh one if t was never seen.
func (d *Dict) intern(t Term) ID { return d.add(t, number(t)) }

// add is intern of the number k, or of the term t when k is the zero numKey.
// A new term gets the next ID, the numeric value of its spelling read once,
// and the table doubles once it is more than ¾ full.
func (d *Dict) add(t Term, k numKey) ID {
	s := d.find(t, k)
	if *s != NoID {
		return *s
	}
	id := ID(len(d.ref))
	*s = id
	if k.ref == 0 {
		k = numKey{uint32(len(d.terms)), notNumber}
		if f, ok := t.Float(); ok {
			k.bits = math.Float64bits(f)
		}
		d.terms = append(d.terms, t)
	}
	d.ref, d.num = append(d.ref, k.ref), append(d.num, k.bits)
	if 4*d.Len() > 3*len(d.slots) {
		d.rehash(2 * len(d.slots))
	}
	return id
}

// rehash lays every ID out again in a table of size slots.
func (d *Dict) rehash(size int) {
	d.slots = make([]ID, size)
	for id := ID(1); int(id) < len(d.ref); id++ {
		*d.find(d.probeKey(id)) = id
	}
}

// probeKey is what find is handed for id: its term, or a number's numKey.
func (d *Dict) probeKey(id ID) (Term, numKey) {
	if r := d.ref[id]; r < refDouble {
		return d.terms[r], numKey{}
	}
	return Term{}, d.key(id)
}

// Lookup returns the ID previously assigned to t, or NoID if t was never
// interned.
func (d *Dict) Lookup(t Term) ID { return *d.find(t, number(t)) }

// key is the ref and the numeric column of id: the numKey of a number.
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

// freeze ends the building, for Builder.Graph: it cuts every column to its
// length and the table to the size its count needs — what a capacity hint or
// an append's doubling left over would stay resident with the graph.
func (d *Dict) freeze() {
	d.terms, d.ref, d.num = clip(d.terms), clip(d.ref), clip(d.num)
	if size := tableSize(d.Len()); size < len(d.slots) {
		d.rehash(size)
	}
}
