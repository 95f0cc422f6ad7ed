package rdf

// ID is a dense dictionary identifier for an interned term. IDs start at 1;
// 0 is reserved as "no term".
type ID uint32

// NoID is the zero ID, never assigned to a term.
const NoID ID = 0

// Dict interns Terms to dense IDs and back. It is not safe for concurrent
// mutation; the Graph serializes access to it.
type Dict struct {
	byTerm map[Term]ID
	byID   []Term // byID[0] is the invalid zero term
}

// NewDict returns an empty dictionary.
func NewDict() *Dict { return newDictSize(0) }

// newDictSize returns an empty dictionary with room for terms terms.
func newDictSize(terms int) *Dict {
	return &Dict{
		byTerm: make(map[Term]ID, terms),
		byID:   make([]Term, 1, terms+1),
	}
}

// Intern returns the ID for t, assigning a fresh one if t was never seen.
func (d *Dict) Intern(t Term) ID {
	if id, ok := d.byTerm[t]; ok {
		return id
	}
	id := ID(len(d.byID))
	d.byTerm[t] = id
	d.byID = append(d.byID, t)
	return id
}

// Lookup returns the ID previously assigned to t, or NoID if t was never
// interned.
func (d *Dict) Lookup(t Term) ID {
	return d.byTerm[t]
}

// Term returns the term for id. It panics on an ID the dictionary never
// issued, which always indicates a programming error in the caller.
func (d *Dict) Term(id ID) Term {
	return d.byID[id]
}

// Len reports the number of interned terms.
func (d *Dict) Len() int { return len(d.byID) - 1 }
