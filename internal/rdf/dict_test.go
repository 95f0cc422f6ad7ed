package rdf

import (
	"encoding/binary"
	"math"
	"strconv"
	"strings"
	"testing"
)

// oracleDict is the dictionary as it was before numbers were held as values:
// every term a map key and a slot of its own, looked up by its spelling. The
// Dict must answer every question exactly as it does.
type oracleDict struct {
	byTerm map[Term]ID
	byID   []Term // byID[0] is the invalid zero term
}

func newOracleDict() *oracleDict {
	return &oracleDict{byTerm: map[Term]ID{}, byID: []Term{{}}}
}

func (d *oracleDict) intern(t Term) ID {
	if id, ok := d.byTerm[t]; ok {
		return id
	}
	id := ID(len(d.byID))
	d.byTerm[t] = id
	d.byID = append(d.byID, t)
	return id
}

// dictTerms are the terms FuzzDict interns by number: the edges of the
// numbers held as values and their near misses.
var dictTerms = []Term{
	Float(0), Float(math.Copysign(0, -1)), Float(math.NaN()), Float(math.Inf(1)), Float(math.Inf(-1)),
	Float(math.SmallestNonzeroFloat64), Float(1e21), Float(100), Int(100), String("100"),
	TypedLiteral("1.0E+02", XSDDouble), Int(1 << 53), Int(-1 << 53), TypedLiteral("9007199254740993", XSDInteger),
	TypedLiteral("-0", XSDInteger), TypedLiteral("+7", XSDInteger), TypedLiteral("007", XSDInteger),
	TypedLiteral("NaN", XSDInteger), TypedLiteral("Inf", XSDDouble), TypedLiteral("nan", XSDDouble),
	TypedLiteral(" 1", XSDDouble), TypedLiteral("1e400", XSDDouble), TypedLiteral("0x1p-2", XSDDouble),
	TypedLiteral("100", XSDString), TypedLiteral("2.5", "urn:other"), IRI("100"), Blank("100"),
	Bool(true), Float(-2.5), Int(-3),
}

// checkDict holds d to the oracle: the same length, every ID's term, every
// term's ID, and NoID for each probe the oracle never saw.
func checkDict(t *testing.T, d *Dict, want *oracleDict, probes []Term) {
	t.Helper()
	if d.Len() != len(want.byID)-1 {
		t.Fatalf("Len = %d, the oracle has %d", d.Len(), len(want.byID)-1)
	}
	for id := 1; id < len(want.byID); id++ {
		term := want.byID[id]
		if got := d.Term(ID(id)); got != term {
			t.Fatalf("Term(%d) = %v, the oracle has %v", id, got, term)
		}
		if got := d.Lookup(term); got != ID(id) {
			t.Fatalf("Lookup(%v) = %d, the oracle has %d", term, got, id)
		}
	}
	for _, p := range probes {
		if got, want := d.Lookup(p), want.byTerm[p]; got != want {
			t.Fatalf("Lookup(%v) = %d, the oracle has %d", p, got, want)
		}
	}
}

// FuzzDict interns a sequence of terms into a builder's dictionary and into
// the oracle, and compares every answer before and after Builder.Graph
// freezes it. Each input byte picks an operation:
//
//	0..31    Intern of dictTerms[b] (wrapped)
//	32..47   InternFloat of fuzzFloats[b-32] (wrapped)
//	48..63   a run of fresh terms, as many as the next byte says: IRIs,
//	         integers and doubles by turns, so the table grows mid-sequence
//	64..127  InternFloat of the next 8 bytes as float bits
//	128..191 Intern of the next 8 bytes, as float bits, formatted as Float does
//	192..223 Intern of an xsd:double literal: a length byte, then the text
//	224..255 the same as an xsd:integer literal
//
// The texts are also looked up in their other datatypes, untyped, and as an
// IRI and a blank node, and the run's IRIs as blank nodes and strings: terms
// that may never have been interned, and differ from one that was only in
// their Kind or datatype.
func FuzzDict(f *testing.F) {
	all := make([]byte, len(dictTerms))
	for i := range all {
		all[i] = byte(i)
	}
	f.Add(all)
	f.Add([]byte{32, 33, 34, 35, 36, 37, 38, 39, 40, 2, 1, 0})
	bits := func(op byte, f float64) []byte {
		return binary.LittleEndian.AppendUint64([]byte{op}, math.Float64bits(f))
	}
	f.Add(append(bits(64, 1e21), bits(128, 1e21)...))
	f.Add(append(append(bits(64, 5e-324), bits(64, -0.0)...), bits(128, 0)...))
	f.Add([]byte{192, 3, '1', 'e', '5', 224, 3, '1', '0', '0', 8, 9})
	f.Add([]byte{224, 16, '9', '0', '0', '7', '1', '9', '9', '2', '5', '4', '7', '4', '0', '9', '9', '2', 11})
	f.Add([]byte{48, 5, 0, 48, 200, 26, 27, 49, 255, 9})

	f.Fuzz(func(t *testing.T, data []byte) {
		b, want := NewBuilder(), newOracleDict()
		var probes []Term
		fresh := 0 // the run terms interned so far
		for len(data) > 0 {
			op := data[0]
			data = data[1:]
			var term Term
			var id ID
			switch {
			case op < 32:
				term = dictTerms[int(op)%len(dictTerms)]
				id = b.Intern(term)
			case op < 48:
				x := fuzzFloats[int(op-32)%len(fuzzFloats)]
				term, id = Float(x), b.InternFloat(x)
			case op < 64:
				n := 0
				if len(data) > 0 {
					n, data = int(data[0]), data[1:]
				}
				for range n {
					switch fresh++; fresh % 3 {
					case 0:
						term = IRI("urn:run:" + strconv.Itoa(fresh))
						probes = append(probes, Blank(term.Value), String(term.Value))
						id = b.Intern(term)
					case 1:
						term = Int(int64(fresh))
						id = b.Intern(term)
					default:
						term, id = Float(float64(fresh)/4), b.InternFloat(float64(fresh)/4)
					}
					if wantID := want.intern(term); id != wantID {
						t.Fatalf("interning %v gave ID %d, the oracle %d", term, id, wantID)
					}
				}
				continue
			case op < 192:
				var buf [8]byte
				data = data[copy(buf[:], data):]
				x := math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
				term = Float(x)
				if op < 128 {
					id = b.InternFloat(x)
				} else {
					id = b.Intern(term)
				}
			default:
				n := 0
				if len(data) > 0 {
					n, data = min(int(data[0]), len(data)-1), data[1:]
				}
				lex := string(data[:n])
				data = data[n:]
				term = TypedLiteral(lex, XSDDouble)
				if op >= 224 {
					term.Datatype = XSDInteger
				}
				probes = append(probes, TypedLiteral(lex, XSDDouble), TypedLiteral(lex, XSDInteger), String(lex), IRI(lex), Blank(lex))
				id = b.Intern(term)
			}
			if wantID := want.intern(term); id != wantID {
				t.Fatalf("interning %v gave ID %d, the oracle %d", term, id, wantID)
			}
		}
		probes = append(probes, dictTerms...)
		checkDict(t, b.Dict(), want, probes)
		g := b.Graph()
		checkDict(t, g.Dict(), want, probes)
		for id := 1; id < len(want.byID); id++ {
			wf, wok := want.byID[id].Float()
			gf, gok := g.Float(ID(id))
			if gok != wok || math.Float64bits(gf) != math.Float64bits(wf) {
				t.Fatalf("Float(%d) = %v, %v; %v is %v, %v", id, gf, gok, want.byID[id], wf, wok)
			}
		}
	})
}

// TestDictNumbers pins which literals the dictionary holds as numbers, at the
// edges: each is its own term, held by value or by spelling as the table says,
// and reads back as itself.
func TestDictNumbers(t *testing.T) {
	b := NewBuilder()
	for _, c := range []struct {
		term   Term
		number bool
		again  bool // the term of an earlier row
	}{
		{Float(0), true, false},
		{Float(math.Copysign(0, -1)), true, false}, // "-0": not the term "0"
		{Float(math.NaN()), true, false},
		{TypedLiteral("NaN", XSDDouble), true, true}, // every NaN is one term
		{Float(math.Inf(1)), true, false},
		{Float(math.Inf(-1)), true, false},
		{Float(math.SmallestNonzeroFloat64), true, false},
		{TypedLiteral("1e+21", XSDDouble), true, false},
		{Int(1 << 53), true, false},
		{TypedLiteral("9007199254740993", XSDInteger), false, false}, // 2⁵³+1: a float cannot tell it from 2⁵³
		{Int(100), true, false},
		{Float(100), true, false},
		{String("100"), false, false},
		{TypedLiteral("1.0E+02", XSDDouble), false, false},
	} {
		id := b.Intern(c.term)
		if c.term.Datatype == XSDDouble && c.term.Value == "NaN" {
			if other := b.InternFloat(math.Float64frombits(0x7FF8_0000_0000_0123)); other != id {
				t.Errorf("InternFloat of another NaN gave ID %d, %v has %d", other, c.term, id)
			}
		}
		d := b.Dict()
		if number := d.ref[id] >= refDouble; number != c.number {
			t.Errorf("%v: held as a number %v, want %v", c.term, number, c.number)
		}
		if got := d.Term(id); got != c.term {
			t.Errorf("Term(Intern(%v)) = %v", c.term, got)
		}
		if d.Lookup(c.term) != id {
			t.Errorf("Lookup(%v) = %d, Intern gave %d", c.term, d.Lookup(c.term), id)
		}
		if !c.again && id != ID(d.Len()) {
			t.Errorf("%v is not a term of its own: ID %d of %d", c.term, id, d.Len())
		}
	}
	if got := b.Dict().Term(b.InternFloat(1e21)).Value; got != "1e+21" {
		t.Errorf("Float(1e21) reads back as %q", got)
	}
	g := b.Graph()
	if f, ok := g.Float(g.Dict().Lookup(TypedLiteral("1.0E+02", XSDDouble))); !ok || f != 100 {
		t.Errorf(`Float of "1.0E+02" = %v, %v`, f, ok)
	}

	// A number read back from N-Triples is held as one, and written out again
	// as it was read.
	const doc = "<s> <p> \"2.5\"^^<" + XSDDouble + "> .\n<s> <p> \"-7\"^^<" + XSDInteger + "> .\n<s> <q> \"2.50\"^^<" + XSDDouble + "> .\n"
	loaded, err := ParseNTriples(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	d := loaded.Dict()
	for _, c := range []struct {
		term   Term
		number bool
	}{{Float(2.5), true}, {Int(-7), true}, {TypedLiteral("2.50", XSDDouble), false}} {
		id := d.Lookup(c.term)
		if id == NoID || (d.ref[id] >= refDouble) != c.number {
			t.Errorf("%v read from N-Triples: ID %d, held as a number %v, want %v", c.term, id, id != NoID && d.ref[id] >= refDouble, c.number)
		}
	}
	var out strings.Builder
	if err := WriteNTriples(&out, loaded); err != nil {
		t.Fatal(err)
	}
	if want := "<s> <p> \"-7\"^^<" + XSDInteger + "> .\n<s> <p> \"2.5\"^^<" + XSDDouble + "> .\n<s> <q> \"2.50\"^^<" + XSDDouble + "> .\n"; out.String() != want {
		t.Errorf("WriteNTriples =\n%s\nwant\n%s", out.String(), want)
	}
}
