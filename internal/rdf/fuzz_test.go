package rdf

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
)

// FuzzGraphIndex is a differential fuzz test for the graph's index. The input
// drives a sequence of builder calls — Adds (duplicates included: the graph
// drops them when it builds its index, the test when it lists them) and terms
// interned without a triple — and the test keeps its own list of what it
// added (addList). Then Builder.Graph builds the graph, and every Match shape
// (the exact documented sequence, not only the set: insertion order for
// (s,p,-) and (-,p,o), SPO order for every shape with a free predicate),
// Count, HasIDs, the
// adjacency accessors, NodeIDs, Len and Triples (in SPO order) are compared
// with scans of that list — and the numeric column with Term.Float of every
// term, the statistics of every predicate with a pass over the list. The
// spent builder must refuse every method and leave the graph as it was. Then
// the graph is written as N-Triples — by WriteNTriples and by the
// line-sorting writer it replaced, which must agree — and read back: the
// loaded graph, whose Adds are the lines in order, must pass the same checks
// against the list of those lines and give every predicate the same
// statistics.
//
// Ops, one byte each: b%8 in 0..5 adds the triple named by the next three
// bytes (through AddIDs, Add or AddTriple, as the object byte says), 6 and 7
// intern the term named by the next byte. All positions draw from one pool of
// 24 IRIs, so a predicate is routinely a subject or an object too; the object
// position draws from 8 literals (fuzzLiterals) and 9 numbers (fuzzFloats)
// besides, the numbers entering through InternFloat.
func FuzzGraphIndex(f *testing.F) {
	add := func(s, p, o byte) []byte { return []byte{0, s, p, o} }
	bucket := func(n int) (in []byte) {
		for i := 0; i < n; i++ {
			in = append(in, add(1, 2, byte(3+i))...)
		}
		return in
	}
	f.Add([]byte{})                                // empty graph
	f.Add([]byte{6, 9})                            // a term, no triple
	f.Add(add(1, 2, 3))                            // one triple
	f.Add(append(add(1, 2, 3), 6, 9))              // a term interned but used in no triple: ID past the last offset
	f.Add(bucket(16))                              // an (s,p) bucket of 16 ...
	f.Add(bucket(17))                              // ... and of 17, either side of the old set-probe threshold
	f.Add(add(4, 2, 4))                            // a self-loop
	f.Add(append(add(1, 2, 3), add(2, 2, 1)...))   // a predicate that is also a subject (and its own predicate)
	f.Add(append(add(1, 2, 3), add(1, 2, 85)...))  // the same triple, once through AddIDs and once through Add
	again := append(add(1, 2, 3), add(1, 2, 3)...) // one triple added twice, a second one, the first once more:
	again = append(append(again, add(4, 2, 3)...), add(1, 2, 3)...)
	f.Add(again)                                       // the index build drops each later occurrence
	f.Add(append(add(1, 2, 44), add(1, 2, 3)...))      // the same triple through AddTriple and AddIDs
	f.Add(append([]byte{7, 3, 6, 3}, add(3, 2, 1)...)) // a term interned twice before its first triple
	var lits []byte                                    // one predicate over every literal, another over the numbers that are not NaN, a third over an IRI
	for i := 0; i < len(fuzzLiterals); i++ {
		lits = append(lits, add(byte(i), 2, byte(24+i))...)
	}
	f.Add(append(append(lits, add(1, 3, 25)...), append(add(1, 3, 30), add(1, 4, 5)...)...))
	var nums []byte // every number through InternFloat, one of them twice, one also as a literal, and two numbers interned without a triple
	for i := 0; i < len(fuzzFloats); i++ {
		nums = append(nums, add(byte(i), 2, byte(32+i))...)
	}
	f.Add(append(append(nums, add(9, 2, 32)...), append(add(9, 3, 30), 6, 36, 7, 37)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 160 {
			data = data[:160]
		}
		term := func(b byte) Term { return IRI(fmt.Sprintf("urn:t%d", b%24)) }
		b := NewBuilder()
		// object interns the object b names the way a caller would, and
		// returns the term the dictionary must then hold.
		object := func(o byte) Term {
			switch o %= byte(32 + len(fuzzFloats)); {
			case o >= 32:
				return b.Dict().Term(b.InternFloat(fuzzFloats[o-32]))
			case o >= 24:
				return fuzzLiterals[o-24]
			}
			return term(o)
		}
		var log addList
		for i := 0; i < len(data); i++ {
			if data[i]%8 >= 6 {
				if i+1 < len(data) {
					i++
					b.Intern(object(data[i]))
				}
				continue
			}
			if i+3 >= len(data) {
				break
			}
			s, p := term(data[i+1]), term(data[i+2])
			i += 3
			tr := [3]ID{b.Intern(s), b.Intern(p), NoID}
			o := object(data[i])
			tr[2] = b.Intern(o)
			switch data[i] % 3 {
			case 0:
				b.AddIDs(tr[0], tr[1], tr[2])
			case 1:
				b.Add(s, p, o)
			default:
				b.AddTriple(Triple{s, p, o})
			}
			log.add(tr)
		}
		g := b.Graph()
		checkAgainstLog(t, g, log)
		checkSpent(t, b, g)

		var nt, ref bytes.Buffer
		if err := WriteNTriples(&nt, g); err != nil {
			t.Fatal(err)
		}
		if err := writeNTriplesReference(&ref, g); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(nt.Bytes(), ref.Bytes()) {
			t.Fatalf("WriteNTriples:\n%s\nthe line-sorting writer:\n%s", nt.Bytes(), ref.Bytes())
		}
		lines := bytes.Split(bytes.TrimSuffix(nt.Bytes(), []byte("\n")), []byte("\n"))
		loaded, err := ParseNTriples(&nt)
		if err != nil {
			t.Fatalf("ParseNTriples of the graph's own N-Triples: %v", err)
		}
		var loadedLog addList
		for _, line := range lines {
			if len(line) == 0 {
				continue
			}
			tr, err := parseNTripleLine(string(line))
			if err != nil {
				t.Fatalf("line %q: %v", line, err)
			}
			d := loaded.Dict()
			loadedLog.add([3]ID{d.Lookup(tr.S), d.Lookup(tr.P), d.Lookup(tr.O)})
		}
		checkAgainstLog(t, loaded, loadedLog)
		for id := ID(1); id <= g.MaxID(); id++ {
			want, got := g.PredStats(id), loaded.PredStats(loaded.Dict().Lookup(g.Dict().Term(id)))
			if (want == nil) != (got == nil) {
				t.Fatalf("predicate %v: statistics %v, after the round trip %v", g.Dict().Term(id), want, got)
			}
			if want != nil {
				w, l := *want, *got
				w.Pred, l.Pred = NoID, NoID // the two graphs number their terms independently
				if w != l {
					t.Fatalf("predicate %v: statistics %+v, after the round trip %+v", g.Dict().Term(id), w, l)
				}
			}
		}
	})
}

// checkSpent fails the test unless every method of b, whose Graph was g,
// panics as a spent builder does and leaves g as it was.
func checkSpent(t *testing.T, b *Builder, g *Graph) {
	t.Helper()
	terms, triples := g.Dict().Len(), g.Triples()
	for what, call := range map[string]func(){
		"Dict":        func() { b.Dict() },
		"Intern":      func() { b.Intern(IRI("urn:fresh")) },
		"InternFloat": func() { b.InternFloat(42.5) },
		"Add":         func() { b.Add(IRI("urn:fresh"), IRI("urn:t0"), IRI("urn:t1")) },
		"AddTriple":   func() { b.AddTriple(Triple{IRI("urn:fresh"), IRI("urn:t0"), IRI("urn:t1")}) },
		"AddIDs":      func() { b.AddIDs(1, 1, 1) },
		"Graph":       func() { b.Graph() },
	} {
		var got any
		func() {
			defer func() { got = recover() }()
			call()
		}()
		if got != "rdf: Builder used after Graph" {
			t.Fatalf("%s on a spent builder: panic %v, want the spent builder's refusal", what, got)
		}
	}
	if g.Dict().Len() != terms || g.Dict().Lookup(IRI("urn:fresh")) != NoID || !reflect.DeepEqual(g.Triples(), triples) {
		t.Fatal("a call on the spent builder changed its graph")
	}
}

// fuzzLiterals are the literals FuzzGraphIndex puts in the object position:
// numbers in the lexical forms strconv accepts and a plan graph does not
// usually hold (NaN, padding, an exponent, a signed infinity), near misses (a
// hexadecimal integer without its exponent, a string that starts with a digit,
// one that starts like "nan"), and a plain number.
var fuzzLiterals = []Term{
	String("NaN"), String(" 12 "), TypedLiteral("1e5", XSDDouble), String("+Inf"),
	String("0x10"), String("7 rows"), Float(-2.5), String("NLJOIN"),
}

// fuzzFloats are the numbers FuzzGraphIndex hands to InternFloat: the values
// whose lexical form is not a plain decimal (two NaNs — strconv reads one back,
// whatever the payload written — both infinities, minus zero, an exponent
// FormatFloat spells out), a 16- and a 17-digit value, the longest the
// shortest round-tripping form gets, and -2.5, which is in fuzzLiterals too:
// one term, reached both ways.
var fuzzFloats = []float64{
	math.NaN(), math.Float64frombits(0x7FF8_0000_0000_0123), math.Inf(1), math.Inf(-1),
	math.Copysign(0, -1), 1e5, 0.1234567890123456, 0.30000000000000004, -2.5,
}

// expectPredStats is the reference for PredStats(p): one pass over the list.
func expectPredStats(g *Graph, log addList, p ID) *PredStats {
	st := PredStats{Pred: p, Min: math.Inf(1), Max: math.Inf(-1)}
	subjects, objects := map[ID]bool{}, map[ID]bool{}
	for _, tr := range log {
		if tr[1] != p {
			continue
		}
		st.Triples++
		subjects[tr[0]], objects[tr[2]] = true, true
		if f, ok := g.Dict().Term(tr[2]).Float(); ok && f == f {
			st.Min, st.Max = math.Min(st.Min, f), math.Max(st.Max, f)
		}
	}
	if st.Triples == 0 {
		return nil
	}
	st.Subjects, st.Objects = uint32(len(subjects)), uint32(len(objects))
	return &st
}

// expectMatch is the reference for Match(s, p, o): the matching triples of the
// list in insertion order, re-sorted — stably — by object for (-,p,-), and
// into SPO order for every shape with a free predicate.
func expectMatch(log addList, s, p, o ID) [][3]ID {
	out := [][3]ID{}
	log.scan(s, p, o, func(s, p, o ID) bool {
		out = append(out, [3]ID{s, p, o})
		return true
	})
	if p == NoID {
		return addList(out).spo()
	}
	if s == NoID && o == NoID {
		sort.SliceStable(out, func(i, j int) bool { return out[i][2] < out[j][2] })
	}
	return out
}

// checkAgainstLog compares every read the graph offers with the test's list
// of its Adds, probing each shape with every ID the dictionary issued plus two
// it did not.
func checkAgainstLog(t *testing.T, g *Graph, log addList) {
	t.Helper()
	if g.Len() != len(log) {
		t.Fatalf("Len = %d, the list has %d", g.Len(), len(log))
	}
	if got, want := g.Triples(), log.spo().triples(g.Dict()); !reflect.DeepEqual(got, want) {
		t.Fatalf("Triples() = %v, the list in SPO order is %v", got, want)
	}

	// Probe IDs: everything issued, one past it, and one far past it.
	var ids []ID
	for id := NoID; id <= g.MaxID()+1; id++ {
		ids = append(ids, id)
	}
	ids = append(ids, g.MaxID()+1000)

	probe := func(s, p, o ID) {
		want := expectMatch(log, s, p, o)
		got := [][3]ID{}
		g.Match(s, p, o, func(s, p, o ID) bool {
			got = append(got, [3]ID{s, p, o})
			return true
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Match(%d,%d,%d) = %v, log order gives %v", s, p, o, got, want)
		}
		if n := g.Count(s, p, o); n != len(want) {
			t.Fatalf("Count(%d,%d,%d) = %d, log has %d", s, p, o, n, len(want))
		}
		if len(want) > 1 { // early stop after the first callback
			calls := 0
			g.Match(s, p, o, func(_, _, _ ID) bool { calls++; return false })
			if calls != 1 {
				t.Fatalf("Match(%d,%d,%d) called back %d times after fn returned false", s, p, o, calls)
			}
		}
	}
	col := func(rows [][3]ID, k int) []ID {
		out := make([]ID, len(rows))
		for i, r := range rows {
			out[i] = r[k]
		}
		return out
	}
	probe(NoID, NoID, NoID)
	for _, a := range ids {
		want, got := expectPredStats(g, log, a), g.PredStats(a)
		if (want == nil) != (got == nil) || (want != nil && *want != *got) {
			t.Fatalf("PredStats(%d) = %+v, the log gives %+v", a, got, want)
		}
		if a == NoID || a > g.MaxID() {
			continue
		}
		// Bit for bit: a NaN is not equal to itself.
		wantF, wantOK := g.Dict().Term(a).Float()
		if gotF, gotOK := g.Float(a); gotOK != wantOK || math.Float64bits(gotF) != math.Float64bits(wantF) {
			t.Fatalf("Float(%d) = %v, %v; %v is %v, %v", a, gotF, gotOK, g.Dict().Term(a), wantF, wantOK)
		}
	}
	for _, a := range ids[1:] {
		probe(a, NoID, NoID)
		probe(NoID, a, NoID)
		probe(NoID, NoID, a)
		for _, b := range ids[1:] {
			probe(a, b, NoID)
			probe(NoID, a, b)
			probe(a, NoID, b)
			if got, want := g.ObjectIDs(a, b), col(expectMatch(log, a, b, NoID), 2); !sameIDs(got, want) {
				t.Fatalf("ObjectIDs(%d,%d) = %v, log order gives %v", a, b, got, want)
			}
			if got, want := g.SubjectIDs(a, b), col(expectMatch(log, NoID, a, b), 0); !sameIDs(got, want) {
				t.Fatalf("SubjectIDs(%d,%d) = %v, log order gives %v", a, b, got, want)
			}
		}
	}
	// Fully bound: every triple of the log, and each with one component moved.
	for _, tr := range log {
		for _, q := range [][3]ID{tr, {tr[2], tr[1], tr[0]}, {tr[0], tr[1], g.MaxID() + 1}, {tr[1], tr[0], tr[2]}} {
			want := len(expectMatch(log, q[0], q[1], q[2])) == 1
			if g.HasIDs(q[0], q[1], q[2]) != want {
				t.Fatalf("HasIDs(%v) = %v, log says %v", q, !want, want)
			}
			probe(q[0], q[1], q[2])
		}
	}

	nodes := map[ID]bool{}
	for _, tr := range log {
		nodes[tr[0]], nodes[tr[2]] = true, true
	}
	got := g.NodeIDs()
	if len(got) != len(nodes) {
		t.Fatalf("NodeIDs = %v, log has %d distinct nodes", got, len(nodes))
	}
	for i, id := range got {
		if !nodes[id] || (i > 0 && got[i-1] >= id) {
			t.Fatalf("NodeIDs = %v: not the log's nodes in ascending order", got)
		}
	}
}
