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
// drives a sequence of Adds (duplicates included — the graph drops them when
// it builds its index, the test when it logs them), interleaved reads, terms
// interned without a triple, and a Freeze at whatever point the bytes put it;
// the test keeps its own insertion log and, at every read, compares every
// Match shape (the exact documented sequence, not only the set), Count,
// HasIDs, the adjacency accessors, NodeIDs, Len and Triples with scans of
// that log — and the numeric column with Term.Float of every term, the
// statistics of every predicate with a pass over the log. After the Freeze
// every Add and Intern must panic and change nothing. At the end the graph is
// written as N-Triples — by WriteNTriples and by the line-sorting writer it
// replaced, which must agree — and read back: the loaded graph must pass the
// same checks and give every predicate the same statistics.
//
// Ops, one byte each: b%8 in 0..4 adds the triple named by the next three
// bytes, 5 reads, 6 interns the term named by the next byte, 7 freezes. All
// positions draw from one pool of 24 IRIs, so a predicate is routinely a
// subject or an object too; the object position draws from 8 literals
// (fuzzLiterals) and 9 numbers (fuzzFloats) besides, the numbers entering
// through InternFloat and AddIDs. A read also runs when the input ends.
func FuzzGraphIndex(f *testing.F) {
	add := func(s, p, o byte) []byte { return []byte{0, s, p, o} }
	bucket := func(n int) (in []byte) {
		for i := 0; i < n; i++ {
			in = append(in, add(1, 2, byte(3+i))...)
		}
		return in
	}
	f.Add([]byte{})                                   // empty graph
	f.Add([]byte{5, 7, 5})                            // empty graph, read, frozen, read
	f.Add(add(1, 2, 3))                               // one triple
	f.Add(append(add(1, 2, 3), 6, 9, 5))              // a term interned but used in no triple: ID past the last offset
	f.Add(append(bucket(16), 5, 7))                   // an (s,p) bucket of 16 ...
	f.Add(append(bucket(17), 5, 7))                   // ... and of 17, either side of the old set-probe threshold
	f.Add(append(add(4, 2, 4), 5))                    // a self-loop
	f.Add(append(add(1, 2, 3), add(2, 2, 1)...))      // a predicate that is also a subject (and its own predicate)
	f.Add(append(add(1, 2, 3), add(1, 2, 3)...))      // a duplicate
	again := append(add(1, 2, 3), 5)                  // one triple added again after every read, around a second one,
	again = append(append(again, add(1, 2, 3)...), 5) // and once more before the Freeze: the index build drops each
	again = append(append(again, add(4, 2, 3)...), add(1, 2, 3)...)
	f.Add(append(append(again, 5), append(add(1, 2, 3), 7, 5)...))
	f.Add(append(append(add(1, 2, 3), 5), add(3, 2, 1)...)) // a read, then an Add that discards the index
	f.Add(append(append(add(1, 2, 3), 7), add(3, 2, 1)...)) // an Add after Freeze
	var lits []byte                                         // one predicate over every literal, another over the numbers that are not NaN, a third over an IRI
	for i := 0; i < len(fuzzLiterals); i++ {
		lits = append(lits, add(byte(i), 2, byte(24+i))...)
	}
	f.Add(append(append(lits, add(1, 3, 25)...), append(add(1, 3, 30), add(1, 4, 5)...)...))
	var nums []byte // every number through InternFloat, a read in the middle, one of them twice, one also as a literal
	for i := 0; i < len(fuzzFloats); i++ {
		nums = append(nums, add(byte(i), 2, byte(32+i))...)
		if i == 3 {
			nums = append(nums, 5)
		}
	}
	f.Add(append(append(nums, add(9, 2, 32)...), append(add(9, 3, 30), 6, 36, 5, 6, 37)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 160 {
			data = data[:160]
		}
		term := func(b byte) Term { return IRI(fmt.Sprintf("urn:t%d", b%24)) }
		g := NewGraph()
		// object interns the object b names the way a builder would, and
		// returns the term the dictionary must then hold.
		object := func(b byte) Term {
			switch b %= byte(32 + len(fuzzFloats)); {
			case b >= 32:
				return g.Dict().Term(g.InternFloat(fuzzFloats[b-32]))
			case b >= 24:
				return fuzzLiterals[b-24]
			}
			return term(b)
		}
		var log [][3]ID
		inLog := map[[3]ID]bool{}
		frozen := false
		for i := 0; i < len(data); i++ {
			switch op := data[i] % 8; {
			case op <= 4:
				if i+3 >= len(data) {
					i = len(data)
					break
				}
				s, p := term(data[i+1]), term(data[i+2])
				i += 3
				if frozen {
					terms := g.Dict().Len()
					if !panics(func() { g.Add(s, p, object(data[i])) }) {
						t.Fatalf("Add(%v, %v, object %d) on a frozen graph did not panic", s, p, data[i])
					}
					if g.Dict().Len() != terms {
						t.Fatal("a refused Add interned a term")
					}
					continue
				}
				tr := [3]ID{g.Intern(s), g.Intern(p), NoID}
				tr[2] = g.Intern(object(data[i]))
				if data[i]%2 == 0 {
					g.AddIDs(tr[0], tr[1], tr[2])
				} else {
					g.Add(s, p, g.Dict().Term(tr[2]))
				}
				if !inLog[tr] {
					inLog[tr] = true
					log = append(log, tr)
				}
			case op == 5:
				checkAgainstLog(t, g, log)
			case op == 6:
				if i+1 >= len(data) {
					break
				}
				i++
				if terms := g.Dict().Len(); frozen {
					if !panics(func() { g.Intern(object(data[i])) }) || g.Dict().Len() != terms {
						t.Fatalf("Intern of object %d on a frozen graph did not panic, or interned", data[i])
					}
					continue
				}
				g.Intern(object(data[i]))
			default:
				g.Freeze()
				frozen = true
			}
		}
		checkAgainstLog(t, g, log)

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
		loaded, err := ParseNTriples(&nt)
		if err != nil {
			t.Fatalf("ParseNTriples of the graph's own N-Triples: %v", err)
		}
		var loadedLog [][3]ID
		loaded.MatchScan(NoID, NoID, NoID, func(s, p, o ID) bool {
			loadedLog = append(loadedLog, [3]ID{s, p, o})
			return true
		})
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

// expectPredStats is the reference for PredStats(p): one pass over the log.
func expectPredStats(g *Graph, log [][3]ID, p ID) *PredStats {
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
// log in insertion order, re-sorted — stably — by the component the contract
// names for the three single-bound shapes.
func expectMatch(log [][3]ID, s, p, o ID) [][3]ID {
	out := [][3]ID{}
	for _, tr := range log {
		if (s == NoID || tr[0] == s) && (p == NoID || tr[1] == p) && (o == NoID || tr[2] == o) {
			out = append(out, tr)
		}
	}
	key := -1
	switch {
	case s != NoID && p == NoID && o == NoID:
		key = 1
	case s == NoID && p != NoID && o == NoID:
		key = 2
	case s == NoID && p == NoID && o != NoID:
		key = 0
	}
	if key >= 0 {
		sort.SliceStable(out, func(i, j int) bool { return out[i][key] < out[j][key] })
	}
	return out
}

// checkAgainstLog compares every read the graph offers with the log, probing
// each shape with every ID the dictionary issued plus two it did not.
func checkAgainstLog(t *testing.T, g *Graph, log [][3]ID) {
	t.Helper()
	if g.Len() != len(log) {
		t.Fatalf("Len = %d, log has %d", g.Len(), len(log))
	}
	triples := g.Triples()
	for i, tr := range log {
		want := Triple{g.Dict().Term(tr[0]), g.Dict().Term(tr[1]), g.Dict().Term(tr[2])}
		if i >= len(triples) || triples[i] != want {
			t.Fatalf("Triples()[%d] differs from the log entry %v", i, want)
		}
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
