package rdf

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestNTriplesRoundTrip(t *testing.T) {
	gb := testBuilder()
	gb.Add(IRI("pop5"), IRI("hasComment"), String("has \"quotes\" and\nnewline"))
	g := gb.Graph()

	var buf bytes.Buffer
	if err := WriteNTriples(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ParseNTriples(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Len() != g.Len() {
		t.Fatalf("round trip Len = %d, want %d", g2.Len(), g.Len())
	}
	a, b := g.Triples(), g2.Triples()
	sort.Slice(a, func(i, j int) bool { return a[i].String() < a[j].String() })
	sort.Slice(b, func(i, j int) bool { return b[i].String() < b[j].String() })
	if !reflect.DeepEqual(a, b) {
		t.Errorf("round trip mismatch:\n%v\nvs\n%v", a, b)
	}
}

func TestWriteNTriplesDeterministic(t *testing.T) {
	g := testGraph()
	var b1, b2 bytes.Buffer
	if err := WriteNTriples(&b1, g); err != nil {
		t.Fatal(err)
	}
	if err := WriteNTriples(&b2, g); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Error("output not deterministic")
	}
	lines := strings.Split(strings.TrimSpace(b1.String()), "\n")
	if !sort.StringsAreSorted(lines) {
		t.Error("output not sorted")
	}
}

func TestParseNTriplesSkipsCommentsAndBlanks(t *testing.T) {
	in := `
# a comment
<s> <p> "o" .

<s> <p> <o2> .
`
	g, err := ParseNTriples(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 2 {
		t.Errorf("Len = %d, want 2", g.Len())
	}
}

func TestParseNTriplesBlankNodesAndDatatypes(t *testing.T) {
	in := `_:b1 <p> "4043.0"^^<` + XSDDouble + `> .`
	g, err := ParseNTriples(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	ts := g.Triples()
	if len(ts) != 1 {
		t.Fatalf("got %d triples", len(ts))
	}
	if !ts[0].S.IsBlank() || ts[0].S.Value != "b1" {
		t.Errorf("subject = %v", ts[0].S)
	}
	if ts[0].O.Datatype != XSDDouble || ts[0].O.Value != "4043.0" {
		t.Errorf("object = %v", ts[0].O)
	}
}

func TestParseNTriplesErrors(t *testing.T) {
	bad := []string{
		`<s> <p> "o"`,            // missing dot
		`<s> <p .`,               // unterminated IRI
		`<s> <p> "unterminated`,  // unterminated literal
		`<s> <p> "bad\escape" .`, // unknown escape
		`<s> <p> ? .`,            // junk term
		`_:b <p>`,                // missing object
		`<s> _x <o> .`,           // malformed blank predicate
		`<s> <p> "x"^^<dt .`,     // unterminated datatype
	}
	for _, in := range bad {
		if _, err := ParseNTriples(strings.NewReader(in)); err == nil {
			t.Errorf("ParseNTriples(%q): expected error", in)
		}
	}
}

func TestParseNTriplesEscapes(t *testing.T) {
	in := `<s> <p> "a\"b\\c\nd\te\rf" .`
	g, err := ParseNTriples(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	got := g.Triples()[0].O.Value
	want := "a\"b\\c\nd\te\rf"
	if got != want {
		t.Errorf("unescaped = %q, want %q", got, want)
	}
}
