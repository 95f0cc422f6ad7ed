package rdf

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// maxNTriplesInput is the largest input FuzzNTriples holds to its budgets;
// longer inputs are cut to it.
const maxNTriplesInput = 64 << 10

// FuzzNTriples feeds ParseNTriples arbitrary bytes, the way
// optimatch.ReadNTriples hands it whatever a caller read. No input may panic,
// and on up to 64 KiB of input the parse — refused or not — stays within a
// second and within a heap budget linear in the input (parseBudget). Whatever
// parses is written by WriteNTriples and read back: the same set of triples.
func FuzzNTriples(f *testing.F) {
	var doc bytes.Buffer
	gb := testBuilder()
	gb.Add(IRI("pop5"), IRI("hasComment"), String("has \"quotes\" and\nnewline"))
	g := gb.Graph()
	if err := WriteNTriples(&doc, g); err != nil {
		f.Fatal(err)
	}
	f.Add(doc.Bytes())
	for _, s := range []string{
		"",
		"# a comment\n\n  <s> <p> <o> .  \r\n",
		`_:b1 <p> "4043.0"^^<` + XSDDouble + `> .`,
		`<s> <p> "x"^^<` + XSDString + `> .` + "\n" + `<s> <p> "x" .`,
		`<s t> <p\U0001F600> "tab\there" .`,
		`<s> <p> "caf` + "\xe9" + `" .`,
		`<a b> <"{}|^` + "`" + `> "\\\"" . trailing`,
		`"lit" "as" "subject" .`,
		`<s> <p> <o>`,
		`<s> <p> "unterminated .`,
		`<s> <p> "bad \q escape" .`,
		`<s\u12> <p> <o> .`,
		`<s\UFFFFFFFF> <p> <o> .`,
		`_: <p> <o> .`,
		"<s> <p> _:x\x00y .",
		strings.Repeat("_:a _:b _:c .\n", maxNTriplesInput/15),
		distinctTerms(),
		strings.Repeat(`<A`, maxNTriplesInput/7),
		`<s> <p> "` + strings.Repeat(`\\`, maxNTriplesInput/2-8) + `" .`,
	} {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		data = data[:min(len(data), maxNTriplesInput)]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		g, err := ParseNTriples(bytes.NewReader(data))
		took := time.Since(start)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > parseBudget(len(data)) {
			t.Errorf("parsing %d bytes allocated %d, budget %d", len(data), alloc, parseBudget(len(data)))
		}
		if took > time.Second {
			t.Errorf("parsing %d bytes took %v", len(data), took)
		}
		if err != nil {
			return
		}

		var out bytes.Buffer
		if err := WriteNTriples(&out, g); err != nil {
			t.Fatal(err)
		}
		back, err := ParseNTriples(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("WriteNTriples wrote what ParseNTriples refuses: %v\n%s", err, out.Bytes())
		}
		want, got := tripleSet(g), tripleSet(back)
		for tr := range want {
			if !got[tr] {
				t.Fatalf("%v lost in the round trip through\n%s", tr, out.Bytes())
			}
		}
		for tr := range got {
			if !want[tr] {
				t.Fatalf("%v gained in the round trip through\n%s", tr, out.Bytes())
			}
		}
	})
}

// parseBudget is the heap a parse of n bytes may allocate: the scanner's 64 KiB
// buffer, and per input byte room for the terms, the dictionary and the log
// of the triples it can spell. 64 KiB of lines whose every term is new
// (distinctTerms) measured 60 B per byte, the dictionary's growth included.
func parseBudget(n int) uint64 { return 256<<10 + 128*uint64(n) }

// distinctTerms is 64 KiB of triples of blank nodes no line repeats.
func distinctTerms() string {
	var b strings.Builder
	for i := 0; b.Len() < maxNTriplesInput-40; i++ {
		fmt.Fprintf(&b, "_:%x _:%x _:%x .\n", 3*i, 3*i+1, 3*i+2)
	}
	return b.String()
}

func tripleSet(g *Graph) map[Triple]bool {
	out := make(map[Triple]bool, g.Len())
	for _, t := range g.Triples() {
		out[t] = true
	}
	return out
}
