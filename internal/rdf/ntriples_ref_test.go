package rdf

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// writeNTriplesReference is the writer WriteNTriples replaced, kept as the
// oracle it is checked against: every triple formatted as its line, the lines
// sorted as strings. It renders terms by itself (termReference), so it shares
// neither the order nor the escaping with what it checks.
func writeNTriplesReference(w io.Writer, g *Graph) error {
	lines := make([]string, 0, g.Len())
	for _, t := range g.Triples() {
		lines = append(lines, fmt.Sprintf("%s %s %s .", termReference(t.S), termReference(t.P), termReference(t.O)))
	}
	sort.Strings(lines)
	bw := bufio.NewWriter(w)
	for _, line := range lines {
		if _, err := bw.WriteString(line); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// termReference is Term.String as it was before the writer rendered into a
// buffer, with the one intended difference: an IRI goes through iriReference.
func termReference(t Term) string {
	switch t.Kind {
	case IRIKind:
		return "<" + iriReference(t.Value) + ">"
	case BlankKind:
		return "_:" + t.Value
	case LiteralKind:
		q := quoteLiteralReference(t.Value)
		if t.Datatype == "" || t.Datatype == XSDString {
			return q
		}
		return q + "^^<" + iriReference(t.Datatype) + ">"
	default:
		return "<invalid term>"
	}
}

// iriReference escapes what IRIREF excludes: [^#x00-#x20<>"{}|^`\]. An IRI
// without any of it — all of them, before an explain file could name one — is
// returned as it is, which is what the replaced writer did with every IRI.
func iriReference(iri string) string {
	excluded := func(c byte) bool { return c <= 0x20 || strings.IndexByte("<>\"{}|^`\\", c) >= 0 }
	clean := true
	for i := 0; i < len(iri); i++ {
		clean = clean && !excluded(iri[i])
	}
	if clean {
		return iri
	}
	var b strings.Builder
	for i := 0; i < len(iri); i++ {
		if c := iri[i]; excluded(c) {
			fmt.Fprintf(&b, `\u%04X`, c)
		} else {
			b.WriteByte(c)
		}
	}
	return b.String()
}

func quoteLiteralReference(s string) string {
	var b strings.Builder
	b.Grow(len(s) + 2)
	b.WriteByte('"')
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
	return b.String()
}
