package rdf

import (
	"bufio"
	"bytes"
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// WriteNTriples serializes the graph in N-Triples form, one statement per
// line, the lines in ascending byte order so output is deterministic. This is
// the "generated RDF in textual representation" of the paper's Figure 2.
func WriteNTriples(w io.Writer, g *Graph) error {
	_, err := w.Write(AppendNTriples(nil, g))
	return err
}

// AppendNTriples appends what WriteNTriples writes to dst, growing it at most
// once, to the size the lines need.
//
// A term is rendered once, however many triples carry it, and the lines are
// never compared. Only two small sets are sorted by token: the subjects and
// the predicates in use, two predicates that render alike sharing one rank.
// The lines go out subject by subject in token order, the rows of subjects
// that render alike (a plain literal and its xsd:string twin) merged; a
// subject's rows are ordered by (predicate rank, object token), so an
// object's token is compared only with another object of the same subject
// and predicate. That is the order of the lines because the set of tokens,
// each with the space that follows it on a line, is prefix-free — so two
// lines differ first inside the first token they do not share, at a byte that
// also orders those two tokens. Prefix-free: were `a ` a proper prefix of
// `b `, b would continue behind a with a space. Behind an IRI token that needs
// a raw '>' inside b's IRI (the IRI of b's datatype, if b is a literal
// starting with a's), which appendIRI escapes; behind a literal's closing
// quote it needs an unescaped '"' inside b's lexical form — the same bytes
// precede it in a and in b, so it is unescaped in both — which appendQuoted
// escapes; behind a literal's datatype see the IRI case. A blank node label
// holding a space would do it; N-Triples has no such label and cannot read
// the line back either way.
func AppendNTriples(dst []byte, g *Graph) []byte {
	spo, d := &g.idx.spo, g.dict
	n := d.Len() + 1 // IDs and the zero ID
	// Token id is text[start[id]:start[id+1]], its trailing space included.
	start := make([]int, n+1)
	size := (n - len(d.terms)) * (len(`"-1.2345678901234567e-123"^^<>`) + len(XSDDouble) + 1)
	for _, t := range d.terms {
		size += len(t.Value) + len(t.Datatype) + 8
	}
	text := make([]byte, 0, size)
	for id := 1; id < n; id++ {
		start[id] = len(text)
		text = append(d.appendToken(text, ID(id)), ' ')
	}
	start[n] = len(text)
	token := func(id ID) []byte { return text[start[id]:start[id+1]] }
	byToken := func(a, b ID) int { return bytes.Compare(token(a), token(b)) }

	// The subjects, in token order, and the size of the lines.
	subjects := make([]ID, 0, len(spo.off)-1)
	size, widest := 0, 0
	for s := ID(1); int(s) < len(spo.off)-1; s++ {
		lo, hi := spo.bucket(s)
		if lo == hi {
			continue
		}
		subjects = append(subjects, s)
		size += (hi - lo) * (len(token(s)) + len(".\n"))
		for i := lo; i < hi; i++ {
			size += len(token(spo.b[i])) + len(token(spo.c[i]))
		}
		widest = max(widest, hi-lo)
	}
	slices.SortFunc(subjects, byToken)

	// byRank lists the predicates in use in token order; rank[p] is the
	// position in it of the first predicate that renders as p does.
	stats := g.idx.preds
	byRank := make([]ID, len(stats))
	for i, st := range stats {
		byRank[i] = st.Pred
	}
	slices.SortFunc(byRank, byToken)
	var rank []uint32
	if len(stats) > 0 {
		rank = make([]uint32, stats[len(stats)-1].Pred+1)
	}
	for i, p := range byRank {
		rank[p] = uint32(i)
		if i > 0 && bytes.Equal(token(p), token(byRank[i-1])) {
			rank[p] = rank[byRank[i-1]]
		}
	}

	// One subject's rows, or its twins' together, as rank<<32 | object, in
	// line order. pdqsort: insertion sort for a few rows, O(n log n) for many.
	rows := make([]uint64, 0, widest)
	byLine := func(a, b uint64) int {
		if a>>32 != b>>32 {
			return cmp.Compare(a>>32, b>>32)
		}
		return bytes.Compare(token(ID(a)), token(ID(b)))
	}
	dst = slices.Grow(dst, size)
	for i := 0; i < len(subjects); {
		subject := token(subjects[i])
		rows = rows[:0]
		for ; i < len(subjects) && bytes.Equal(token(subjects[i]), subject); i++ {
			for j, end := spo.bucket(subjects[i]); j < end; j++ {
				rows = append(rows, uint64(rank[spo.b[j]])<<32|uint64(spo.c[j]))
			}
		}
		slices.SortFunc(rows, byLine)
		for _, r := range rows {
			dst = append(append(append(dst, subject...), token(byRank[r>>32])...), token(ID(r))...)
			dst = append(dst, ".\n"...)
		}
	}
	return dst
}

// appendTerm appends t in N-Triples syntax: <iri>, _:label, or
// "lexical"^^<datatype>.
func appendTerm(dst []byte, t Term) []byte {
	switch t.Kind {
	case IRIKind:
		return append(appendIRI(append(dst, '<'), t.Value), '>')
	case BlankKind:
		return append(append(dst, "_:"...), t.Value...)
	case LiteralKind:
		dst = appendQuoted(dst, t.Value)
		if t.Datatype == "" || t.Datatype == XSDString {
			return dst
		}
		return append(appendIRI(append(dst, "^^<"...), t.Datatype), '>')
	default:
		return append(dst, "<invalid term>"...)
	}
}

// appendIRI appends iri with every character the IRIREF production excludes —
// controls and space, <>"{}|^`, backslash — written as a \u escape. An explain
// file can put any of them into a statement ID, an argument key or an object
// name, and so into an IRI; raw, a '>' or a space ends the term early for
// whoever reads the document.
func appendIRI(dst []byte, iri string) []byte {
	const hex = "0123456789ABCDEF"
	clean := 0 // iri[clean:i] needs no escape and is not yet appended
	for i := 0; i < len(iri); i++ {
		if c := iri[i]; iriExcluded[c] {
			dst = append(append(dst, iri[clean:i]...), '\\', 'u', '0', '0', hex[c>>4], hex[c&15])
			clean = i + 1
		}
	}
	return append(dst, iri[clean:]...)
}

var iriExcluded = func() (excluded [256]bool) {
	for c := 0; c <= ' '; c++ {
		excluded[c] = true
	}
	for _, c := range []byte("<>\"{}|^`\\") {
		excluded[c] = true
	}
	return excluded
}()

// appendQuoted appends s as a quoted N-Triples string: quote, backslash, line
// feed, carriage return and tab escaped, every byte that is not part of a
// UTF-8 sequence replaced by U+FFFD, everything else as it is.
func appendQuoted(dst []byte, s string) []byte {
	dst = append(dst, '"')
	clean := 0 // s[clean:i] goes out as it is and is not yet appended
	for i := 0; i < len(s); {
		var escape string
		switch c := s[i]; {
		case c == '"':
			escape = `\"`
		case c == '\\':
			escape = `\\`
		case c == '\n':
			escape = `\n`
		case c == '\r':
			escape = `\r`
		case c == '\t':
			escape = `\t`
		case c < utf8.RuneSelf:
			i++
			continue
		default:
			if r, size := utf8.DecodeRuneInString(s[i:]); r != utf8.RuneError || size > 1 {
				i += size
				continue
			}
			escape = string(utf8.RuneError)
		}
		dst = append(append(dst, s[clean:i]...), escape...)
		i++
		clean = i
	}
	return append(append(dst, s[clean:]...), '"')
}

// ParseNTriples reads N-Triples statements from r into a fresh graph.
// Comments (# ...) and blank lines are skipped. The subset accepted is
// exactly what WriteNTriples emits plus language-free literals, in UTF-8 (the
// encoding N-Triples is defined in): a line that is not is refused, since the
// writer would spell its invalid bytes as U+FFFD. A literal typed xsd:string
// is the plain literal it equals, as the writer spells it.
func ParseNTriples(r io.Reader) (*Graph, error) {
	b := NewBuilder()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !utf8.ValidString(line) {
			return nil, fmt.Errorf("ntriples: line %d: not UTF-8", lineNo)
		}
		t, err := parseNTripleLine(line)
		if err != nil {
			return nil, fmt.Errorf("ntriples: line %d: %w", lineNo, err)
		}
		b.AddTriple(t)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ntriples: %w", err)
	}
	return b.Graph(), nil
}

func parseNTripleLine(line string) (Triple, error) {
	p := ntParser{input: line}
	s, err := p.term()
	if err != nil {
		return Triple{}, fmt.Errorf("subject: %w", err)
	}
	pred, err := p.term()
	if err != nil {
		return Triple{}, fmt.Errorf("predicate: %w", err)
	}
	o, err := p.term()
	if err != nil {
		return Triple{}, fmt.Errorf("object: %w", err)
	}
	p.skipSpace()
	if p.pos >= len(p.input) || p.input[p.pos] != '.' {
		return Triple{}, fmt.Errorf("missing terminating '.'")
	}
	return Triple{S: s, P: pred, O: o}, nil
}

type ntParser struct {
	input string
	pos   int
}

func (p *ntParser) skipSpace() {
	for p.pos < len(p.input) && (p.input[p.pos] == ' ' || p.input[p.pos] == '\t') {
		p.pos++
	}
}

func (p *ntParser) term() (Term, error) {
	p.skipSpace()
	if p.pos >= len(p.input) {
		return Term{}, fmt.Errorf("unexpected end of line")
	}
	switch p.input[p.pos] {
	case '<':
		end := strings.IndexByte(p.input[p.pos:], '>')
		if end < 0 {
			return Term{}, fmt.Errorf("unterminated IRI")
		}
		iri, err := unescapeIRI(p.input[p.pos+1 : p.pos+end])
		if err != nil {
			return Term{}, err
		}
		p.pos += end + 1
		return IRI(iri), nil
	case '_':
		if p.pos+1 >= len(p.input) || p.input[p.pos+1] != ':' {
			return Term{}, fmt.Errorf("malformed blank node")
		}
		start := p.pos + 2
		end := start
		for end < len(p.input) && !isNTSpace(p.input[end]) {
			end++
		}
		label := p.input[start:end]
		if label == "" {
			return Term{}, fmt.Errorf("empty blank node label")
		}
		p.pos = end
		return Blank(label), nil
	case '"':
		lex, next, err := unquoteLiteral(p.input, p.pos)
		if err != nil {
			return Term{}, err
		}
		p.pos = next
		datatype := ""
		if strings.HasPrefix(p.input[p.pos:], "^^<") {
			p.pos += 3
			end := strings.IndexByte(p.input[p.pos:], '>')
			if end < 0 {
				return Term{}, fmt.Errorf("unterminated datatype IRI")
			}
			if datatype, err = unescapeIRI(p.input[p.pos : p.pos+end]); err != nil {
				return Term{}, err
			}
			p.pos += end + 1
		}
		if datatype == XSDString {
			datatype = ""
		}
		return TypedLiteral(lex, datatype), nil
	default:
		return Term{}, fmt.Errorf("unexpected character %q", p.input[p.pos])
	}
}

func isNTSpace(b byte) bool { return b == ' ' || b == '\t' }

// unescapeIRI decodes the \uXXXX and \UXXXXXXXX escapes of an IRI, the only
// ones the grammar gives it (see appendIRI for the writing side).
func unescapeIRI(s string) (string, error) {
	if strings.IndexByte(s, '\\') < 0 {
		return s, nil
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' {
			b.WriteByte(s[i])
			continue
		}
		digits := 0
		if i+1 < len(s) {
			switch s[i+1] {
			case 'u':
				digits = 4
			case 'U':
				digits = 8
			}
		}
		if digits == 0 || i+2+digits > len(s) {
			return "", fmt.Errorf("bad escape in IRI %q", s)
		}
		r, err := strconv.ParseUint(s[i+2:i+2+digits], 16, 32)
		if err != nil || !utf8.ValidRune(rune(r)) {
			return "", fmt.Errorf("bad escape in IRI %q", s)
		}
		b.WriteRune(rune(r))
		i += 1 + digits
	}
	return b.String(), nil
}

func unquoteLiteral(s string, start int) (lex string, next int, err error) {
	var b strings.Builder
	i := start + 1 // skip opening quote
	for i < len(s) {
		c := s[i]
		switch c {
		case '"':
			return b.String(), i + 1, nil
		case '\\':
			if i+1 >= len(s) {
				return "", 0, fmt.Errorf("dangling escape")
			}
			i++
			switch s[i] {
			case '"':
				b.WriteByte('"')
			case '\\':
				b.WriteByte('\\')
			case 'n':
				b.WriteByte('\n')
			case 'r':
				b.WriteByte('\r')
			case 't':
				b.WriteByte('\t')
			default:
				return "", 0, fmt.Errorf("unknown escape \\%c", s[i])
			}
			i++
		default:
			b.WriteByte(c)
			i++
		}
	}
	return "", 0, fmt.Errorf("unterminated literal")
}
