package sparql

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind uint8

const (
	tokEOF     tokenKind = iota
	tokIRI               // <http://...>
	tokPName             // prefix:local or prefix: or :local
	tokVar               // ?name or $name
	tokBlank             // _:label
	tokString            // "..." or '...'
	tokNumber            // 123, 1.5, 1e7
	tokKeyword           // SELECT, WHERE, FILTER, ... (uppercased)
	tokA                 // the keyword 'a' (rdf:type)
	tokLBrace
	tokRBrace
	tokLParen
	tokRParen
	tokLBracket
	tokRBracket
	tokDot
	tokSemicolon
	tokComma
	tokSlash
	tokPipe
	tokCaret
	tokStar
	tokPlus
	tokQuestion
	tokMinus
	tokBang
	tokEq
	tokNeq
	tokLt
	tokGt
	tokLe
	tokGe
	tokAndAnd
	tokOrOr
	tokHatHat // ^^ datatype marker
)

type token struct {
	kind tokenKind
	text string
	pos  int // byte offset, for error messages
}

var sparqlKeywords = map[string]bool{
	"PREFIX": true, "BASE": true, "SELECT": true, "DISTINCT": true,
	"REDUCED": true, "WHERE": true, "FILTER": true, "OPTIONAL": true,
	"UNION": true, "ORDER": true, "BY": true, "ASC": true, "DESC": true,
	"LIMIT": true, "OFFSET": true, "AS": true, "BIND": true,
	"GROUP": true, "HAVING": true, "EXISTS": true, "NOT": true,
	"TRUE": true, "FALSE": true,
}

type lexer struct {
	input string
	pos   int
	toks  []token
}

// lex tokenizes the whole input up front; SPARQL queries here are small.
func lex(input string) ([]token, error) {
	l := &lexer{input: input}
	for {
		l.skipSpaceAndComments()
		if l.pos >= len(l.input) {
			l.emit(tokEOF, "")
			return l.toks, nil
		}
		if err := l.next(); err != nil {
			return nil, err
		}
	}
}

func (l *lexer) emit(kind tokenKind, text string) {
	l.toks = append(l.toks, token{kind: kind, text: text, pos: l.pos})
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.input) {
		c := l.input[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '#':
			for l.pos < len(l.input) && l.input[l.pos] != '\n' {
				l.pos++
			}
		default:
			return
		}
	}
}

func (l *lexer) errf(format string, args ...interface{}) error {
	return fmt.Errorf("sparql: position %d: %s", l.pos, fmt.Sprintf(format, args...))
}

func (l *lexer) next() error {
	c := l.input[l.pos]
	switch c {
	case '<':
		// Could be IRI <...> or comparison < / <=.
		if end := strings.IndexAny(l.input[l.pos:], "> \t\n"); end >= 0 && l.input[l.pos+end] == '>' && !strings.ContainsAny(l.input[l.pos+1:l.pos+end], "=<") {
			l.emit(tokIRI, l.input[l.pos+1:l.pos+end])
			l.pos += end + 1
			return nil
		}
		if l.pos+1 < len(l.input) && l.input[l.pos+1] == '=' {
			l.emit(tokLe, "<=")
			l.pos += 2
		} else {
			l.emit(tokLt, "<")
			l.pos++
		}
		return nil
	case '>':
		if l.pos+1 < len(l.input) && l.input[l.pos+1] == '=' {
			l.emit(tokGe, ">=")
			l.pos += 2
		} else {
			l.emit(tokGt, ">")
			l.pos++
		}
		return nil
	case '?', '$':
		start := l.pos + 1
		end := start
		for end < len(l.input) && isNameChar(rune(l.input[end])) {
			end++
		}
		if end == start {
			// bare '?': property path zero-or-one modifier
			l.emit(tokQuestion, "?")
			l.pos++
			return nil
		}
		l.emit(tokVar, l.input[start:end])
		l.pos = end
		return nil
	case '_':
		if l.pos+1 < len(l.input) && l.input[l.pos+1] == ':' {
			start := l.pos + 2
			end := start
			for end < len(l.input) && isNameChar(rune(l.input[end])) {
				end++
			}
			if end == start {
				return l.errf("empty blank node label")
			}
			l.emit(tokBlank, l.input[start:end])
			l.pos = end
			return nil
		}
		return l.errf("unexpected '_'")
	case '"', '\'':
		return l.lexString(c)
	case '{':
		l.emit(tokLBrace, "{")
		l.pos++
		return nil
	case '}':
		l.emit(tokRBrace, "}")
		l.pos++
		return nil
	case '(':
		l.emit(tokLParen, "(")
		l.pos++
		return nil
	case ')':
		l.emit(tokRParen, ")")
		l.pos++
		return nil
	case '[':
		l.emit(tokLBracket, "[")
		l.pos++
		return nil
	case ']':
		l.emit(tokRBracket, "]")
		l.pos++
		return nil
	case '.':
		// Distinguish statement dot from decimal number like ".5"? SPARQL
		// numbers always have a leading digit here, so '.' is punctuation.
		l.emit(tokDot, ".")
		l.pos++
		return nil
	case ';':
		l.emit(tokSemicolon, ";")
		l.pos++
		return nil
	case ',':
		l.emit(tokComma, ",")
		l.pos++
		return nil
	case '/':
		l.emit(tokSlash, "/")
		l.pos++
		return nil
	case '*':
		l.emit(tokStar, "*")
		l.pos++
		return nil
	case '+':
		l.emit(tokPlus, "+")
		l.pos++
		return nil
	case '-':
		l.emit(tokMinus, "-")
		l.pos++
		return nil
	case '^':
		if l.pos+1 < len(l.input) && l.input[l.pos+1] == '^' {
			l.emit(tokHatHat, "^^")
			l.pos += 2
		} else {
			l.emit(tokCaret, "^")
			l.pos++
		}
		return nil
	case '|':
		if l.pos+1 < len(l.input) && l.input[l.pos+1] == '|' {
			l.emit(tokOrOr, "||")
			l.pos += 2
		} else {
			l.emit(tokPipe, "|")
			l.pos++
		}
		return nil
	case '&':
		if l.pos+1 < len(l.input) && l.input[l.pos+1] == '&' {
			l.emit(tokAndAnd, "&&")
			l.pos += 2
			return nil
		}
		return l.errf("unexpected '&'")
	case '!':
		if l.pos+1 < len(l.input) && l.input[l.pos+1] == '=' {
			l.emit(tokNeq, "!=")
			l.pos += 2
		} else {
			l.emit(tokBang, "!")
			l.pos++
		}
		return nil
	case '=':
		l.emit(tokEq, "=")
		l.pos++
		return nil
	}

	if c >= '0' && c <= '9' {
		return l.lexNumber()
	}
	if isNameStart(rune(c)) || c == ':' {
		return l.lexWord()
	}
	return l.errf("unexpected character %q", c)
}

func (l *lexer) lexString(quote byte) error {
	var b strings.Builder
	i := l.pos + 1
	for i < len(l.input) {
		c := l.input[i]
		switch c {
		case quote:
			l.emit(tokString, b.String())
			l.pos = i + 1
			return nil
		case '\\':
			if i+1 >= len(l.input) {
				return l.errf("dangling escape in string")
			}
			i++
			switch l.input[i] {
			case '"':
				b.WriteByte('"')
			case '\'':
				b.WriteByte('\'')
			case '\\':
				b.WriteByte('\\')
			case 'n':
				b.WriteByte('\n')
			case 'r':
				b.WriteByte('\r')
			case 't':
				b.WriteByte('\t')
			default:
				return l.errf("unknown string escape \\%c", l.input[i])
			}
			i++
		case '\n':
			return l.errf("newline in string literal")
		default:
			b.WriteByte(c)
			i++
		}
	}
	return l.errf("unterminated string literal")
}

func (l *lexer) lexNumber() error {
	end := numberEnd(l.input, l.pos)
	l.emit(tokNumber, l.input[l.pos:end])
	l.pos = end
	return nil
}

// numberEnd returns the end of the number token that starts at s[i], a digit:
// digits, a decimal part, an exponent.
func numberEnd(s string, i int) int {
	digits := func(i int) int {
		for i < len(s) && s[i] >= '0' && s[i] <= '9' {
			i++
		}
		return i
	}
	i = digits(i)
	// Only a decimal point when followed by a digit; otherwise it is the
	// statement terminator ("FILTER(?x > 100).").
	if i+1 < len(s) && s[i] == '.' && s[i+1] >= '0' && s[i+1] <= '9' {
		i = digits(i + 1)
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		j := i + 1
		if j < len(s) && (s[j] == '+' || s[j] == '-') {
			j++
		}
		if j < len(s) && s[j] >= '0' && s[j] <= '9' {
			i = digits(j)
		}
	}
	return i
}

func (l *lexer) lexWord() error {
	start := l.pos
	i := l.pos
	for i < len(l.input) && (isNameChar(rune(l.input[i])) || l.input[i] == '.') {
		// A trailing dot belongs to the statement, not the name.
		if l.input[i] == '.' && (i+1 >= len(l.input) || !isNameChar(rune(l.input[i+1]))) {
			break
		}
		i++
	}
	word := l.input[start:i]
	// Prefixed name: word contains ':' or is followed by ':'.
	if i < len(l.input) && l.input[i] == ':' {
		j := i + 1
		for j < len(l.input) && (isNameChar(rune(l.input[j])) || l.input[j] == '.') {
			if l.input[j] == '.' && (j+1 >= len(l.input) || !isNameChar(rune(l.input[j+1]))) {
				break
			}
			j++
		}
		l.emit(tokPName, l.input[start:j])
		l.pos = j
		return nil
	}
	if word == "a" {
		l.emit(tokA, "a")
		l.pos = i
		return nil
	}
	upper := strings.ToUpper(word)
	if sparqlKeywords[upper] {
		l.emit(tokKeyword, upper)
		l.pos = i
		return nil
	}
	// Bare word: builtin function name (REGEX, BOUND, ...) — treated as a
	// keyword-like identifier; the parser decides.
	l.emit(tokKeyword, upper)
	l.pos = i
	return nil
}

func isNameStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isNameChar(r rune) bool {
	return r == '_' || r == '-' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
