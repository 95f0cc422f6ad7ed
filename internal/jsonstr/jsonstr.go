// Package jsonstr spells a string as JSON and reads one back, byte for byte as
// encoding/json does, without reflection and into buffers of exact size.
// Append writes what json.Marshal writes for a string; Unquote reads what
// json.Unmarshal reads into a *string from a line that holds one string.
// Explain texts cross JSON this way on their path to and from the disk: a
// batch upload's NDJSON line, a journal record, a snapshot.
package jsonstr

import (
	"slices"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"
)

const hex = "0123456789abcdef"

// spell[c] is how Append spells the ASCII byte c: its first two bytes, and in
// bits 16-17 how many of them the spelling takes. A byte copied as it stands
// takes one; \" \\ \b \f \n \r \t take two. The other control bytes and <, >
// and & are spelled \u00XX, six bytes (json.Marshal escapes the last three
// for HTML's sake): their entry is 0, and so is that of every byte from 0x80
// up, where a UTF-8 sequence starts.
var spell = func() (t [256]uint32) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = 1<<16 | uint32(c)
	}
	for c, e := range map[byte]byte{'"': '"', '\\': '\\', '\b': 'b', '\f': 'f', '\n': 'n', '\r': 'r', '\t': 't'} {
		t[c] = 2<<16 | uint32(e)<<8 | '\\'
	}
	t['<'], t['>'], t['&'] = 0, 0, 0
	return t
}()

// extra[c] is how many bytes more than one Append spells the ASCII byte c in;
// 0 from 0x80 up, where Len looks at the whole UTF-8 sequence.
var extra = func() (t [256]uint8) {
	for c := 0; c < utf8.RuneSelf; c++ {
		t[c] = uint8(spell[c]>>16) - 1
		if spell[c] == 0 {
			t[c] = uint8(len(`\u00XX`)) - 1
		}
	}
	return t
}()

// plain[c] reports whether the byte c stands for itself inside a JSON string
// that Unquote reads: ASCII other than the control bytes, '"' and '\\'.
var plain = func() (p [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		p[c] = c != '"' && c != '\\'
	}
	return p
}()

// Len is len(Append(nil, s)).
func Len[S ~string | ~[]byte](s S) int {
	n := len(s) + 2
	var high byte
	for i := 0; i < len(s); i++ {
		n += int(extra[s[i]])
		high |= s[i]
	}
	if high < utf8.RuneSelf {
		return n
	}
	for i := 0; i < len(s); {
		if s[i] < utf8.RuneSelf {
			i++
			continue
		}
		r, size := decodeRune(s, i)
		if r == utf8.RuneError && size == 1 {
			n += len(`\ufffd`) - 1
		} else if r == '\u2028' || r == '\u2029' {
			n += len(`\u2028`) - size
		}
		i += size
	}
	return n
}

// Append appends s to dst as json.Marshal spells it: quoted, with the control
// bytes, '"', '\\', '<', '>', '&', U+2028 and U+2029 escaped and each byte of
// invalid UTF-8 replaced by \ufffd. It counts the spelling first and grows
// dst at most once: an empty dst to exactly the spelling's length, a longer one
// as append would.
func Append[S ~string | ~[]byte](dst []byte, s S) []byte {
	return AppendGrown(slices.Grow(dst, Len(s)), s)
}

// AppendGrown is Append into a dst that has room for Len(s) more bytes already:
// it spells s without counting the spelling again, for a caller that counted
// it to size dst. It panics if dst has less room.
func AppendGrown[S ~string | ~[]byte](dst []byte, s S) []byte {
	out := dst[len(dst):cap(dst)]
	out[0] = '"'
	j := 1
	for i := 0; i < len(s); i++ {
		c := s[i]
		if v := spell[c]; v != 0 {
			// Both bytes are written; a one-byte spelling's second is
			// overwritten next, by the closing quote at the latest.
			out[j] = byte(v)
			out[j+1] = byte(v >> 8)
			j += int(v >> 16)
			continue
		}
		if c < utf8.RuneSelf {
			j += copy(out[j:], `\u00`)
			out[j] = hex[c>>4]
			out[j+1] = hex[c&0xF]
			j += 2
			continue
		}
		r, size := decodeRune(s, i)
		switch {
		case r == utf8.RuneError && size == 1:
			j += copy(out[j:], `\ufffd`)
		case r == '\u2028' || r == '\u2029':
			j += copy(out[j:], `\u202`)
			out[j] = hex[r&0xF]
			j++
		default:
			j += copy(out[j:], s[i:i+size])
		}
		i += size - 1
	}
	out[j] = '"'
	return dst[:len(dst)+j+1]
}

// decodeRune decodes the UTF-8 sequence at s[i]. Only the sequence's bytes are
// converted to a string, which stays on the stack when s is a []byte.
func decodeRune[S ~string | ~[]byte](s S, i int) (rune, int) {
	return utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
}

// Unquote returns what json.Unmarshal stores into a *string from line, when
// line is one JSON string with nothing but JSON whitespace around it: every
// escape decoded, a valid surrogate pair joined, and a lone surrogate escape
// and each byte of invalid UTF-8 read as U+FFFD. For any other line —
// another JSON value, or bytes json.Unmarshal refuses — it reports false.
// The string is allocated once, at its exact size.
func Unquote(line []byte) (string, bool) {
	q := trimSpace(line)
	n, ok := unquotedLen(q)
	if !ok {
		return "", false
	}
	q = q[1 : len(q)-1]
	out := make([]byte, n)
	j := 0
	for i := 0; i < len(q); i++ {
		c := q[i]
		if c < utf8.RuneSelf && c != '\\' {
			out[j] = c
			j++
			continue
		}
		if c == '\\' {
			if e := unescaped[q[i+1]]; e != 0 {
				out[j] = e
				j++
				i++
				continue
			}
			r, size := unescape(q[i:])
			j += utf8.EncodeRune(out[j:], r)
			i += size - 1
			continue
		}
		r, size := utf8.DecodeRune(q[i:])
		if r == utf8.RuneError && size == 1 {
			j += utf8.EncodeRune(out[j:], r)
			continue
		}
		j += copy(out[j:], q[i:i+size])
		i += size - 1
	}
	// out is complete and nothing writes it again: the string may share it.
	return unsafe.String(unsafe.SliceData(out), n), true
}

// unescaped[c] is the byte the escape \c stands for, 0 for \u and for
// escapes json.Unmarshal refuses.
var unescaped = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// unquotedLen checks that q, a line trimmed of JSON whitespace, is one JSON
// string and returns the length of what it unquotes to.
func unquotedLen(q []byte) (int, bool) {
	if len(q) < 2 || q[0] != '"' {
		return 0, false
	}
	n := len(q) - 2
	for i := 1; i < len(q); i++ {
		c := q[i]
		if plain[c] {
			continue
		}
		switch {
		case c == '"':
			return n, i == len(q)-1
		case c == '\\':
			if i+1 < len(q) && unescaped[q[i+1]] != 0 {
				n--
				i++
				continue
			}
			r, size := unescape(q[i:])
			if size == 0 {
				return 0, false
			}
			n += utf8.RuneLen(r) - size
			i += size - 1
		case c < ' ':
			return 0, false
		default:
			r, size := utf8.DecodeRune(q[i:])
			if r == utf8.RuneError && size == 1 {
				n += utf8.RuneLen(utf8.RuneError) - 1
			}
			i += size - 1
		}
	}
	return 0, false // no closing quote
}

// unescape decodes the escape at q[0] == '\\' the way json.Unmarshal does,
// returning the rune it stands for and its length in q, 0 if json.Unmarshal
// refuses it. A \u escape of a high surrogate followed by one of a low
// surrogate is one rune of both; any other surrogate escape is U+FFFD, and an
// escape after it is read on its own.
func unescape(q []byte) (rune, int) {
	if len(q) < 2 {
		return 0, 0
	}
	if e := unescaped[q[1]]; e != 0 {
		return rune(e), 2
	}
	if q[1] != 'u' {
		return 0, 0
	}
	r := hex4(q)
	if r < 0 {
		return 0, 0
	}
	if !utf16.IsSurrogate(r) {
		return r, 6
	}
	if pair := utf16.DecodeRune(r, hex4(q[6:])); pair != unicode.ReplacementChar {
		return pair, 12
	}
	return unicode.ReplacementChar, 6
}

// hex4 reads the escape \uXXXX at the start of q, -1 if there is none.
func hex4(q []byte) rune {
	if len(q) < 6 || q[0] != '\\' || q[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range q[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// trimSpace cuts JSON whitespace — space, tab, newline, carriage return —
// from both ends of b.
func trimSpace(b []byte) []byte {
	isSpace := func(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
	for len(b) > 0 && isSpace(b[0]) {
		b = b[1:]
	}
	for len(b) > 0 && isSpace(b[len(b)-1]) {
		b = b[:len(b)-1]
	}
	return b
}
