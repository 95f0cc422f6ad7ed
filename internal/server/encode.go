package server

import (
	"bytes"
	"encoding/json"
)

// encodeJSON appends v to buf as every JSON body is written: two-space
// indent, trailing newline, byte for byte what json.Encoder with
// SetIndent("", "  ") writes, so cached and uncached responses are
// byte-identical. The encoder re-runs its validating scanner over the output
// it has just marshalled; this indents json.Marshal's output in one pass
// instead, trusting it to be compact and valid, and grows buf once, to the
// body's exact size.
func encodeJSON(buf *bytes.Buffer, v any) error {
	src, err := json.Marshal(v)
	if err != nil {
		return err
	}
	buf.Grow(indentedLen(src))
	buf.Write(appendIndented(buf.AvailableBuffer(), src))
	return nil
}

// appendIndented appends src, compact valid JSON, as json.Indent with a
// two-space indent spells it, and a newline. An empty {} or [] stays compact.
// Bytes between punctuation — strings, numbers, literals — are copied in runs.
func appendIndented(dst, src []byte) []byte {
	depth, from := 0, 0 // src[from:i] is still to be copied as it stands
	for i := 0; i < len(src); i++ {
		switch c := src[i]; c {
		case '"':
			i = stringEnd(src, i)
		case '{', '[':
			if src[i+1] == c+2 { // the matching '}' or ']'
				i++
				continue
			}
			depth++
			dst = newline(append(dst, src[from:i+1]...), depth)
			from = i + 1
		case ',':
			dst = newline(append(dst, src[from:i+1]...), depth)
			from = i + 1
		case ':':
			dst = append(append(dst, src[from:i+1]...), ' ')
			from = i + 1
		case '}', ']':
			depth--
			dst = append(newline(append(dst, src[from:i]...), depth), c)
			from = i + 1
		}
	}
	return append(append(dst, src[from:]...), '\n')
}

// indentedLen is len(appendIndented(nil, src)).
func indentedLen(src []byte) int {
	n, depth := len(src)+1, 0
	for i := 0; i < len(src); i++ {
		switch c := src[i]; c {
		case '"':
			i = stringEnd(src, i)
		case '{', '[':
			if src[i+1] == c+2 {
				i++
				continue
			}
			depth++
			n += 1 + 2*depth
		case ',':
			n += 1 + 2*depth
		case ':':
			n++
		case '}', ']':
			depth--
			n += 1 + 2*depth
		}
	}
	return n
}

// stringEnd returns the index of the quote that closes the string opened at
// src[i]: the next quote after an even run of backslashes.
func stringEnd(src []byte, i int) int {
	for {
		i += 1 + bytes.IndexByte(src[i+1:], '"')
		n := 0
		for src[i-1-n] == '\\' {
			n++
		}
		if n%2 == 0 {
			return i
		}
	}
}

func newline(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for ; depth > 0; depth-- {
		dst = append(dst, ' ', ' ')
	}
	return dst
}
