package server

import (
	"bytes"
	"encoding/json"
	"fmt"

	"optimatch/internal/core"
	"optimatch/internal/jsonstr"
	"optimatch/internal/transform"
)

// maxAnswerBytes bounds the body of a search or SPARQL answer: one that would
// be larger is not sent, and the route answers 422 naming the bound. The
// largest body any benchmark deck produces is 564 402 bytes.
const maxAnswerBytes = 16 << 20

// encodeJSON appends v to buf as every small JSON body is written: two-space
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

// The three bodies that carry rows — search, SPARQL and kb/run — are appended
// straight from their rows, in the bytes encodeJSON writes for the wire
// structs they replaced (matchBody, reportBody and recBody, which survive in
// encode_test.go as the oracle): a match's bindings in Columns.Sorted order,
// as a map's keys are, a repeated name keeping its last column. Strings are
// spelled by jsonstr.Append, which FuzzJSONString holds to json.Marshal;
// json.Marshal spells every number, so no float rule of encoding/json is
// written twice.

// scratch holds the buffers bodies are appended in; renderBody copies each
// body out once, at its exact size, so a cached body carries no slack and a
// render that finds a grown buffer here allocates only its body. Appending
// the body twice, once to measure it, would need no buffer but costs more than
// the copy. The buffers are kept in a channel, not a sync.Pool, because a
// collection empties a pool: a render after two collections without one would
// grow a new buffer by doubling. At most two are kept (a third concurrent
// render grows its own), and one grown past maxScratchBytes is dropped.
var scratch = make(chan []byte, 2)

const maxScratchBytes = 4 << 20

// renderBody returns what appendBody appends to an empty buffer.
func renderBody(appendBody func(dst []byte) ([]byte, error)) ([]byte, error) {
	var b []byte
	select {
	case b = <-scratch:
	default:
	}
	b, err := appendBody(b[:0])
	var body []byte
	if err == nil {
		body = bytes.Clone(b)
	}
	if cap(b) <= maxScratchBytes {
		select {
		case scratch <- b:
		default:
		}
	}
	return body, err
}

// appendMatchBody appends the answer {"matches": [...]} to dst, with
// "pattern": *pattern after the matches when pattern is not nil (a search).
// An answer over limit bytes is an error naming limit; the rows are appended
// until the first one that takes the body past it.
func appendMatchBody(dst []byte, ms []transform.Match, pattern *string, limit int) ([]byte, error) {
	start := len(dst)
	dst = append(dst, "{\n  \"matches\": ["...)
	for i, m := range ms {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = jsonstr.Append(append(dst, "\n    {\n      \"plan\": "...), m.Plan().ID)
		dst = append(dst, ",\n      \"bindings\": {"...)
		names, sorted := m.Cols.Names(), m.Cols.Sorted()
		bound := false
		for k, c := range sorted {
			if k+1 < len(sorted) && names[sorted[k+1]] == names[c] {
				continue // a later column of the same name is the one kept
			}
			if bound {
				dst = append(dst, ',')
			}
			bound = true
			dst = append(jsonstr.Append(append(dst, "\n        "...), names[c]), ": \""...)
			dst = closeString(m.AppendDisplay(dst, c), len(dst))
		}
		if bound {
			dst = append(dst, "\n      "...)
		}
		dst = append(dst, "}\n    }"...)
		if len(dst)-start > limit {
			return dst, answerTooLarge(limit)
		}
	}
	if len(ms) > 0 {
		dst = append(dst, "\n  "...)
	}
	dst = append(dst, ']')
	if pattern != nil {
		dst = jsonstr.Append(append(dst, ",\n  \"pattern\": "...), *pattern)
	}
	dst = append(dst, "\n}\n"...)
	if len(dst)-start > limit {
		return dst, answerTooLarge(limit)
	}
	return dst, nil
}

func answerTooLarge(limit int) error {
	return fmt.Errorf("answer exceeds %d bytes", limit)
}

// appendReportBody appends the kb/run body to dst: per plan its ID, Message
// and ranked recommendations. A confidence json.Marshal refuses (NaN, ±Inf) is
// the error it returns.
func appendReportBody(dst []byte, reports []core.PlanReport) ([]byte, error) {
	dst = append(dst, '[')
	for i := range reports {
		r := &reports[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = jsonstr.Append(append(dst, "\n  {\n    \"plan\": "...), r.Plan.ID)
		dst = jsonstr.Append(append(dst, ",\n    \"message\": "...), r.Message())
		if len(r.Recommendations) > 0 {
			dst = append(dst, ",\n    \"recommendations\": ["...)
			for k := range r.Recommendations {
				rec := &r.Recommendations[k]
				if k > 0 {
					dst = append(dst, ',')
				}
				dst = jsonstr.Append(append(dst, "\n      {\n        \"entry\": "...), rec.Entry.Name)
				dst = jsonstr.Append(append(dst, ",\n        \"title\": "...), rec.Recommendation.Title)
				if rec.Recommendation.Category != "" {
					dst = jsonstr.Append(append(dst, ",\n        \"category\": "...), rec.Recommendation.Category)
				}
				conf, err := json.Marshal(rec.Confidence)
				if err != nil {
					return dst, err
				}
				dst = append(append(dst, ",\n        \"confidence\": "...), conf...)
				dst = jsonstr.Append(append(dst, ",\n        \"text\": "...), rec.Text)
				dst = append(dst, "\n      }"...)
			}
			dst = append(dst, "\n    ]"...)
		}
		dst = append(dst, "\n  }"...)
	}
	if len(reports) > 0 {
		dst = append(dst, '\n')
	}
	return append(dst, "]\n"...), nil
}

// closeString makes dst[from:], raw bytes behind the quote at dst[from-1],
// the JSON string json.Marshal spells for them: it closes the quote when no
// byte needs an escape, and has jsonstr.Append spell a copy of the bytes over
// them otherwise.
func closeString(dst []byte, from int) []byte {
	raw := dst[from:]
	if jsonstr.Len(raw) == len(raw)+2 {
		return append(dst, '"')
	}
	return jsonstr.Append(dst[:from-1], string(raw))
}
