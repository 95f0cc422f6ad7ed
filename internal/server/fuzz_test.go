package server

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// splitNDJSONReference is the framer splitNDJSON replaced, verbatim: it
// copies the body into a string and every record back out of it.
func splitNDJSONReference(body []byte) [][]byte {
	var out [][]byte
	for _, line := range strings.Split(string(body), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		out = append(out, []byte(line))
	}
	return out
}

// recordText is what a batch record means, read off the JSON itself rather
// than through batchLine's two Unmarshal attempts: a string is its own text;
// an object's text is its "text" member. encoding/json matches member names
// to struct fields case-insensitively and lets a later duplicate overwrite an
// earlier one, so every such member must be a string or null and the last
// one a string.
func recordText(line []byte) (string, bool) {
	if !json.Valid(line) {
		return "", false
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	tok, err := dec.Token()
	if err != nil {
		return "", false
	}
	if s, ok := tok.(string); ok {
		return s, true
	}
	if tok != json.Delim('{') {
		return "", false
	}
	var text *string
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			return "", false
		}
		var val json.RawMessage
		if err := dec.Decode(&val); err != nil {
			return "", false
		}
		if !strings.EqualFold(key.(string), "text") {
			continue
		}
		if err := json.Unmarshal(val, &text); err != nil {
			return "", false
		}
	}
	if text == nil {
		return "", false
	}
	return *text, true
}

// FuzzBatchFraming holds the NDJSON framer of POST /api/plans:batch to its
// contract on arbitrary bytes: no panic; every non-blank line is exactly one
// record, in order, cut out of the body itself; the framer it replaced
// agrees; and a record is accepted iff it is a JSON string or an object with
// a string "text".
func FuzzBatchFraming(f *testing.F) {
	for _, seed := range []string{
		"", "\n\n  \n", "\"a\"\n\"b\"\n\"c\"\n", // TestBatchUploadFraming400
		`{"text":"Plan 1"}` + "\n" + `{"text":"Plan 2"}` + "\n", // TestBatchUploadObjectRecords
		"\"a\"\r\n{\"text\":\"b\"}\r\n\r\n",
		"\"a\x00b\"\n\x00\n",
		`null` + "\n" + `{"text":null}` + "\n" + `{"TEXT":"x","text":1}` + "\n" + `{"text":"a","Text":"b"}` + "\n" + `[1]` + "\n" + `{"text":{"text":"x"}}`,
		`"` + strings.Repeat("x", 1<<20) + `"` + "\n\"tail\"",
		// Bare strings as jsonstr.Unquote reads them: a surrogate pair, a lone
		// surrogate, an escaped solidus, invalid UTF-8 and a trailing \r.
		`"\ud83d\ude00"` + "\n" + `"\ud800"` + "\n" + `"\ud800\u0041\udc00"` + "\n" + `"a\/b"` + "\n" + "\"\xff\xed\xa0\x80\"\n" + "\"Q1\\t\"\r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		records := splitNDJSON(body)
		want := splitNDJSONReference(body)
		if len(records) != len(want) {
			t.Fatalf("%d records, the reference framer cuts %d", len(records), len(want))
		}
		rest := body
		for i, rec := range records {
			if !bytes.Equal(rec, want[i]) {
				t.Fatalf("record %d = %q, the reference framer cuts %q", i, rec, want[i])
			}
			if len(bytes.TrimSpace(rec)) == 0 || bytes.IndexByte(rec, '\n') >= 0 {
				t.Fatalf("record %d = %q is blank or spans lines", i, rec)
			}
			// The record is the next non-blank line of what is left.
			at := bytes.Index(rest, rec)
			if at < 0 || len(bytes.TrimSpace(rest[:at])) != 0 {
				t.Fatalf("record %d = %q is not the next non-blank line of %q", i, rec, rest)
			}
			rest = rest[at+len(rec):]

			text, err := batchLine(rec)
			wantText, ok := recordText(rec)
			if ok != (err == nil) || text != wantText {
				t.Fatalf("record %q: batchLine = (%q, %v), want (%q, accepted=%v)", rec, text, err, wantText, ok)
			}
		}
		if len(bytes.TrimSpace(rest)) != 0 {
			t.Fatalf("non-blank bytes %q after the last record", rest)
		}
	})
}
