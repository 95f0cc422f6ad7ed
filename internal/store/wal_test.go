package store

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// TestRecordSizeBoundary pins maxRecordBytes on the write side: a record whose
// JSON payload is exactly the limit frames, and scanFrames reads it back; one
// byte more is ErrRecordTooLarge, with nothing framed.
func TestRecordSizeBoundary(t *testing.T) {
	empty, err := json.Marshal(&record{Seq: 1, Op: opAddPlan, Text: "x"})
	if err != nil {
		t.Fatal(err)
	}
	overhead := len(empty) - 1
	rec := &record{Seq: 1, Op: opAddPlan, Text: strings.Repeat("x", maxRecordBytes-overhead)}
	buf, err := encodeRecord(rec)
	if err != nil {
		t.Fatalf("record of exactly %d payload bytes: %v", maxRecordBytes, err)
	}
	if len(buf) != headerSize+maxRecordBytes {
		t.Fatalf("framed %d bytes, want %d", len(buf), headerSize+maxRecordBytes)
	}
	if payloads, _, torn := scanFrames(buf); len(payloads) != 1 || torn {
		t.Fatalf("scanFrames of the largest record = %d payloads, torn %v; want 1, false", len(payloads), torn)
	}

	rec.Text += "x"
	if buf, err := encodeRecord(rec); !errors.Is(err, ErrRecordTooLarge) || buf != nil {
		t.Fatalf("record of %d payload bytes = %d framed, %v; want ErrRecordTooLarge", maxRecordBytes+1, len(buf), err)
	}
}
