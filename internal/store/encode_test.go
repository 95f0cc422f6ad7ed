package store

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"optimatch/internal/fixtures"
	"optimatch/internal/kb"
	"optimatch/internal/pattern"
	"optimatch/internal/qep"
)

// oddText is explain text with every kind of byte the JSON spelling of a
// string treats apart: the tabs and newlines of the format, quotes,
// backslashes, HTML's <, > and &, control bytes, U+2028 and U+2029, valid
// multi-byte UTF-8 and invalid UTF-8.
var oddText = qep.Text(fixtures.Figure1()) + "\"\\ <&> \x00\x1f\x7f \u2028\u2029 é 漢 😀 \xff\xed\xa0\x80 \r\n"

// idxEntry is a knowledge-base entry whose recommendation title needs
// escaping, as AddEntry journals it: json.Marshal of the entry.
func idxEntry(t testing.TB) (*kb.Entry, json.RawMessage) {
	t.Helper()
	p := pattern.A()
	p.Name = "idx-entry"
	e, err := kb.New().Add(p, kb.Recommendation{Title: `Idx "<&>"`, Template: "index @BASE4 <now> & \u2028"})
	if err != nil {
		t.Fatal(err)
	}
	item, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	return e, item
}

// TestRecordBytesMatchMarshal holds encodeRecord's payload to json.Marshal of
// the record, the encoder it replaced, for a record of every op and the edges
// of each field: empty strings omitted or not as the struct's tags say, the
// largest sequence number, a batch with an empty text.
func TestRecordBytesMatchMarshal(t *testing.T) {
	_, item := idxEntry(t)
	recs := []record{
		{Seq: 0, Op: opAddPlan, Text: oddText},
		{Seq: 1, Op: opAddPlan, ID: "Q<1>", Text: oddText},
		{Seq: 2, Op: opRemovePlan, ID: "Q\u20281"},
		{Seq: 3, Op: opAddEntry, ID: "idx-entry", Item: item},
		{Seq: 4, Op: opRemoveEntry, ID: `Idx "<&>"`},
		{Seq: 5, Op: opAddPlanBatch, Batch: []batchItem{{ID: "Q1", Text: oddText}, {ID: "", Text: ""}, {ID: "Q\xff", Text: "x"}}},
		{Seq: math.MaxUint64, Op: opAddPlanBatch, Batch: []batchItem{{ID: "Q1", Text: oddText}}},
		{Seq: 10, Op: ""},
	}
	for _, rec := range recs {
		want, err := json.Marshal(&rec)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := encodeRecord(&rec)
		if err != nil {
			t.Fatalf("encodeRecord(seq %d, %s): %v", rec.Seq, rec.Op, err)
		}
		payloads, _, torn := scanFrames(buf)
		if len(payloads) != 1 || torn || len(buf) != headerSize+len(payloads[0]) {
			t.Fatalf("seq %d, %s: the frame of %d bytes scans as %d payloads, torn %v", rec.Seq, rec.Op, len(buf), len(payloads), torn)
		}
		if !bytes.Equal(payloads[0], want) {
			t.Errorf("seq %d, %s: payload\n%.300q\njson.Marshal\n%.300q", rec.Seq, rec.Op, payloads[0], want)
		}
		if cap(buf) != len(buf) {
			t.Errorf("seq %d, %s: a %d-byte frame in a buffer of %d", rec.Seq, rec.Op, len(buf), cap(buf))
		}
	}
}

// TestSnapshotBytesMatchMarshal holds snapshot.json, as compaction writes it
// for the benchmark's 64 seed-1 plans and a knowledge base holding idxEntry,
// to json.Marshal of the snapshot struct it was written from before: the
// plans' qep.Text and kb.Save's envelope as a RawMessage.
func TestSnapshotBytesMatchMarshal(t *testing.T) {
	dir := benchLog(t)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	e, _ := idxEntry(t)
	if _, err := s.AddEntry(e.Pattern, e.Recommendations...); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	read, err := readSnapshot(s.fs, dir)
	if err != nil {
		t.Fatal(err)
	}
	oracle := &snapshot{Version: 1, Generation: read.Generation, LastSeq: read.LastSeq}
	for _, p := range s.Engine().Plans() {
		oracle.Plans = append(oracle.Plans, snapshotPlan{ID: p.ID, Text: qep.Text(p)})
	}
	var kbJSON bytes.Buffer
	if err := s.KB().Save(&kbJSON); err != nil {
		t.Fatal(err)
	}
	oracle.KB = kbJSON.Bytes()
	want, err := json.Marshal(oracle)
	if err != nil {
		t.Fatal(err)
	}
	if len(oracle.Plans) != 64 || !strings.Contains(string(want), `Idx \"\u003c\u0026\u003e\"`) {
		t.Fatalf("the oracle holds %d plans and no escaped idx-entry title", len(oracle.Plans))
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("snapshot.json (%d bytes) parts from json.Marshal (%d bytes) at byte %d: %.80q, want %.80q",
			len(got), len(want), i, got[i:], want[i:])
	}
}
