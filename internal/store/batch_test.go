package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"optimatch/internal/core"
	"optimatch/internal/fixtures"
	"optimatch/internal/qep"
)

// batchTexts renders n distinctly-named fixture plans to explain text.
func batchTexts(n int) []string {
	plans := fixtures.Numbered(n)
	out := make([]string, n)
	for i, p := range plans {
		out[i] = qep.Text(p)
	}
	return out
}

// TestAddPlanBatchRoundTrip pins the batch-ingest contract: mixed outcomes
// are per-record, the accepted plans land in the engine under one fsync and
// one WAL record, and a reopen replays the batch record exactly.
func TestAddPlanBatchRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	texts := batchTexts(6)
	if _, err := s.AddPlan(texts[0]); err != nil { // pre-load one: batch sees it as a duplicate
		t.Fatal(err)
	}
	statsBefore := s.Stats()

	batch := append([]string{"not a plan"}, texts...) // texts[0] will be a duplicate
	out, err := s.AddPlanBatch(batch)
	if err != nil {
		t.Fatalf("AddPlanBatch: %v", err)
	}
	if len(out) != len(batch) {
		t.Fatalf("outcomes = %d, want %d", len(out), len(batch))
	}
	if out[0].Err == nil || out[0].Plan != nil {
		t.Fatalf("garbage text outcome = %+v, want parse error", out[0])
	}
	if !errors.Is(out[1].Err, core.ErrDuplicatePlan) || out[1].Plan == nil {
		t.Fatalf("duplicate outcome = %+v, want ErrDuplicatePlan with plan", out[1])
	}
	for i := 2; i < len(out); i++ {
		if out[i].Err != nil {
			t.Fatalf("outcome %d: %v", i, out[i].Err)
		}
	}
	st := s.Stats()
	if got := st.Fsyncs - statsBefore.Fsyncs; got != 1 {
		t.Fatalf("batch cost %d fsyncs, want 1", got)
	}
	if got := st.AppendedRecords - statsBefore.AppendedRecords; got != 1 || st.Fsyncs != st.AppendedRecords {
		t.Fatalf("batch appended %d records (%d fsyncs, %d records since open), want 1 and one fsync per record", got, st.Fsyncs, st.AppendedRecords)
	}
	if st.BatchAppends != 1 || st.BatchPlans != int64(len(texts)-1) {
		t.Fatalf("batch counters = %d appends / %d plans, want 1 / %d", st.BatchAppends, st.BatchPlans, len(texts)-1)
	}
	if got, want := s.Engine().NumPlans(), len(texts); got != want {
		t.Fatalf("NumPlans = %d, want %d", got, want)
	}
	want := reportString(t, s.Engine(), s.KB())
	s.Close()

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Engine().NumPlans(); got != len(texts) {
		t.Fatalf("recovered NumPlans = %d, want %d", got, len(texts))
	}
	if got := reportString(t, r.Engine(), r.KB()); got != want {
		t.Fatalf("recovered report differs:\n--- want\n%s--- got\n%s", want, got)
	}
}

// TestAddPlanBatchAllRejected: a batch where nothing is accepted journals
// nothing — no record, no fsync, no sequence consumed.
func TestAddPlanBatchAllRejected(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	before := s.Stats()
	out, err := s.AddPlanBatch([]string{"garbage", "more garbage"})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range out {
		if o.Err == nil {
			t.Fatalf("outcome %d unexpectedly accepted", i)
		}
	}
	after := s.Stats()
	if after.Fsyncs != before.Fsyncs || after.AppendedRecords != before.AppendedRecords || after.LastSeq != before.LastSeq {
		t.Fatalf("all-rejected batch touched the log: before %+v after %+v", before, after)
	}
}

// TestTornBatchTruncatedWholesale pins the atomicity of the batch record: a
// crash that tears the batch frame drops the whole batch on recovery — no
// partial subset of its plans is ever visible.
func TestTornBatchTruncatedWholesale(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	texts := batchTexts(9)
	if _, err := s.AddPlan(texts[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddPlanBatch(texts[1:]); err != nil {
		t.Fatal(err)
	}
	if got := s.Engine().NumPlans(); got != len(texts) {
		t.Fatalf("NumPlans = %d, want %d", got, len(texts))
	}
	s.Close()

	// Tear the tail mid-way through the batch frame (the last record).
	walPath := filepath.Join(dir, walName)
	intact, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{7, len(intact) / 4, len(intact) / 2} {
		writeFile(t, walPath, intact[:len(intact)-cut])
		r, err := Open(dir)
		if err != nil {
			t.Fatalf("open after %d-byte tear: %v", cut, err)
		}
		if got := r.Engine().NumPlans(); got != 1 {
			t.Fatalf("after %d-byte tear: %d plans visible, want only the pre-batch plan", cut, got)
		}
		if st := r.Stats(); st.RecoveryTruncations != 1 {
			t.Fatalf("after %d-byte tear: truncations = %d, want 1", cut, st.RecoveryTruncations)
		}
		r.Close()
	}
}

// TestBatchSurvivesCompaction: compaction folds batch-ingested plans into
// the snapshot like any others, and a stale WAL containing the batch record
// is skipped by sequence on replay.
func TestBatchSurvivesCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	texts := batchTexts(5)
	if _, err := s.AddPlanBatch(texts); err != nil {
		t.Fatal(err)
	}
	want := reportString(t, s.Engine(), s.KB())

	// Preserve the pre-compaction WAL (holding the batch record), compact,
	// then restore it next to the fresh snapshot: replay must skip the
	// already-absorbed batch by sequence, not double-load it.
	walPath := filepath.Join(dir, walName)
	stale, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	writeFile(t, walPath, stale)

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Engine().NumPlans(); got != len(texts) {
		t.Fatalf("NumPlans = %d, want %d", got, len(texts))
	}
	if got := reportString(t, r.Engine(), r.KB()); got != want {
		t.Fatalf("state after compaction + stale WAL differs:\n--- want\n%s--- got\n%s", want, got)
	}
	if st := r.Stats(); st.RecoveredRecords != 0 {
		t.Fatalf("recovered %d records, want 0 (all absorbed by snapshot)", st.RecoveredRecords)
	}
}
