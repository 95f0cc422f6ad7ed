package store

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"optimatch/internal/core"
	"optimatch/internal/fixtures"
	"optimatch/internal/kb"
	"optimatch/internal/pattern"
	"optimatch/internal/qep"
)

// planTexts returns the fixture plans as explain text, keyed by ID.
func planTexts() map[string]string {
	out := make(map[string]string)
	for _, p := range fixtures.All() {
		out[p.ID] = qep.Text(p)
	}
	return out
}

// reportString renders a full KB run deterministically, so tests can
// compare recovered state to a reference byte for byte. Per-plan blocks come
// in the engine's load order: a failed mutation moves nothing and replay loads
// in log order, so equal states list their plans in the same order.
func reportString(t *testing.T, eng *core.Engine, base *kb.KnowledgeBase) string {
	t.Helper()
	reports, err := eng.RunKB(context.Background(), base)
	if err != nil {
		t.Fatalf("RunKB: %v", err)
	}
	var b strings.Builder
	for i := range reports {
		fmt.Fprintf(&b, "%s: %s\n", reports[i].Plan.ID, reports[i].Message())
		for _, r := range reports[i].Recommendations {
			fmt.Fprintf(&b, "  [%s] %s %.6f %s\n", r.Entry.Name, r.Recommendation.Title, r.Confidence, r.Text)
		}
	}
	return b.String()
}

func testEntryPattern() *pattern.Pattern { return pattern.F() }

func testEntryRec() kb.Recommendation {
	return kb.Recommendation{
		Title:    "review CSE",
		Template: "check @TOP shared by @CONSUMER2 and @CONSUMER3",
		Weight:   0.5,
	}
}

func TestRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	texts := planTexts()

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"Q2", "Q9", "Q21"} {
		if _, err := s.AddPlan(texts[id]); err != nil {
			t.Fatalf("AddPlan(%s): %v", id, err)
		}
	}
	if _, err := s.AddEntry(testEntryPattern(), testEntryRec()); err != nil {
		t.Fatalf("AddEntry: %v", err)
	}
	if ok, err := s.RemovePlan("Q9"); err != nil || !ok {
		t.Fatalf("RemovePlan(Q9) = %v, %v", ok, err)
	}
	if ok, err := s.RemovePlan("GHOST"); err != nil || ok {
		t.Fatalf("RemovePlan(GHOST) = %v, %v", ok, err)
	}
	want := reportString(t, s.Engine(), s.KB())
	wantStats := s.Stats()
	if wantStats.AppendedRecords != 5 || wantStats.LastSeq != 5 || wantStats.Fsyncs != wantStats.AppendedRecords {
		t.Errorf("stats = %+v", wantStats)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if n := r.Engine().NumPlans(); n != 2 {
		t.Fatalf("recovered plans = %d", n)
	}
	if r.Engine().Plan("Q9") != nil || r.Engine().Plan("Q2") == nil {
		t.Error("plan removal not recovered")
	}
	if r.KB().Entry(testEntryPattern().Name) == nil {
		t.Error("kb entry not recovered")
	}
	if got := reportString(t, r.Engine(), r.KB()); got != want {
		t.Errorf("recovered report differs:\n--- want\n%s--- got\n%s", want, got)
	}
	st := r.Stats()
	if st.RecoveredRecords != 5 || st.RecoveryTruncations != 0 || st.LastSeq != 5 {
		t.Errorf("recovered stats = %+v", st)
	}
	// Three plans were replayed (one of them removed again), in a measured time.
	if st.RecoveredPlans != 3 || st.RecoveryMillis <= 0 {
		t.Errorf("recovered stats = %+v, want 3 plans replayed in a positive time", st)
	}
	if fresh := s.Stats(); fresh.RecoveredPlans != 0 || fresh.RecoveredRecords != 0 {
		t.Errorf("the first Open of an empty directory recovered something: %+v", fresh)
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	texts := planTexts()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"Q2", "Q9", "Q21"} {
		if _, err := s.AddPlan(texts[id]); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	walPath := filepath.Join(dir, walName)
	intact, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name      string
		mutate    func(t *testing.T)
		wantPlans int
	}{
		{"garbage appended", func(t *testing.T) {
			writeFile(t, walPath, append(append([]byte(nil), intact...), "torn!"...))
		}, 3},
		{"mid-record cut", func(t *testing.T) {
			writeFile(t, walPath, intact[:len(intact)-7])
		}, 2},
		{"flipped byte in last record", func(t *testing.T) {
			bad := append([]byte(nil), intact...)
			bad[len(bad)-3] ^= 0xff
			writeFile(t, walPath, bad)
		}, 2},
		{"header-only tail", func(t *testing.T) {
			writeFile(t, walPath, append(append([]byte(nil), intact...), 0xff, 0xff, 0xff))
		}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.mutate(t)
			r, err := Open(dir)
			if err != nil {
				t.Fatalf("open after corruption: %v", err)
			}
			defer r.Close()
			if n := r.Engine().NumPlans(); n != tc.wantPlans {
				t.Errorf("plans = %d, want %d", n, tc.wantPlans)
			}
			if st := r.Stats(); st.RecoveryTruncations != 1 {
				t.Errorf("truncations = %d", st.RecoveryTruncations)
			}
			// The truncated log must reopen cleanly a second time.
			r.Close()
			r2, err := Open(dir)
			if err != nil {
				t.Fatalf("second open: %v", err)
			}
			defer r2.Close()
			if st := r2.Stats(); st.RecoveryTruncations != 0 {
				t.Errorf("second open truncations = %d", st.RecoveryTruncations)
			}
			writeFile(t, walPath, intact) // restore for the next case
		})
	}
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompactionShrinksWALAndPreservesState(t *testing.T) {
	dir := t.TempDir()
	texts := planTexts()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for id, text := range texts {
		if _, err := s.AddPlan(text); err != nil {
			t.Fatalf("AddPlan(%s): %v", id, err)
		}
	}
	if _, err := s.AddEntry(testEntryPattern(), testEntryRec()); err != nil {
		t.Fatal(err)
	}
	want := reportString(t, s.Engine(), s.KB())
	before := s.Stats()
	if before.WALBytes == 0 {
		t.Fatal("WAL empty before compaction")
	}

	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	after := s.Stats()
	if after.WALBytes != 0 || after.WALRecords != 0 {
		t.Errorf("WAL not reset: %+v", after)
	}
	if after.Generation != 1 || after.Compactions != 1 || after.LastCompaction.IsZero() {
		t.Errorf("compaction stats = %+v", after)
	}
	if got := reportString(t, s.Engine(), s.KB()); got != want {
		t.Error("compaction changed served state")
	}

	// Appends keep working after the log swap, and recovery sees both the
	// snapshot and the tail.
	if ok, err := s.RemovePlan("Q2"); err != nil || !ok {
		t.Fatalf("RemovePlan after compact = %v, %v", ok, err)
	}
	s.Close()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Engine().Plan("Q2") != nil || r.Engine().NumPlans() != len(texts)-1 {
		t.Errorf("post-compaction tail not replayed: %d plans", r.Engine().NumPlans())
	}
	if st := r.Stats(); st.Generation != 1 || st.RecoveredRecords != 1 {
		t.Errorf("recovered stats = %+v", st)
	}
}

// A crash between publishing the snapshot and resetting the WAL leaves the
// full old log next to the new snapshot; sequence numbers keep replay
// idempotent.
func TestSnapshotPlusStaleWAL(t *testing.T) {
	dir := t.TempDir()
	texts := planTexts()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddPlan(texts["Q2"]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddPlan(texts["Q9"]); err != nil {
		t.Fatal(err)
	}
	s.Close()
	walPath := filepath.Join(dir, walName)
	stale, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	writeFile(t, walPath, stale) // resurrect the pre-compaction log

	r, err := Open(dir)
	if err != nil {
		t.Fatalf("open with stale WAL: %v", err)
	}
	defer r.Close()
	if n := r.Engine().NumPlans(); n != 2 {
		t.Errorf("plans = %d (stale records must be skipped, not re-applied)", n)
	}
	if st := r.Stats(); st.RecoveredRecords != 0 {
		t.Errorf("recovered = %d, want 0 (all records at or below snapshot seq)", st.RecoveredRecords)
	}
}

func TestAutoCompact(t *testing.T) {
	dir := t.TempDir()
	texts := planTexts()
	s, err := Open(dir, WithAutoCompact(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.AddPlan(texts["Q2"]); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Compactions != 0 {
		t.Errorf("compacted too early: %+v", st)
	}
	if _, err := s.AddPlan(texts["Q9"]); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Compactions != 1 || st.WALRecords != 0 {
		t.Errorf("auto-compact missing: %+v", st)
	}
}

func TestDefaultKBAndSnapshotPrecedence(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithDefaultKB(kb.MustExtended()))
	if err != nil {
		t.Fatal(err)
	}
	wantLen := s.KB().Len()
	if wantLen != kb.MustExtended().Len() {
		t.Fatalf("default kb = %d entries", wantLen)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// After a snapshot exists, the default is ignored: the snapshot's KB
	// (extended) wins over a canonical default.
	r, err := Open(dir, WithDefaultKB(kb.MustCanonical()))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.KB().Len() != wantLen {
		t.Errorf("kb after reopen = %d entries, want %d", r.KB().Len(), wantLen)
	}
}

func TestClosedStoreRefusesMutations(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Errorf("second Close: %v", err)
	}
	if _, err := s.AddPlan("x"); !errors.Is(err, ErrClosed) {
		t.Errorf("AddPlan after close: %v", err)
	}
	if _, err := s.RemovePlan("x"); !errors.Is(err, ErrClosed) {
		t.Errorf("RemovePlan after close: %v", err)
	}
	if _, err := s.AddEntry(testEntryPattern(), testEntryRec()); !errors.Is(err, ErrClosed) {
		t.Errorf("AddEntry after close: %v", err)
	}
	if _, err := s.RemoveEntry("x"); !errors.Is(err, ErrClosed) {
		t.Errorf("RemoveEntry after close: %v", err)
	}
	if err := s.Compact(); !errors.Is(err, ErrClosed) {
		t.Errorf("Compact after close: %v", err)
	}
}

func TestValidationErrorsAreNotPersistErrors(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.AddPlan("not a plan"); err == nil || errors.Is(err, ErrPersist) {
		t.Errorf("garbage plan: %v", err)
	}
	texts := planTexts()
	if _, err := s.AddPlan(texts["Q2"]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddPlan(texts["Q2"]); err == nil || errors.Is(err, ErrPersist) {
		t.Errorf("duplicate plan: %v", err)
	}
	// Failed mutations must not leave records behind.
	if st := s.Stats(); st.AppendedRecords != 1 {
		t.Errorf("appended = %d, want 1", st.AppendedRecords)
	}
}

// TestReplaySkipsRefusedEntry opens a log as an older binary could have left
// it: that binary journaled a knowledge-base entry whose pattern compiles to
// a query that does not parse (nobody parsed it until a scan did), a good
// entry, and the removal that cleaned the bad one up. The current kb.Add
// refuses the bad pattern; replay must skip it, treat its removal as the no-op
// it now is, count the skip, and still fail on anything else.
func TestReplaySkipsRefusedEntry(t *testing.T) {
	entry := func(name, propID string) json.RawMessage {
		return json.RawMessage(`{"name":"` + name + `","pattern":{"pops":[{"ID":1,"type":"NLJOIN","popProperties":[` +
			`{"id":"` + propID + `","sign":">","value":"1"}]}]},"recommendations":[{"title":"t","template":"look at @TOP"}]}`)
	}
	log := func(recs ...record) []byte {
		var wal []byte
		for i := range recs {
			recs[i].Seq = uint64(i + 1)
			buf, err := encodeRecord(&recs[i])
			if err != nil {
				t.Fatal(err)
			}
			wal = append(wal, buf...)
		}
		return wal
	}

	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, walName), log(
		record{Op: opAddEntry, ID: "bad", Item: entry("bad", "has TotalCost")},
		record{Op: opAddEntry, ID: "good", Item: entry("good", "hasTotalCost")},
		record{Op: opRemoveEntry, ID: "bad"},
	))
	s, err := Open(dir, WithDefaultKB(kb.New()))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	if base := s.KB(); base.Len() != 1 || base.Entry("good") == nil {
		t.Errorf("recovered %d entries, want the good one alone", base.Len())
	}
	if st := s.Stats(); st.SkippedEntries != 1 || st.RecoveredRecords != 3 || st.LastSeq != 3 {
		t.Errorf("stats = %+v, want 1 skipped of 3 replayed", st)
	}
	if _, err := s.Engine().RunKB(context.Background(), s.KB()); err != nil {
		t.Errorf("RunKB over the recovered knowledge base: %v", err)
	}

	// The removal of a name that was neither added nor skipped is still the
	// corruption it always was.
	dir = t.TempDir()
	writeFile(t, filepath.Join(dir, walName), log(record{Op: opRemoveEntry, ID: "bad"}))
	if _, err := Open(dir, WithDefaultKB(kb.New())); err == nil {
		t.Error("Open replayed the removal of an entry that never existed")
	}
}

// TestReplaySkipsDuplicateAliasEntry opens a log holding an entry whose
// pattern gives two pops one handler alias in two spellings ("top" beside the
// generated "TOP"), which the binaries before aliases had to be unique
// regardless of case journaled. Validate refuses it now, so replay skips it
// like any entry this binary cannot compile, and the store opens.
func TestReplaySkipsDuplicateAliasEntry(t *testing.T) {
	item := json.RawMessage(`{"name":"twice","pattern":{"pops":[{"ID":1,"type":"NLJOIN","popProperties":[]},` +
		`{"ID":2,"type":"TBSCAN","alias":"top","popProperties":[]}]},"recommendations":[{"title":"t","template":"look at @TOP"}]}`)
	var e kb.Entry
	if err := json.Unmarshal(item, &e); err != nil {
		t.Fatal(err)
	}
	if _, err := pattern.Compile(e.Pattern); err == nil || !strings.Contains(err.Error(), "pops 1 and 2") {
		t.Fatalf("Compile of the journaled pattern: %v, want the duplicate alias refused", err)
	}
	dir := t.TempDir()
	appendRecords(t, dir,
		record{Seq: 1, Op: opAddPlan, ID: "Q2", Text: qep.Text(fixtures.Figure1())},
		record{Seq: 2, Op: opAddEntry, ID: "twice", Item: item},
	)
	s, err := Open(dir, WithDefaultKB(kb.New()))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	if st := s.Stats(); st.SkippedEntries != 1 || st.RecoveredRecords != 2 || s.KB().Len() != 0 {
		t.Errorf("stats = %+v, %d entries; want the entry skipped and nothing else lost", st, s.KB().Len())
	}
	if s.Engine().Plan("Q2") == nil {
		t.Error("the plan journaled before the entry was not recovered")
	}
}

// TestRecoversInapplicableFieldEntry opens a log as the binaries before
// template expansion was total left it: they accepted and journaled an entry
// whose template asks a base-object handler for a cost ("@BASE4.COST" on
// Pattern A), and from then on failed every knowledge-base run over a plan the
// pattern matches. Refusing the entry now would strand the directory; instead
// it loads, and the run renders the gap.
func TestRecoversInapplicableFieldEntry(t *testing.T) {
	p := pattern.A()
	p.Name = "cost-of-a-table"
	e, err := kb.New().Add(p, kb.Recommendation{Title: "t", Template: "@BASE4 costs @BASE4.COST"})
	if err != nil {
		t.Fatal(err)
	}
	item, err := json.Marshal(e) // what AddEntry journals
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	appendRecords(t, dir,
		record{Seq: 1, Op: opAddPlan, ID: "Q2", Text: qep.Text(fixtures.Figure1())},
		record{Seq: 2, Op: opAddEntry, ID: e.Name, Item: item},
	)
	s, err := Open(dir, WithDefaultKB(kb.New()))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	if st := s.Stats(); st.SkippedEntries != 0 || s.KB().Entry(e.Name) == nil {
		t.Fatalf("entry %s not recovered (skipped %d)", e.Name, st.SkippedEntries)
	}
	if got := reportString(t, s.Engine(), s.KB()); !strings.Contains(got, "CUST_DIM costs (n/a)") {
		t.Fatalf("report does not render the inapplicable field:\n%s", got)
	}
}
