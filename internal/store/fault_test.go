package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"optimatch/internal/faultfs"
	"optimatch/internal/storefs"
)

// baselineStore opens a store on fsys and acknowledges two plans and one KB
// entry: the state the fault and protocol tests start from.
func baselineStore(t *testing.T, fsys storefs.FS) (string, *Store) {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, WithFS(fsys))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	for _, text := range batchTexts(2) {
		if _, err := s.AddPlan(text); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.AddEntry(testEntryPattern(), testEntryRec()); err != nil {
		t.Fatal(err)
	}
	return dir, s
}

// faultStore is baselineStore with every filesystem operation going through a
// fault injector. It returns the injector, the store, the directory and the
// baseline's deterministic KB-run report.
func faultStore(t *testing.T) (string, *faultfs.FS, *Store, string) {
	t.Helper()
	ffs := faultfs.Wrap(storefs.OS{})
	dir, s := baselineStore(t, ffs)
	return dir, ffs, s, reportString(t, s.Engine(), s.KB())
}

// wantDegraded asserts the store is read-only: every mutator must refuse
// with ErrDegraded without touching served state.
func wantDegraded(t *testing.T, s *Store, want string) {
	t.Helper()
	if h := s.Health(); h.State != HealthDegraded || h.Reason == "" || h.Since == nil {
		t.Fatalf("Health() = %+v, want degraded with reason and timestamp", h)
	}
	if !s.Stats().Degraded {
		t.Fatal("Stats().Degraded = false while degraded")
	}
	if _, err := s.AddPlan(batchTexts(3)[2]); !errors.Is(err, ErrDegraded) {
		t.Fatalf("AddPlan while degraded: %v, want ErrDegraded", err)
	}
	if _, err := s.AddPlanBatch(batchTexts(1)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("AddPlanBatch while degraded: %v, want ErrDegraded", err)
	}
	if _, err := s.RemovePlan("W1"); !errors.Is(err, ErrDegraded) {
		t.Fatalf("RemovePlan while degraded: %v, want ErrDegraded", err)
	}
	if _, err := s.AddEntry(testEntryPattern(), testEntryRec()); !errors.Is(err, ErrDegraded) {
		t.Fatalf("AddEntry while degraded: %v, want ErrDegraded", err)
	}
	if _, err := s.RemoveEntry(testEntryPattern().Name); !errors.Is(err, ErrDegraded) {
		t.Fatalf("RemoveEntry while degraded: %v, want ErrDegraded", err)
	}
	if err := s.Compact(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Compact while degraded: %v, want ErrDegraded", err)
	}
	if got := reportString(t, s.Engine(), s.KB()); got != want {
		t.Fatalf("served state drifted while degraded:\n--- want\n%s--- got\n%s", want, got)
	}
}

// recoverImage opens a moment-of-crash copy of dir with a clean filesystem
// (the next process on a healed disk) and returns its recovered sequence
// and report.
func recoverImage(t *testing.T, dir string) (uint64, string) {
	t.Helper()
	img := copyStoreDir(t, dir)
	r, err := Open(img)
	if err != nil {
		t.Fatalf("recovering crash image: %v", err)
	}
	defer r.Close()
	return r.Stats().LastSeq, reportString(t, r.Engine(), r.KB())
}

func TestAppendWriteFaultDegradesAndRollsBack(t *testing.T) {
	for _, kind := range []faultfs.Kind{faultfs.KindErr, faultfs.KindENOSPC, faultfs.KindShortWrite} {
		t.Run(kind.String(), func(t *testing.T) {
			dir, ffs, s, want := faultStore(t)
			ackSeq := s.Stats().LastSeq

			ffs.FailNth(faultfs.OpWrite, 1, kind)
			text := batchTexts(3)[2]
			_, err := s.AddPlan(text)
			if !errors.Is(err, ErrPersist) || !errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("AddPlan = %v, want ErrPersist wrapping the injected fault", err)
			}
			if kind == faultfs.KindENOSPC && !errors.Is(err, syscall.ENOSPC) {
				t.Fatalf("AddPlan = %v, want the ENOSPC cause preserved", err)
			}
			if s.Engine().Plan("W3") != nil {
				t.Fatal("failed AddPlan left the plan in the engine")
			}
			if got := s.Stats().FaultWrites; got != 1 {
				t.Fatalf("FaultWrites = %d, want 1", got)
			}
			wantDegraded(t, s, want)

			// Invariant 1: a crash image taken now recovers to exactly the
			// acknowledged state — the failed append (torn or whole) is gone.
			seq, got := recoverImage(t, dir)
			if seq != ackSeq || got != want {
				t.Fatalf("recovered seq %d (want %d):\n--- want\n%s--- got\n%s", seq, ackSeq, want, got)
			}

			// Invariant 3: heal the disk, reopen, and the store takes writes
			// again; a restart replays to the same bytes.
			ffs.Clear()
			if err := s.Reopen(); err != nil {
				t.Fatalf("Reopen after healing: %v", err)
			}
			if h := s.Health(); h.State != HealthOK {
				t.Fatalf("Health after reopen = %+v", h)
			}
			if _, err := s.AddPlan(text); err != nil {
				t.Fatalf("AddPlan after reopen: %v", err)
			}
			want = reportString(t, s.Engine(), s.KB())
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			seq, got = recoverImage(t, dir)
			if seq != ackSeq+1 || got != want {
				t.Fatalf("post-reopen restart: seq %d (want %d), report mismatch %v",
					seq, ackSeq+1, got != want)
			}
		})
	}
}

func TestFsyncFaultScrubsUnacknowledgedTail(t *testing.T) {
	dir, ffs, s, want := faultStore(t)
	before := s.Stats()
	ackSeq := before.LastSeq

	// The record is fully written before the fsync fails: without the tail
	// scrub it would sit complete-and-valid on disk, and recovery would
	// resurrect a mutation the caller saw fail.
	ffs.FailNth(faultfs.OpSync, 1, faultfs.KindErr)
	if _, err := s.AddPlan(batchTexts(3)[2]); !errors.Is(err, ErrPersist) {
		t.Fatalf("AddPlan = %v, want ErrPersist", err)
	}
	st := s.Stats()
	if st.FaultSyncs != 1 {
		t.Fatalf("FaultSyncs = %d, want 1", st.FaultSyncs)
	}
	// A failed fsync counts neither an append nor an fsync.
	if st.AppendedRecords != before.AppendedRecords || st.Fsyncs != st.AppendedRecords {
		t.Fatalf("after a failed fsync: %d records appended, %d fsyncs; want %d of each",
			st.AppendedRecords, st.Fsyncs, before.AppendedRecords)
	}
	seq, got := recoverImage(t, dir)
	if seq != ackSeq || got != want {
		t.Fatalf("recovered seq %d, want %d (unacknowledged record survived the scrub)", seq, ackSeq)
	}
}

func TestFsyncFaultWithFailedScrubRepairsOnReopen(t *testing.T) {
	dir, ffs, s, want := faultStore(t)
	ackSeq := s.Stats().LastSeq

	// Worst case: the fsync fails AND the best-effort scrub truncate fails
	// too, so a complete record with an unacknowledged sequence number is
	// left on disk. A crash image recovers it — the inherent ambiguity of a
	// failed fsync — but Reopen must drop it before writes resume.
	ffs.FailNth(faultfs.OpSync, 1, faultfs.KindErr)
	ffs.FailNth(faultfs.OpTruncate, 1, faultfs.KindErr)
	if _, err := s.AddPlan(batchTexts(3)[2]); !errors.Is(err, ErrPersist) {
		t.Fatalf("AddPlan = %v, want ErrPersist", err)
	}
	if seq, _ := recoverImage(t, dir); seq != ackSeq+1 {
		t.Fatalf("crash image seq = %d, want %d (the unscrubbed record)", seq, ackSeq+1)
	}

	ffs.Clear()
	if err := s.Reopen(); err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen compacted from memory: the log holding the unscrubbed record
	// was replaced by an empty one, so a fresh process sees exactly the
	// acknowledged state.
	seq, got := recoverImage(t, dir)
	if seq != ackSeq || got != want {
		t.Fatalf("post-reopen seq %d, want %d (reopen kept an unacknowledged record)", seq, ackSeq)
	}
}

func TestReopenFailureStaysDegradedAndIsRetryable(t *testing.T) {
	dir, ffs, s, want := faultStore(t)
	ackSeq := s.Stats().LastSeq

	ffs.FailNth(faultfs.OpWrite, 1, faultfs.KindErr)
	if _, err := s.AddPlan(batchTexts(3)[2]); !errors.Is(err, ErrPersist) {
		t.Fatalf("AddPlan = %v, want ErrPersist", err)
	}
	walPath := filepath.Join(dir, walName)
	walBefore, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// The disk is still broken during the repair: Reopen's compaction cannot
	// write its snapshot. It must NOT truncate anything, and stays degraded.
	ffs.FailNth(faultfs.OpWrite, 1, faultfs.KindErr)
	if err := s.Reopen(); !errors.Is(err, ErrPersist) {
		t.Fatalf("Reopen on broken disk = %v, want ErrPersist", err)
	}
	st := s.Stats()
	if !st.Degraded || st.ReopenFailures != 1 || st.Reopens != 0 || st.FaultCompactions != 1 {
		t.Fatalf("after failed reopen: %+v", st)
	}
	if got, err := os.ReadFile(walPath); err != nil || !bytes.Equal(got, walBefore) {
		t.Fatalf("failed reopen changed the log: %d bytes (%v), was %d", len(got), err, len(walBefore))
	}
	if seq, got := recoverImage(t, dir); seq != ackSeq || got != want {
		t.Fatalf("crash image after failed reopen: seq %d (want %d), report match %v", seq, ackSeq, got == want)
	}

	ffs.Clear()
	if err := s.Reopen(); err != nil {
		t.Fatalf("retried Reopen: %v", err)
	}
	st = s.Stats()
	if st.Degraded || st.Reopens != 1 || st.ReopenFailures != 1 {
		t.Fatalf("after successful reopen: %+v", st)
	}
	if got := reportString(t, s.Engine(), s.KB()); got != want {
		t.Fatal("reopen changed served state")
	}
	if _, err := s.AddPlan(batchTexts(3)[2]); err != nil {
		t.Fatalf("AddPlan after reopen: %v", err)
	}
}

func TestReopenOnHealthyStoreIsNoOp(t *testing.T) {
	_, _, s, want := faultStore(t)
	if err := s.Reopen(); err != nil {
		t.Fatalf("Reopen on healthy store: %v", err)
	}
	st := s.Stats()
	if st.Reopens != 0 || st.ReopenFailures != 0 {
		t.Fatalf("no-op reopen moved counters: %+v", st)
	}
	if got := reportString(t, s.Engine(), s.KB()); got != want {
		t.Fatal("no-op reopen changed served state")
	}
}

func TestDegradedBatchIsAllOrNothing(t *testing.T) {
	dir, ffs, s, want := faultStore(t)
	ackSeq := s.Stats().LastSeq

	// Invariant 2: a batch whose single WAL append fails must not leave any
	// of its plans behind, in memory or on disk.
	ffs.FailNth(faultfs.OpWrite, 1, faultfs.KindErr)
	if _, err := s.AddPlanBatch(batchTexts(6)[2:]); !errors.Is(err, ErrPersist) {
		t.Fatalf("AddPlanBatch = %v, want ErrPersist", err)
	}
	for _, id := range []string{"W3", "W4", "W5", "W6"} {
		if s.Engine().Plan(id) != nil {
			t.Fatalf("failed batch left %s in the engine", id)
		}
	}
	if got := reportString(t, s.Engine(), s.KB()); got != want {
		t.Fatal("failed batch changed served state")
	}
	seq, got := recoverImage(t, dir)
	if seq != ackSeq || got != want {
		t.Fatalf("recovered seq %d, want %d (part of a failed batch survived)", seq, ackSeq)
	}
}

// TestFailedMutationLeavesStateUntouched: a mutation whose journal append
// fails never happened, whichever of the five it was. Nothing was published,
// so the plans and entries keep their order — what the degraded server goes on
// serving, and what a restart recovers — the sequence number stays, and
// neither the engine's generation nor the knowledge base's cache key moves: no
// cached response is orphaned for a write that did not happen.
func TestFailedMutationLeavesStateUntouched(t *testing.T) {
	faults := []struct {
		name string
		op   faultfs.Op
		kind faultfs.Kind
	}{
		{"write", faultfs.OpWrite, faultfs.KindErr},
		{"fsync", faultfs.OpSync, faultfs.KindErr},
		{"ENOSPC", faultfs.OpWrite, faultfs.KindENOSPC},
	}
	for _, f := range faults {
		for _, m := range protocolMutators {
			t.Run(f.name+"/"+m.op, func(t *testing.T) {
				dir, ffs, s, want := faultStore(t)
				ackSeq := s.Stats().LastSeq
				before := servedState(s.Engine(), s.KB())
				ffs.FailNth(f.op, 1, f.kind)
				if err := m.do(t, s); !errors.Is(err, ErrPersist) {
					t.Fatalf("%s = %v, want ErrPersist", m.op, err)
				}
				if after := servedState(s.Engine(), s.KB()); after != before {
					t.Fatalf("failed %s changed served state:\n--- before\n%s\n--- after\n%s", m.op, before, after)
				}
				if seq := s.Stats().LastSeq; seq != ackSeq {
					t.Fatalf("failed %s moved LastSeq %d -> %d", m.op, ackSeq, seq)
				}
				wantDegraded(t, s, want)
				if seq, got := recoverImage(t, dir); seq != ackSeq || got != want {
					t.Fatalf("recovered seq %d (want %d), report mismatch %v", seq, ackSeq, got != want)
				}
			})
		}
	}
}

// TestCompactionCrashWindows walks every persistence step of a compaction —
// temp-file creation, the data write, the temp fsync, the publishing
// rename, the directory fsync, the WAL-reset rename and the WAL handle
// reopen — failing each in turn, entered two ways: by Compact on a healthy
// store, and by Reopen on a store a failed append degraded, whose repair is
// that same compaction. Every window must leave the store degraded without
// changing served state, and a crash image taken inside the window must
// recover to exactly the acknowledged state. Every attempt spends one
// generation, so none is ever written twice: a compaction that failed at the
// WAL reset leaves generation 1 on disk, and the Reopen after it writes
// generation 2.
func TestCompactionCrashWindows(t *testing.T) {
	windows := []struct {
		name string
		op   faultfs.Op
		n    int64
	}{
		{"tmp-create", faultfs.OpCreate, 1},
		{"tmp-write", faultfs.OpWrite, 1},
		{"tmp-sync", faultfs.OpSync, 1},
		{"snapshot-rename", faultfs.OpRename, 1},
		{"dir-sync", faultfs.OpSync, 2},
		{"wal-reset-rename", faultfs.OpRename, 2},
		{"wal-reopen", faultfs.OpOpen, 3},
	}
	for _, win := range windows {
		t.Run(win.name, func(t *testing.T) {
			for _, via := range []string{"compact", "reopen"} {
				t.Run(via, func(t *testing.T) {
					dir, ffs, s, want := faultStore(t)
					ackSeq := s.Stats().LastSeq
					enter, reopens := s.Compact, int64(0)
					if via == "reopen" {
						ffs.FailNth(faultfs.OpWrite, 1, faultfs.KindErr)
						if _, err := s.AddPlan(batchTexts(3)[2]); !errors.Is(err, ErrPersist) {
							t.Fatalf("degrading AddPlan = %v, want ErrPersist", err)
						}
						enter, reopens = s.Reopen, 1
					}

					ffs.FailNth(win.op, win.n, faultfs.KindErr)
					err := enter()
					if !errors.Is(err, ErrPersist) || !errors.Is(err, faultfs.ErrInjected) {
						t.Fatalf("%s = %v, want ErrPersist wrapping the injected fault", via, err)
					}
					gen := uint64(1) // spent by the failed attempt
					st := s.Stats()
					if st.FaultCompactions != 1 || st.Compactions != 0 || st.ReopenFailures != reopens || st.Generation != gen {
						t.Fatalf("after failed %s: %d compaction faults, %d compactions, %d reopen failures, generation %d; want 1, 0, %d, %d",
							via, st.FaultCompactions, st.Compactions, st.ReopenFailures, st.Generation, reopens, gen)
					}
					wantDegraded(t, s, want)

					seq, got := recoverImage(t, dir)
					if seq != ackSeq || got != want {
						t.Fatalf("crash in %s window: recovered seq %d (want %d), report match %v",
							win.name, seq, ackSeq, got == want)
					}

					// Heal and reopen: the disk becomes a snapshot of memory plus
					// an empty log, whatever half-published state the window left.
					ffs.Clear()
					if err := s.Reopen(); err != nil {
						t.Fatalf("Reopen: %v", err)
					}
					gen++
					st = s.Stats()
					if st.Degraded || st.Reopens != 1 || st.Compactions != 1 || st.WALRecords != 0 || st.Generation != gen {
						t.Fatalf("after Reopen: degraded %v, %d reopens, %d compactions, %d WAL records, generation %d; want false, 1, 1, 0, %d",
							st.Degraded, st.Reopens, st.Compactions, st.WALRecords, st.Generation, gen)
					}
					snap, err := readSnapshot(storefs.OS{}, dir)
					if err != nil || snap == nil || snap.Generation != gen || snap.LastSeq != ackSeq {
						t.Fatalf("snapshot after Reopen = %+v (%v), want generation %d at seq %d", snap, err, gen, ackSeq)
					}

					// Writes and a full compaction work again.
					if _, err := s.AddPlan(batchTexts(3)[2]); err != nil {
						t.Fatalf("AddPlan after reopen: %v", err)
					}
					if err := s.Compact(); err != nil {
						t.Fatalf("Compact after reopen: %v", err)
					}
					if got := s.Stats().Generation; got != gen+1 {
						t.Fatalf("generation after Compact = %d, want %d", got, gen+1)
					}
					want = reportString(t, s.Engine(), s.KB())
					if err := s.Close(); err != nil {
						t.Fatal(err)
					}
					seq, got = recoverImage(t, dir)
					if seq != ackSeq+1 || got != want {
						t.Fatalf("restart after repaired %s: seq %d (want %d), report match %v",
							win.name, seq, ackSeq+1, got == want)
					}
				})
			}
		})
	}
}

// TestDegradedStatsAndHealthShape pins the observable surface tests and the
// server rely on: reason strings name the failing operation, and the stats
// counters line up with what actually fired.
func TestDegradedStatsAndHealthShape(t *testing.T) {
	_, ffs, s, _ := faultStore(t)
	ffs.FailNth(faultfs.OpSync, 1, faultfs.KindENOSPC)
	_, err := s.AddPlan(batchTexts(3)[2])
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("AddPlan = %v, want ENOSPC preserved", err)
	}
	h := s.Health()
	if h.State != HealthDegraded {
		t.Fatalf("Health = %+v", h)
	}
	wantPrefix := "fsync: "
	if len(h.Reason) < len(wantPrefix) || h.Reason[:len(wantPrefix)] != wantPrefix {
		t.Fatalf("Reason = %q, want %q prefix naming the failed op", h.Reason, wantPrefix)
	}
	// A second failure while degraded must not overwrite the first cause.
	if _, err := s.AddPlan(batchTexts(3)[2]); !errors.Is(err, ErrDegraded) {
		t.Fatalf("second AddPlan = %v", err)
	}
	if got := s.Health().Reason; got != h.Reason {
		t.Fatalf("degraded reason changed: %q -> %q", h.Reason, got)
	}
	if got := fmt.Sprint(s.Health().State); got != HealthDegraded {
		t.Fatalf("state = %q", got)
	}
}
