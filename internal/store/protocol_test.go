package store

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"optimatch/internal/core"
	"optimatch/internal/kb"
	"optimatch/internal/pattern"
	"optimatch/internal/storefs"
)

// servedState is everything a reader can tell one state of the repository from
// another by: the plans in load order, the engine's generation, the entries in
// order, the knowledge base's cache key.
func servedState(eng *core.Engine, base *kb.KnowledgeBase) string {
	var plans, entries []string
	for _, p := range eng.Plans() {
		plans = append(plans, p.ID)
	}
	for _, e := range base.Entries() {
		entries = append(entries, e.Name)
	}
	return fmt.Sprintf("plans %v generation %d, entries %v key %s", plans, eng.Generation(), entries, base.CacheKey())
}

// protocolMutators is one call of each of the store's five mutators against
// baselineStore's state (plans W1 W2, the canonical entries and pattern F's).
// Both removals take the first of their order, where re-adding would show. do
// returns the mutator's error after checking that its other result agrees.
var protocolMutators = []struct {
	op string
	do func(t *testing.T, s *Store) error
}{
	{opAddPlan, func(t *testing.T, s *Store) error {
		p, err := s.AddPlan(batchTexts(3)[2])
		if (p != nil) != (err == nil) {
			t.Fatalf("AddPlan = %v, %v", p, err)
		}
		return err
	}},
	{opAddPlanBatch, func(t *testing.T, s *Store) error {
		// W2 is loaded already: the batch is W3..W6 accepted, one duplicate.
		out, err := s.AddPlanBatch(batchTexts(6)[1:])
		if err == nil && (!errors.Is(out[0].Err, core.ErrDuplicatePlan) || out[1].Err != nil || out[4].Err != nil) {
			t.Fatalf("AddPlanBatch outcomes = %+v", out)
		}
		if err != nil && out != nil {
			t.Fatalf("AddPlanBatch = %+v, %v", out, err)
		}
		return err
	}},
	{opRemovePlan, func(t *testing.T, s *Store) error {
		ok, err := s.RemovePlan("W1")
		if ok != (err == nil) {
			t.Fatalf("RemovePlan = %v, %v", ok, err)
		}
		return err
	}},
	{opAddEntry, func(t *testing.T, s *Store) error {
		e, err := s.AddEntry(pattern.G(), kb.Recommendation{Title: "advice", Template: "inspect @TOP", Weight: 0.5})
		if (e != nil) != (err == nil) {
			t.Fatalf("AddEntry = %v, %v", e, err)
		}
		return err
	}},
	{opRemoveEntry, func(t *testing.T, s *Store) error {
		ok, err := s.RemoveEntry(s.KB().Entries()[0].Name)
		if ok != (err == nil) {
			t.Fatalf("RemoveEntry = %v, %v", ok, err)
		}
		return err
	}},
}

// hookFS calls back around the journal stage: before every Write to the WAL
// handle and after every Sync of it returned — the mutation is prepared and
// then durable, and at neither moment published. The callback runs on the
// mutator's goroutine under the store mutex, so it may read the engine and a
// knowledge base pointer taken earlier, and must not call Store methods.
type hookFS struct {
	storefs.FS
	hook func(moment string)
}

func (h *hookFS) OpenFile(name string, flag int, perm fs.FileMode) (storefs.File, error) {
	f, err := h.FS.OpenFile(name, flag, perm)
	if err != nil || filepath.Base(name) != walName {
		return f, err
	}
	return &hookFile{File: f, fs: h}, nil
}

type hookFile struct {
	storefs.File
	fs *hookFS
}

func (f *hookFile) Write(p []byte) (int, error) {
	if f.fs.hook != nil {
		f.fs.hook("write")
	}
	return f.File.Write(p)
}

func (f *hookFile) Sync() error {
	err := f.File.Sync()
	if f.fs.hook != nil {
		f.fs.hook("sync")
	}
	return err
}

// TestUnacknowledgedNeverVisible: a mutation is visible iff it is durable.
// While its record is being written and fsync'd nothing a reader can ask —
// a plan by ID, the plan list, the generation, an entry by name, the cache key
// — shows it: an added plan or entry is not there yet, a removed one still
// is. Once the call returns, the caller reads its own write, and the plan
// table or the knowledge base moved by exactly one step.
func TestUnacknowledgedNeverVisible(t *testing.T) {
	for _, m := range protocolMutators {
		t.Run(m.op, func(t *testing.T) {
			hfs := &hookFS{FS: storefs.OS{}}
			_, s := baselineStore(t, hfs)
			eng, base := s.Engine(), s.KB()
			before := servedState(eng, base)
			gen, key := eng.Generation(), base.CacheKey()

			var moments []string
			hfs.hook = func(moment string) {
				moments = append(moments, moment)
				if got := servedState(eng, base); got != before {
					t.Errorf("at %s of the %s record readers see\n %s\nwant the state before the call\n %s", moment, m.op, got, before)
				}
				if eng.Plan("W3") != nil || base.Entry(pattern.G().Name) != nil {
					t.Errorf("at %s the unacknowledged addition answers a lookup", moment)
				}
				if eng.Plan("W1") == nil || base.Entry(base.Entries()[0].Name) == nil {
					t.Errorf("at %s the unacknowledged removal already took its target away", moment)
				}
			}
			if err := m.do(t, s); err != nil {
				t.Fatal(err)
			}
			hfs.hook = nil
			if got := strings.Join(moments, " "); got != "write sync" {
				t.Fatalf("journal stage moments = %q, want one write then one sync", got)
			}

			after := servedState(eng, base)
			if after == before {
				t.Fatalf("%s returned and readers still see %s", m.op, before)
			}
			plans := m.op == opAddPlan || m.op == opAddPlanBatch || m.op == opRemovePlan
			wantGen, keyMoved := gen, base.CacheKey() != key
			if plans {
				wantGen++
			}
			if eng.Generation() != wantGen || keyMoved == plans {
				t.Fatalf("%s moved generation %d -> %d and KB key %s -> %s; want one step of exactly one of them",
					m.op, gen, eng.Generation(), key, base.CacheKey())
			}
		})
	}
}

// TestPublishRefusalDegrades: the store owns its engine, and under its mutex
// publish cannot fail after prepare. Something that loads the engine directly
// breaks that — here, between the fsync and the publish of an AddPlan — and
// then the journal holds a record memory refused. The store must not go on:
// the call fails, the store degrades naming the publish stage, the sequence
// number stays, the record is scrubbed so a crash recovers the acknowledged
// state, and Reopen returns the store to service.
func TestPublishRefusalDegrades(t *testing.T) {
	hfs := &hookFS{FS: storefs.OS{}}
	dir, s := baselineStore(t, hfs)
	want := reportString(t, s.Engine(), s.KB())
	ackSeq := s.Stats().LastSeq
	text := batchTexts(3)[2]

	hfs.hook = func(moment string) {
		if moment == "sync" {
			if _, err := s.Engine().LoadText(text); err != nil {
				t.Errorf("direct load: %v", err)
			}
		}
	}
	_, err := s.AddPlan(text)
	hfs.hook = nil
	if !errors.Is(err, ErrPersist) || errors.Is(err, core.ErrDuplicatePlan) {
		t.Fatalf("AddPlan = %v, want ErrPersist and not the engine's refusal as a validation error", err)
	}
	h := s.Health()
	if h.State != HealthDegraded || !strings.HasPrefix(h.Reason, "publish: ") {
		t.Fatalf("Health = %+v, want degraded by the publish stage", h)
	}
	if _, err := s.AddPlan(batchTexts(4)[3]); !errors.Is(err, ErrDegraded) {
		t.Fatalf("AddPlan after the refusal = %v, want ErrDegraded", err)
	}
	st := s.Stats()
	if st.LastSeq != ackSeq || st.WALRecords != int64(ackSeq) {
		t.Fatalf("LastSeq %d, WALRecords %d; want both %d", st.LastSeq, st.WALRecords, ackSeq)
	}
	if seq, got := recoverImage(t, dir); seq != ackSeq || got != want {
		t.Fatalf("crash image recovers seq %d (want %d), report mismatch %v", seq, ackSeq, got != want)
	}

	if err := s.Reopen(); err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	if _, err := s.AddPlan(batchTexts(4)[3]); err != nil {
		t.Fatalf("AddPlan after Reopen: %v", err)
	}
	if seq, _ := recoverImage(t, dir); seq != ackSeq+1 {
		t.Fatalf("after Reopen and one write a crash image recovers seq %d, want %d", seq, ackSeq+1)
	}
}
