package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"optimatch/internal/core"
	"optimatch/internal/faultfs"
	"optimatch/internal/kb"
	"optimatch/internal/pattern"
	"optimatch/internal/storefs"
	"optimatch/internal/workload"
)

// scanWALSerial is the log reader recovery had before it decoded on the pool,
// kept verbatim as the oracle: one frame at a time through a file handle,
// header, payload, checksum and json.Unmarshal in turn on the calling
// goroutine. scanWAL must agree with it on recs, ends and torn for any bytes.
func scanWALSerial(fsys storefs.FS, path string) (recs []record, ends []int64, torn bool, err error) {
	f, err := fsys.Open(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil, false, nil
		}
		return nil, nil, false, fmt.Errorf("store: opening WAL: %w", err)
	}
	defer f.Close()

	var offset int64
	var header [headerSize]byte
	for {
		_, err := io.ReadFull(f, header[:])
		if err == io.EOF {
			return recs, ends, false, nil // clean end of log
		}
		if err == io.ErrUnexpectedEOF {
			return recs, ends, true, nil // torn header
		}
		if err != nil {
			return nil, nil, false, fmt.Errorf("store: reading WAL: %w", err)
		}
		length := binary.LittleEndian.Uint32(header[0:4])
		sum := binary.LittleEndian.Uint32(header[4:8])
		if length < 2 || length > maxRecordBytes {
			return recs, ends, true, nil // implausible length: corrupt
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(f, payload); err != nil {
			if err == io.ErrUnexpectedEOF || err == io.EOF {
				return recs, ends, true, nil // torn payload
			}
			return nil, nil, false, fmt.Errorf("store: reading WAL: %w", err)
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return recs, ends, true, nil // bit rot or torn rewrite
		}
		var rec record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return recs, ends, true, nil
		}
		recs = append(recs, rec)
		offset += headerSize + int64(length)
		ends = append(ends, offset)
	}
}

// replaySerial is the recovery Open performed before it replayed runs through
// the batch loader, kept as the oracle: the snapshot's plans and every record
// above its sequence number applied one at a time on the calling goroutine,
// one LoadText (and one generation bump) per plan. It reads the directory and
// changes nothing in it; the returned store has no log handle and serves only
// Engine, KB and Stats.
func replaySerial(dir string) (*Store, error) {
	s := &Store{dir: dir, fs: storefs.OS{}, eng: core.New(core.WithWorkers(1))}
	snap, err := readSnapshot(s.fs, dir)
	if err != nil {
		return nil, err
	}
	s.base = kb.MustCanonical()
	if snap != nil {
		for _, sp := range snap.Plans {
			if _, err := s.eng.LoadText(sp.Text); err != nil {
				return nil, fmt.Errorf("store: recovering plan %s: %w", sp.ID, err)
			}
		}
		if s.base, err = kb.Load(bytes.NewReader(snap.KB)); err != nil {
			return nil, fmt.Errorf("store: recovering knowledge base: %w", err)
		}
		s.seq, s.generation = snap.LastSeq, snap.Generation
	}
	recs, _, _, err := scanWALSerial(s.fs, filepath.Join(dir, walName))
	if err != nil {
		return nil, err
	}
	skipped := make(map[string]bool)
	for i := range recs {
		rec := &recs[i]
		if rec.Seq <= s.seq {
			continue
		}
		var err error
		switch rec.Op {
		case opAddPlan:
			_, err = s.eng.LoadText(rec.Text)
		case opAddPlanBatch:
			for _, it := range rec.Batch {
				if _, lerr := s.eng.LoadText(it.Text); lerr != nil {
					err = fmt.Errorf("batch plan %q: %w", it.ID, lerr)
					break
				}
			}
		default:
			err = s.applyRecord(rec, skipped)
		}
		if err != nil {
			return nil, fmt.Errorf("store: replaying record %d (seq %d): %w", i, rec.Seq, err)
		}
		s.seq = rec.Seq
		s.stats.RecoveredRecords++
	}
	return s, nil
}

// planOrder lists the engine's plans in load order.
func planOrder(eng *core.Engine) []string {
	var ids []string
	for _, p := range eng.Plans() {
		ids = append(ids, p.ID)
	}
	return ids
}

// kbRunJSON renders a full KB run in plan load order — unlike reportString,
// which sorts — so two stores compare equal only if they also agree on order.
func kbRunJSON(t *testing.T, eng *core.Engine, base *kb.KnowledgeBase) string {
	t.Helper()
	reports, err := eng.RunKB(context.Background(), base)
	if err != nil {
		t.Fatalf("RunKB: %v", err)
	}
	type rec struct {
		Entry, Title, Text string
		Confidence         float64
	}
	type plan struct {
		Plan, Message string
		Recs          []rec
	}
	out := make([]plan, len(reports))
	for i := range reports {
		out[i] = plan{Plan: reports[i].Plan.ID, Message: reports[i].Message()}
		for _, r := range reports[i].Recommendations {
			out[i].Recs = append(out[i].Recs, rec{r.Entry.Name, r.Recommendation.Title, r.Text, r.Confidence})
		}
	}
	data, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// kbVersion is the mutation count inside kb.CacheKey ("kb<instance>.<version>"):
// the instance number differs between any two knowledge bases of one process
// by design, the version must not.
func kbVersion(base *kb.KnowledgeBase) string {
	_, version, _ := strings.Cut(base.CacheKey(), ".")
	return version
}

// appendRecords forges records onto the log of a closed store directory.
func appendRecords(t *testing.T, dir string, recs ...record) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := range recs {
		buf, err := encodeRecord(&recs[i])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
}

// refusedEntry is a knowledge-base entry as an older binary could have
// journaled it: its pattern compiles to a query that does not parse, so this
// binary's kb.Add refuses it and replay skips it (TestReplaySkipsRefusedEntry).
func refusedEntry(name string) json.RawMessage {
	return json.RawMessage(`{"name":"` + name + `","pattern":{"pops":[{"ID":1,"type":"NLJOIN","popProperties":[` +
		`{"id":"has TotalCost","sign":">","value":"1"}]}]},"recommendations":[{"title":"t","template":"look at @TOP"}]}`)
}

// TestRecoveryMatchesSerialReplay builds random histories — singles, batches,
// deletes, a delete followed at once by a re-add of the same ID (the case the
// barrier rule exists for), knowledge-base edits, an entry this binary refuses
// and its removal, compactions, and a stale pre-compaction log left beside
// the new snapshot — and demands that Open, at one worker and at four,
// recovers exactly what the per-record oracle does: plan order, knowledge
// base, byte-identical KB run, and the recovery counters.
func TestRecoveryMatchesSerialReplay(t *testing.T) {
	seeds := []int64{2, 11, 97, 2024, 31337}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			runRecoveryMatchesSerial(t, seed)
		})
	}
}

func runRecoveryMatchesSerial(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	fatalf := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("[seed %d] "+format, append([]any{seed}, args...)...)
	}
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		fatalf("Open: %v", err)
	}
	defer func() { s.Close() }()
	reopen := func(step int) {
		if s, err = Open(dir); err != nil {
			fatalf("step %d: reopening: %v", step, err)
		}
	}

	entryPool := []func() *pattern.Pattern{pattern.E, pattern.F, pattern.G}
	var loaded []string          // plan IDs in load order
	texts := map[string]string{} // every text ever loaded, by plan ID
	minted := 0
	mint := func() string {
		minted++
		text := synthBatchText(minted)
		texts[fmt.Sprintf("B%d", minted)] = text
		return text
	}
	var pendingBad []string // refused entries journaled and not yet removed
	bads, readds, compactions, stales := 0, 0, 0, 0

	// verify recovers a copy of the directory as it is now — every
	// acknowledged mutation is on disk — with the oracle, with one worker and
	// with four, and compares.
	checkpoints, replayed := 0, int64(0)
	verify := func(step int) {
		img := copyStoreDir(t, dir)
		oracle, err := replaySerial(img)
		if err != nil {
			fatalf("step %d: serial replay: %v", step, err)
		}
		if got := planOrder(oracle.Engine()); !reflect.DeepEqual(got, loaded) {
			fatalf("step %d: oracle plan order %v, want %v", step, got, loaded)
		}
		wantRun, wantStats := kbRunJSON(t, oracle.Engine(), oracle.KB()), oracle.Stats()
		checkpoints++
		replayed += wantStats.RecoveredRecords
		for _, workers := range []int{1, 4} {
			r, err := Open(copyStoreDir(t, img), WithEngineOptions(core.WithWorkers(workers)))
			if err != nil {
				fatalf("step %d, workers=%d: Open: %v", step, workers, err)
			}
			if got := planOrder(r.Engine()); !reflect.DeepEqual(got, loaded) {
				fatalf("step %d, workers=%d: plan order %v, want %v", step, workers, got, loaded)
			}
			if got, want := kbVersion(r.KB()), kbVersion(oracle.KB()); got != want {
				fatalf("step %d, workers=%d: knowledge-base version %s, oracle %s", step, workers, got, want)
			}
			if got := kbRunJSON(t, r.Engine(), r.KB()); got != wantRun {
				fatalf("step %d, workers=%d: KB run differs from the serial replay's:\n--- want\n%s\n--- got\n%s", step, workers, wantRun, got)
			}
			st := r.Stats()
			if st.LastSeq != wantStats.LastSeq || st.RecoveredRecords != wantStats.RecoveredRecords ||
				st.SkippedEntries != wantStats.SkippedEntries || st.Generation != wantStats.Generation {
				fatalf("step %d, workers=%d: stats %+v, oracle %+v", step, workers, st, wantStats)
			}
			r.Close()
		}
	}

	const steps = 48
	for step := 0; step < steps; step++ {
		if step%6 == 5 {
			verify(step)
		}
		switch op := rng.Intn(16); {
		case op < 4: // single add
			if _, err := s.AddPlan(mint()); err != nil {
				fatalf("step %d AddPlan: %v", step, err)
			}
			loaded = append(loaded, fmt.Sprintf("B%d", minted))
		case op < 7: // batch add
			n := 2 + rng.Intn(4)
			batch := make([]string, n)
			for i := range batch {
				batch[i] = mint()
				loaded = append(loaded, fmt.Sprintf("B%d", minted))
			}
			out, err := s.AddPlanBatch(batch)
			if err != nil {
				fatalf("step %d AddPlanBatch: %v", step, err)
			}
			for _, o := range out {
				if o.Err != nil {
					fatalf("step %d batch outcome: %v", step, o.Err)
				}
			}
		case op < 10 && len(loaded) > 0: // delete, half the time re-adding at once
			i := rng.Intn(len(loaded))
			id := loaded[i]
			if ok, err := s.RemovePlan(id); err != nil || !ok {
				fatalf("step %d RemovePlan(%s) = %v, %v", step, id, ok, err)
			}
			loaded = append(loaded[:i:i], loaded[i+1:]...)
			if rng.Intn(2) == 0 {
				if _, err := s.AddPlan(texts[id]); err != nil {
					fatalf("step %d re-adding %s: %v", step, id, err)
				}
				loaded = append(loaded, id)
				readds++
			}
		case op < 12: // knowledge-base edit
			pat := entryPool[rng.Intn(len(entryPool))]
			if name := pat().Name; s.KB().Entry(name) == nil {
				if _, err := s.AddEntry(pat(), kb.Recommendation{Title: "advice", Template: "inspect @TOP", Weight: 0.5}); err != nil {
					fatalf("step %d AddEntry(%s): %v", step, name, err)
				}
			} else if ok, err := s.RemoveEntry(name); err != nil || !ok {
				fatalf("step %d RemoveEntry(%s) = %v, %v", step, name, ok, err)
			}
		case op < 13: // an older binary's refused entry, or the removal of one
			seq := s.Stats().LastSeq
			if err := s.Close(); err != nil {
				fatalf("step %d Close: %v", step, err)
			}
			if len(pendingBad) > 0 && rng.Intn(4) != 0 {
				appendRecords(t, dir, record{Seq: seq + 1, Op: opRemoveEntry, ID: pendingBad[0]})
				pendingBad = pendingBad[1:]
			} else {
				bads++
				name := fmt.Sprintf("bad%d", bads)
				appendRecords(t, dir, record{Seq: seq + 1, Op: opAddEntry, ID: name, Item: refusedEntry(name)})
				pendingBad = append(pendingBad, name)
			}
			reopen(step)
		case len(pendingBad) == 0:
			// Compaction. (Not while a refused entry awaits its removal: the
			// skip rule holds within one log, and the snapshot would split it.)
			stale, err := os.ReadFile(filepath.Join(dir, walName))
			if err != nil && !errors.Is(err, fs.ErrNotExist) {
				fatalf("step %d: %v", step, err)
			}
			if err := s.Compact(); err != nil {
				fatalf("step %d Compact: %v", step, err)
			}
			compactions++
			if rng.Intn(2) == 0 {
				stales++
				// The crash between the two renames: the whole old log
				// survives beside the new snapshot.
				if err := s.Close(); err != nil {
					fatalf("step %d Close: %v", step, err)
				}
				writeFile(t, filepath.Join(dir, walName), stale)
				reopen(step)
			}
		}
		if got := planOrder(s.Engine()); !reflect.DeepEqual(got, loaded) {
			fatalf("step %d: live plan order %v, want %v", step, got, loaded)
		}
	}
	if err := s.Close(); err != nil {
		fatalf("Close: %v", err)
	}
	verify(steps)
	t.Logf("[seed %d] %d plans after %d re-adds, %d compactions (%d leaving a stale log), %d refused entries (%d never removed); %d records replayed over %d checkpoints",
		seed, len(loaded), readds, compactions, stales, bads, len(pendingBad), replayed, checkpoints)
}

// runLog journals n plan-adding records (every third a batch of three, the
// rest singles) and nothing else — one replay run — and returns the raw log,
// the offset past each frame and the plan IDs each record added.
func runLog(t *testing.T, n int) (wal []byte, frameEnds []int64, added [][]string) {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	minted := 0
	mint := func() (id, text string) {
		minted++
		return fmt.Sprintf("B%d", minted), synthBatchText(minted)
	}
	for i := 0; i < n; i++ {
		if i%3 == 1 {
			ids, batch := make([]string, 3), make([]string, 3)
			for j := range batch {
				ids[j], batch[j] = mint()
			}
			if _, err := s.AddPlanBatch(batch); err != nil {
				t.Fatal(err)
			}
			added = append(added, ids)
			continue
		}
		id, text := mint()
		if _, err := s.AddPlan(text); err != nil {
			t.Fatal(err)
		}
		added = append(added, []string{id})
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wal, err = os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	_, frameEnds, torn := scanFrames(wal)
	if torn || len(frameEnds) != n {
		t.Fatalf("runLog framed %d records (torn %v), want %d", len(frameEnds), torn, n)
	}
	return wal, frameEnds, added
}

// TestRecoveryMidRunCrash: a crash anywhere inside a run — the whole log is
// one staged batch — still lands on the exact mutation prefix. The log is cut
// at every frame boundary and one byte into every frame.
func TestRecoveryMidRunCrash(t *testing.T) {
	const n = 12
	wal, frameEnds, added := runLog(t, n)
	var cuts []int64
	for _, boundary := range append([]int64{0}, frameEnds...) {
		cuts = append(cuts, boundary)
		if boundary < int64(len(wal)) {
			cuts = append(cuts, boundary+1) // one byte of the next frame
		}
	}
	for _, cut := range cuts {
		img := t.TempDir()
		walPath := filepath.Join(img, walName)
		writeFile(t, walPath, wal[:cut])
		r, err := Open(img, WithEngineOptions(core.WithWorkers(4)))
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		k := recordsBefore(frameEnds, cut)
		var want []string
		for _, ids := range added[:k] {
			want = append(want, ids...)
		}
		st := r.Stats()
		if st.LastSeq != k || st.RecoveredRecords != int64(k) || st.RecoveredPlans != int64(len(want)) {
			t.Fatalf("cut %d: stats %+v, want %d records and %d plans", cut, st, k, len(want))
		}
		if got := planOrder(r.Engine()); !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %d: plans %v, want %v", cut, got, want)
		}
		if info, err := os.Stat(walPath); err != nil || info.Size() != goodLength(frameEnds[:k]) {
			t.Fatalf("cut %d: log is %d bytes after recovery (%v), want %d", cut, info.Size(), err, goodLength(frameEnds[:k]))
		}
		r.Close()
	}
}

// TestRecoveryErrorNamesRecord: a plan the engine refuses in the middle of a
// run fails Open, and the error still says which record it was.
func TestRecoveryErrorNamesRecord(t *testing.T) {
	text := func(n int) string { return synthBatchText(n) }
	cases := []struct {
		name string
		recs []record
		want []string
	}{
		{"single", []record{
			{Op: opAddPlan, ID: "B1", Text: text(1)},
			{Op: opAddPlan, ID: "B2", Text: text(2)},
			{Op: opAddPlan, ID: "B1", Text: text(1)}, // forged: B1 is loaded
			{Op: opAddPlan, ID: "B3", Text: text(3)},
		}, []string{"replaying record 2 (seq 3)", `"B1"`}},
		{"batch", []record{
			{Op: opAddPlan, ID: "B1", Text: text(1)},
			{Op: opAddPlanBatch, Batch: []batchItem{{ID: "B2", Text: text(2)}, {ID: "B1", Text: text(1)}, {ID: "B3", Text: text(3)}}},
			{Op: opAddPlan, ID: "B4", Text: text(4)},
		}, []string{"replaying record 1 (seq 2)", `batch plan "B1"`}},
		{"unparsable", []record{
			{Op: opAddPlan, ID: "B1", Text: text(1)},
			{Op: opAddPlanBatch, Batch: []batchItem{{ID: "B2", Text: text(2)}, {ID: "B9", Text: "not a plan"}}},
		}, []string{"replaying record 1 (seq 2)", `batch plan "B9"`}},
		{"first in log order", []record{
			{Op: opAddPlan, ID: "B1", Text: text(1)},
			{Op: opAddPlan, ID: "B1", Text: text(1)},
			{Op: opRemovePlan, ID: "GHOST"},
			{Op: opAddPlan, ID: "B1", Text: text(1)},
		}, []string{"replaying record 1 (seq 2)", `"B1"`}},
		{"barrier", []record{
			{Op: opAddPlan, ID: "B1", Text: text(1)},
			{Op: opRemovePlan, ID: "GHOST"},
			{Op: opAddPlan, ID: "B1", Text: text(1)},
		}, []string{"replaying record 1 (seq 2)", `"GHOST"`}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for i := range tc.recs {
				tc.recs[i].Seq = uint64(i + 1)
			}
			appendRecords(t, dir, tc.recs...)
			for _, workers := range []int{1, 4} {
				_, err := Open(copyStoreDir(t, dir), WithEngineOptions(core.WithWorkers(workers)))
				if err == nil {
					t.Fatalf("workers=%d: Open replayed a forged record", workers)
				}
				for _, want := range tc.want {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("workers=%d: error %q does not name %s", workers, err, want)
					}
				}
			}
			_, serr := replaySerial(dir)
			if serr == nil {
				t.Fatal("the oracle replayed a forged record")
			}
			if _, err := Open(dir); err == nil || err.Error() != serr.Error() {
				t.Errorf("Open failed with %q, the serial replay with %q", err, serr)
			}
		})
	}
	t.Run("duplicate stays a duplicate", func(t *testing.T) {
		dir := t.TempDir()
		appendRecords(t, dir, record{Seq: 1, Op: opAddPlan, Text: text(1)}, record{Seq: 2, Op: opAddPlan, Text: text(1)})
		if _, err := Open(dir); !errors.Is(err, core.ErrDuplicatePlan) {
			t.Errorf("Open = %v, want core.ErrDuplicatePlan in the chain", err)
		}
	})
}

// TestRecoveredGeneration pins what Engine.Generation() is after Open: the
// number of replay steps that changed the plan table — runs that loaded at
// least one plan, plus removals — and not the number of mutations journaled.
func TestRecoveredGeneration(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Engine().Generation(); got != 0 {
		t.Fatalf("empty store: generation %d, want 0", got)
	}
	texts := batchTexts(8)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	add := func(text string) { _, err := s.AddPlan(text); must(err) }
	add(texts[0])
	add(texts[1])
	_, err = s.AddPlanBatch(texts[2:5])
	must(err) // run 1: five plans, three records
	_, err = s.RemovePlan("W2")
	must(err) // a removal
	add(texts[5])
	_, err = s.AddEntry(testEntryPattern(), testEntryRec())
	must(err) // a barrier that leaves the plan table alone: run 2 ends here
	add(texts[6])
	add(texts[1]) // run 3, W2 again
	live := s.Engine().Generation()
	must(s.Close())

	for _, workers := range []int{1, 4} {
		r, err := Open(copyStoreDir(t, dir), WithEngineOptions(core.WithWorkers(workers)))
		must(err)
		if got := r.Engine().Generation(); got != 4 {
			t.Errorf("workers=%d: generation after Open = %d, want 4 (3 runs + 1 removal); the live store had reached %d",
				workers, got, live)
		}
		if st := r.Stats(); st.RecoveredRecords != 8 || st.RecoveredPlans != 8 {
			t.Errorf("workers=%d: stats %+v, want 8 records and 8 plans replayed", workers, st)
		}
		r.Close()
	}

	// A snapshot's plans open the first run: snapshot + adds is one step.
	s, err = Open(dir)
	must(err)
	must(s.Compact())
	add(texts[7])
	must(s.Close())
	r, err := Open(dir)
	must(err)
	defer r.Close()
	if got := r.Engine().Generation(); got != 1 {
		t.Errorf("snapshot + one add: generation %d, want 1", got)
	}
	if st := r.Stats(); st.RecoveredRecords != 1 || st.RecoveredPlans != 8 || st.RecoveryMillis <= 0 {
		t.Errorf("stats %+v, want 1 record, 8 plans and a positive recovery time", st)
	}
}

// TestScanReadFaultFailsOpen: a read failure during the log scan is not a
// torn tail. Open fails loudly and the log keeps every byte.
func TestScanReadFaultFailsOpen(t *testing.T) {
	dir, ffs, s, want := faultStore(t)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walName)
	before, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	ffs.FailNth(faultfs.OpRead, 2, faultfs.KindErr) // 1 is the snapshot, 2 the log
	if _, err := Open(dir, WithFS(ffs)); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Open = %v, want the injected read fault", err)
	}
	if after, err := os.Stat(walPath); err != nil || after.Size() != before.Size() {
		t.Fatalf("log is %d bytes after the failed Open (%v), was %d", after.Size(), err, before.Size())
	}
	if seq, got := recoverImage(t, dir); seq != 3 || got != want {
		t.Fatalf("healed disk recovered seq %d, report match %v", seq, got == want)
	}
}

// benchLog builds the log the benchmark's set-up leaves: 64 generated plans,
// the first 32 through two batch records, the rest one record each.
func benchLog(tb testing.TB) string {
	tb.Helper()
	ops := make([]int, 64)
	for i := range ops {
		ops[i] = 60 + i*180/63
	}
	w, err := workload.Generate(workload.Config{Seed: 1, NumPlans: 64, OpCounts: ops,
		InjectA: 9, InjectB: 7, InjectC: 11, InjectD: 6, InjectG: 3})
	if err != nil {
		tb.Fatal(err)
	}
	byID := w.Texts()
	texts := make([]string, len(w.Plans))
	for i, p := range w.Plans {
		texts[i] = byID[p.ID]
	}
	dir := tb.TempDir()
	s, err := Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	for _, batch := range [][]string{texts[:16], texts[16:32]} {
		if _, err := s.AddPlanBatch(batch); err != nil {
			tb.Fatal(err)
		}
	}
	for _, text := range texts[32:] {
		if _, err := s.AddPlan(text); err != nil {
			tb.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		tb.Fatal(err)
	}
	return dir
}

// BenchmarkOpen times recovery of benchLog; -benchmem's B/op is the transient
// heap of one Open. Run it with -cpu 1,2.
func BenchmarkOpen(b *testing.B) {
	dir := benchLog(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		if n := s.Engine().NumPlans(); n != 64 {
			b.Fatalf("recovered %d plans", n)
		}
		s.Close()
	}
}
