// Package store is the durable repository behind optimatchd: it makes the
// engine's plan workload and the expert knowledge base survive restarts,
// the way GALO's problem-plan repository accumulates across sessions. Two
// record streams — plan ingests (raw explain text) and knowledge-base
// mutations (entries as their kb JSON form) — flow through an append-only
// write-ahead log whose records are length-prefixed and CRC32-checksummed;
// every append is fsync'd before the mutation is published to a reader or
// acknowledged to its caller (see commit: prepare, journal, publish). Periodic
// compaction folds the log into a snapshot (atomic temp-file + rename)
// carrying a generation counter and the last absorbed log sequence number,
// so recovery loads the snapshot and replays only the WAL tail — through the
// batch loader ingest uses, on the engine's worker pool (see Open). Opening a
// store truncates a torn tail at the first bad checksum instead of failing
// the boot.
//
// The store degrades rather than corrupts: every filesystem touch goes
// through the storefs seam (swap in internal/faultfs to test), and when the
// durability machinery itself fails — a WAL write or fsync, a snapshot
// publication — the store scrubs the unacknowledged tail and enters an
// explicit degraded read-only mode; the failed mutation was never published,
// so memory has nothing to take back. Reads and scans keep serving the
// acknowledged state, every further mutation returns ErrDegraded, and Reopen
// — a compaction from memory, allowed while degraded — rewrites the disk as a
// snapshot of that state plus an empty log before writes are accepted again.
//
// Memory is the same repository with no journal: its mutators run the same
// prepare and publish code, and only commit's journal stage knows there is no
// disk — so a daemon without a data directory mutates its state exactly the
// way a durable one does, minus the fsync.
package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"optimatch/internal/core"
	"optimatch/internal/kb"
	"optimatch/internal/pattern"
	"optimatch/internal/qep"
	"optimatch/internal/storefs"
)

// ErrPersist marks failures of the durability machinery itself (WAL append,
// fsync, snapshot write) as opposed to validation errors from the engine or
// knowledge base. Callers can map it to a 5xx while validation stays 4xx.
var ErrPersist = errors.New("store: persistence failure")

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// ErrDegraded is returned by mutations while the store is in degraded
// read-only mode: a durability failure (failed WAL append or fsync, failed
// snapshot publication) was observed, so accepting further writes could
// silently diverge disk from memory. Reads and scans keep working on the
// acknowledged in-memory state; Reopen clears the mode once a compaction
// from memory succeeds. Callers can map it to 503 + Retry-After.
var ErrDegraded = errors.New("store: degraded (read-only)")

// ErrNotDurable is returned by Compact and Reopen on a Memory store, which
// has no disk to fold a log into. Callers can map it to 501.
var ErrNotDurable = errors.New("store: in memory, not durable")

// Option configures Open.
type Option func(*config)

type config struct {
	engineOpts  []core.Option
	defaultKB   *kb.KnowledgeBase
	autoCompact int64
	instr       Instrumentation
	fs          storefs.FS
}

// Instrumentation receives durability-path timings from the store. Any
// field may be nil; hooks are invoked under the store mutex and must not
// call back into the store.
type Instrumentation struct {
	// WALAppend observes one journaled mutation: how long the buffered
	// write and the fsync took, and the record size. The fsync is the
	// dominant, highly variable term — every acknowledged mutation pays it.
	WALAppend func(write, sync time.Duration, bytes int)

	// Compaction observes one snapshot compaction (manual, automatic or
	// the one Reopen runs) and whether it succeeded.
	Compaction func(d time.Duration, ok bool)

	// Recovery observes the one recovery pass Open performs: wall time,
	// WAL records replayed, torn tails truncated.
	Recovery func(d time.Duration, records, truncations int64)

	// Degrade observes the transition into degraded read-only mode: which
	// durability operation failed (append, fsync, compact; publish when
	// memory refused a journaled record, see commit) and why. It
	// fires once per degradation, not per rejected write.
	Degrade func(op string, cause error)

	// Reopen observes one Reopen attempt and whether the store returned to
	// accepting writes.
	Reopen func(ok bool)
}

// WithFS substitutes the filesystem the store runs on (default: the real
// one, storefs.OS). Tests wrap it with internal/faultfs to script disk
// failures.
func WithFS(fsys storefs.FS) Option {
	return func(c *config) { c.fs = fsys }
}

// WithInstrumentation installs durability-path hooks.
func WithInstrumentation(in Instrumentation) Option {
	return func(c *config) { c.instr = in }
}

// WithEngineOptions forwards options to the recovered engine.
func WithEngineOptions(opts ...core.Option) Option {
	return func(c *config) { c.engineOpts = append(c.engineOpts, opts...) }
}

// WithDefaultKB sets the knowledge base used when the directory has no
// snapshot yet (fresh store). Once a snapshot exists it fully captures the
// knowledge base and the default is ignored. The store takes ownership of
// the given base. Nil means the canonical expert patterns.
func WithDefaultKB(base *kb.KnowledgeBase) Option {
	return func(c *config) { c.defaultKB = base }
}

// WithAutoCompact compacts automatically once the WAL holds n records
// (0 disables; compaction is then manual via Compact).
func WithAutoCompact(n int64) Option {
	return func(c *config) { c.autoCompact = n }
}

// Store is a plan & knowledge-base repository: durable when Open made it, in
// memory when Memory did. All methods are safe for concurrent use. The engine
// and knowledge base returned by Engine and KB are owned by the store: route
// every mutation through the store so it is journaled, and snapshot the
// knowledge base before scanning it concurrently with mutations.
type Store struct {
	dir string
	fs  storefs.FS // nil for a Memory store: the one sign there is no disk

	mu     sync.Mutex
	wal    storefs.File // nil after Close
	closed bool
	eng    *core.Engine
	base   *kb.KnowledgeBase

	seq         uint64 // last applied log sequence number
	generation  uint64 // compaction generation
	autoCompact int64
	instr       Instrumentation

	degraded       bool
	degradedReason string
	degradedSince  time.Time

	// stats holds every count the store reports, in the one place Stats reads
	// it from; Stats fills in the fields that mirror the state above.
	stats Stats
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	Dir                 string    `json:"dir"`
	Generation          uint64    `json:"generation"`          // compactions survived by the snapshot
	LastSeq             uint64    `json:"lastSeq"`             // newest applied log sequence number
	WALRecords          int64     `json:"walRecords"`          // records currently in the log
	WALBytes            int64     `json:"walBytes"`            // bytes currently in the log
	AppendedRecords     int64     `json:"appendedRecords"`     // records appended since open
	AppendedBytes       int64     `json:"appendedBytes"`       // bytes appended since open
	Fsyncs              int64     `json:"fsyncs"`              // WAL fsyncs since open: AppendedRecords, one per append
	BatchAppends        int64     `json:"batchAppends"`        // batch records appended since open
	BatchPlans          int64     `json:"batchPlans"`          // plans persisted through batch records since open
	RecoveredRecords    int64     `json:"recoveredRecords"`    // WAL records replayed at open
	RecoveredPlans      int64     `json:"recoveredPlans"`      // plans loaded at open, from the snapshot and the replayed records
	RecoveryMillis      float64   `json:"recoveryMillis"`      // wall time of that recovery pass
	SkippedEntries      int64     `json:"skippedEntries"`      // of those, kb entries this binary refuses (see applyRecord)
	RecoveryTruncations int64     `json:"recoveryTruncations"` // torn tails truncated at open
	Compactions         int64     `json:"compactions"`         // compactions since open, successful Reopens included
	LastCompaction      time.Time `json:"lastCompaction"`      // zero if none since open
	LastCompactionError string    `json:"lastCompactionError,omitempty"`
	Degraded            bool      `json:"degraded"`                 // true while in degraded read-only mode
	DegradedReason      string    `json:"degradedReason,omitempty"` // what failed, when degraded
	FaultWrites         int64     `json:"faultWrites"`              // failed WAL record writes since open
	FaultSyncs          int64     `json:"faultSyncs"`               // failed WAL fsyncs since open
	FaultCompactions    int64     `json:"faultCompactions"`         // failed snapshot compactions since open, failed Reopens included
	Reopens             int64     `json:"reopens"`                  // successful degraded-mode recoveries since open
	ReopenFailures      int64     `json:"reopenFailures"`           // failed Reopen attempts since open
}

// Open recovers the repository at dir (created if missing): it loads the
// snapshot if one exists, replays the WAL tail into a fresh engine and
// knowledge base, truncates any torn tail, and leaves the log open for
// appending.
//
// Replay is the loader ingest uses. Plans are not replayed one record at a
// time: the snapshot's plans and the addPlan / addPlanBatch records that
// follow them accumulate into a run, and a run enters the engine as one
// staged batch — parsed, validated, transformed and frozen on the engine's
// worker pool (core.WithWorkers, through WithEngineOptions) by StageTexts —
// and one Publish, which inserts it in log order in one critical section.
// removePlan, addEntry and removeEntry are barriers: the pending run is
// flushed, then the record is applied, so a plan deleted and re-added is never
// in the table twice and the first error in log order is the one Open fails
// with — naming the record's index, its sequence number and, for a snapshot or
// batch plan, the plan ID.
//
// Engine.Generation() after Open is the number of replay steps that changed
// the plan table — runs that loaded at least one plan, plus removals — not the
// number of mutations ever acknowledged. It identifies a plan set within this
// process only (the server derives ETags from it under a per-process epoch);
// nothing outside the process may depend on its value.
func Open(dir string, opts ...Option) (*Store, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.fs == nil {
		cfg.fs = storefs.OS{}
	}
	if err := cfg.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, fs: cfg.fs, eng: core.New(cfg.engineOpts...), autoCompact: cfg.autoCompact, instr: cfg.instr}
	recoverStart := time.Now()

	snap, err := readSnapshot(s.fs, dir)
	if err != nil {
		return nil, err
	}
	run := replayRun{eng: s.eng}
	base := cfg.defaultKB
	if snap != nil {
		for _, sp := range snap.Plans {
			run.add(sp.Text, planOrigin{rec: -1, id: sp.ID})
		}
		base, err = kb.Load(bytes.NewReader(snap.KB))
		if err != nil {
			return nil, fmt.Errorf("store: recovering knowledge base: %w", err)
		}
		s.seq, s.generation = snap.LastSeq, snap.Generation
	} else if base == nil {
		base = kb.MustCanonical()
	}
	s.base = base

	walPath := filepath.Join(dir, walName)
	recs, ends, torn, err := scanWAL(s.fs, walPath, s.eng.Parallel)
	if err != nil {
		return nil, err
	}
	goodOffset := goodLength(ends)
	if torn {
		if err := s.fs.Truncate(walPath, goodOffset); err != nil {
			return nil, fmt.Errorf("store: truncating torn WAL tail: %w", err)
		}
		s.stats.RecoveryTruncations++
	}
	skipped := make(map[string]bool) // names of the entries applyRecord skipped
	for i := range recs {
		rec := &recs[i]
		if rec.Seq <= s.seq {
			continue // already absorbed by the snapshot
		}
		switch rec.Op {
		case opAddPlan:
			run.add(rec.Text, planOrigin{rec: i, seq: rec.Seq})
		case opAddPlanBatch:
			for _, it := range rec.Batch {
				run.add(it.Text, planOrigin{rec: i, seq: rec.Seq, id: it.ID})
			}
		default:
			if err := run.flush(); err != nil {
				return nil, err
			}
			if err := s.applyRecord(rec, skipped); err != nil {
				return nil, replayError(i, rec.Seq, err)
			}
		}
		s.seq = rec.Seq
		s.stats.RecoveredRecords++
	}
	if err := run.flush(); err != nil {
		return nil, err
	}
	s.stats.RecoveredPlans = run.loaded
	s.stats.WALRecords = int64(len(recs))
	s.stats.WALBytes = goodOffset

	f, err := s.fs.OpenFile(walPath, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening WAL for append: %w", err)
	}
	s.wal = f
	took := time.Since(recoverStart)
	s.stats.RecoveryMillis = float64(took) / float64(time.Millisecond)
	if s.instr.Recovery != nil {
		s.instr.Recovery(took, s.stats.RecoveredRecords, s.stats.RecoveryTruncations)
	}
	return s, nil
}

// planOrigin says where a plan of a replay run came from, for the error that
// names it: a WAL record (index and sequence number; id set inside a batch)
// or, with rec < 0, the snapshot.
type planOrigin struct {
	rec int
	seq uint64
	id  string
}

// replayRun is the run of plan texts recovery has read but not yet loaded.
type replayRun struct {
	eng    *core.Engine
	texts  []string
	from   []planOrigin
	loaded int64 // plans loaded by the flushes so far
}

func (r *replayRun) add(text string, from planOrigin) {
	r.texts = append(r.texts, text)
	r.from = append(r.from, from)
}

// flush loads the pending run as one batch. The log holds only plans that
// were accepted, so replay must accept every one of them again: the first
// refusal in log order fails recovery.
func (r *replayRun) flush() error {
	if len(r.texts) == 0 {
		return nil
	}
	b := r.eng.StageTexts(r.texts)
	_ = r.eng.Publish(b) // a refusal at publish is in b.Errs as well
	for i, err := range b.Errs {
		if err == nil {
			continue
		}
		switch from := r.from[i]; {
		case from.rec < 0:
			return fmt.Errorf("store: recovering plan %s: %w", from.id, err)
		case from.id != "":
			return replayError(from.rec, from.seq, fmt.Errorf("batch plan %q: %w", from.id, err))
		default:
			return replayError(from.rec, from.seq, err)
		}
	}
	r.loaded += int64(len(r.texts))
	r.texts, r.from = r.texts[:0], r.from[:0]
	return nil
}

func replayError(rec int, seq uint64, err error) error {
	return fmt.Errorf("store: replaying record %d (seq %d): %w", rec, seq, err)
}

// Memory returns a store with no journal over eng and base (non-nil): the
// five mutators prepare and publish as a durable store's do, but nothing is
// written, no sequence number advances and nothing compacts. It is healthy
// until closed and never degrades; Compact and Reopen return ErrNotDurable.
func Memory(eng *core.Engine, base *kb.KnowledgeBase) *Store {
	return &Store{eng: eng, base: base}
}

// Durable reports whether the store journals its mutations (Open) or keeps
// them in memory only (Memory).
func (s *Store) Durable() bool { return s.fs != nil }

// Engine returns the recovered engine. The store owns it; use the store's
// AddPlan/RemovePlan for durable mutations.
func (s *Store) Engine() *core.Engine { return s.eng }

// KB returns the recovered knowledge base. The store owns it; use
// AddEntry/RemoveEntry for durable mutations. The pointer is fixed when the
// store is made, and the knowledge base guards itself.
func (s *Store) KB() *kb.KnowledgeBase { return s.base }

// applyRecord replays one journaled barrier into the engine/KB: a plan
// removal or a knowledge-base mutation (plan additions go through replayRun).
// Replay must accept what the log holds, with one exception: a knowledge-base
// entry whose pattern this binary's kb.Add refuses. An older binary journaled
// patterns it never compiled to a query that parses (and the removal that
// cleaned up after them); failing Open on those would turn a validation fix
// into a store that cannot start. Such an entry is skipped and counted, its
// name goes into skipped, and the later removal of a skipped name is a no-op.
func (s *Store) applyRecord(rec *record, skipped map[string]bool) error {
	switch rec.Op {
	case opRemovePlan:
		return found(s.eng.RemovePlan(rec.ID), "plan", rec.ID)
	case opAddEntry:
		var e kb.Entry
		if err := json.Unmarshal(rec.Item, &e); err != nil {
			return fmt.Errorf("decoding kb entry: %w", err)
		}
		err := s.base.Restore(&e)
		if err != nil && e.Pattern != nil {
			if _, cerr := pattern.Compile(e.Pattern); cerr != nil {
				skipped[e.Name] = true
				s.stats.SkippedEntries++
				return nil
			}
		}
		return err
	case opRemoveEntry:
		if skipped[rec.ID] {
			delete(skipped, rec.ID)
			return nil
		}
		return found(s.base.Remove(rec.ID), "kb entry", rec.ID)
	default:
		return fmt.Errorf("unknown op %q", rec.Op)
	}
}

// found turns a removal's "was it there" into an error. Replay and publish
// both remove what an earlier step saw — the live call that journaled the
// record, the mutator's prepare — so a target that is not there is a refusal.
func found(ok bool, what, id string) error {
	if !ok {
		return fmt.Errorf("%s %q not found", what, id)
	}
	return nil
}

// writableLocked reports whether the store currently accepts mutations.
// Callers hold s.mu.
func (s *Store) writableLocked() error {
	if s.closed {
		return ErrClosed
	}
	if s.degraded {
		return fmt.Errorf("%w: %s", ErrDegraded, s.degradedReason)
	}
	return nil
}

// degradeLocked transitions the store into degraded read-only mode. The
// first durability failure wins; later ones only add to the fault counters
// at their call sites. Callers hold s.mu.
func (s *Store) degradeLocked(op string, cause error) {
	if s.degraded {
		return
	}
	s.degraded = true
	s.degradedReason = fmt.Sprintf("%s: %v", op, cause)
	s.degradedSince = time.Now()
	if s.instr.Degrade != nil {
		s.instr.Degrade(op, cause)
	}
}

// scrubTailLocked cuts the WAL back to the last acknowledged byte after a
// failed append, so a torn or complete-but-unacknowledged record cannot
// resurrect a mutation the caller saw fail if we crash while degraded.
// Best-effort: on a disk this broken the truncate may fail too, and Reopen
// replaces the log with an empty one before writes resume either way.
func (s *Store) scrubTailLocked() {
	_ = s.fs.Truncate(filepath.Join(s.dir, walName), s.stats.WALBytes)
}

// appendLocked journals one record and fsyncs: the journal stage of commit,
// its only caller, whose callers hold s.mu and have checked writableLocked. A
// write or fsync failure scrubs the unacknowledged tail and degrades the store.
func (s *Store) appendLocked(rec *record) error {
	buf, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	writeStart := time.Now()
	if _, err := s.wal.Write(buf); err != nil {
		s.stats.FaultWrites++
		s.scrubTailLocked()
		s.degradeLocked("append", err)
		return fmt.Errorf("%w: appending record: %w", ErrPersist, err)
	}
	syncStart := time.Now()
	if err := s.wal.Sync(); err != nil {
		s.stats.FaultSyncs++
		s.scrubTailLocked()
		s.degradeLocked("fsync", err)
		return fmt.Errorf("%w: syncing WAL: %w", ErrPersist, err)
	}
	if s.instr.WALAppend != nil {
		s.instr.WALAppend(syncStart.Sub(writeStart), time.Since(syncStart), len(buf))
	}
	st := &s.stats
	st.WALRecords++
	st.WALBytes += int64(len(buf))
	st.AppendedRecords++
	st.AppendedBytes += int64(len(buf))
	if rec.Op == opAddPlanBatch {
		st.BatchAppends++
		st.BatchPlans += int64(len(rec.Batch))
	}
	return nil
}

// maybeAutoCompact runs a compaction when the WAL has grown past the
// configured threshold. Compaction failure never fails the mutation that
// triggered it (the mutation is already durable in the log); it is surfaced
// through Stats instead.
func (s *Store) maybeAutoCompact() {
	if s.autoCompact <= 0 || s.stats.WALRecords < s.autoCompact {
		return
	}
	if err := s.compactLocked(); err != nil {
		s.stats.LastCompactionError = err.Error()
	}
}

// commit is the one way a mutation happens, and the only place one becomes
// visible. The mutator has prepared it — everything that can refuse it has run,
// touching nothing a reader can see — and hands over the record and the publish
// step. commit journals the record (write + fsync; a failure scrubs the tail,
// degrades the store and leaves memory exactly as it was, publish never
// called), then publishes into the engine or the knowledge base, then advances
// the sequence number, then lets the log compact. So a mutation is visible iff
// it is durable, and the acknowledging call returns after both. publish cannot
// fail after a correct prepare under s.mu; if it does, the journal holds what
// memory refused, and the store takes the record back out of the log and
// degrades rather than continue with the two in disagreement. Callers hold
// s.mu and have checked writableLocked.
//
// A Memory store has no journal stage: no record is written, the sequence
// number stays, nothing compacts, and a publish refusal comes back as-is —
// nothing was journaled to take back. No mutator knows the difference.
func (s *Store) commit(rec *record, publish func() error) error {
	if !s.Durable() {
		return publish()
	}
	rec.Seq = s.seq + 1
	tail := s.stats.WALBytes
	if err := s.appendLocked(rec); err != nil {
		return err
	}
	if err := publish(); err != nil {
		s.stats.WALRecords, s.stats.WALBytes = s.stats.WALRecords-1, tail
		s.scrubTailLocked()
		s.degradeLocked("publish", err)
		return fmt.Errorf("%w: publishing journaled %s (seq %d): %v", ErrPersist, rec.Op, rec.Seq, err)
	}
	s.seq++
	s.maybeAutoCompact()
	return nil
}

// AddPlan parses and ingests an explain file, journaling the raw text. The
// returned plan is registered in the engine — staged, journaled, then
// published, so no reader sees it before it is durable. Validation errors (bad
// text, duplicate ID) are returned as-is; durability failures wrap ErrPersist
// and leave the engine, its generation included, as it was.
func (s *Store) AddPlan(text string) (*qep.Plan, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return nil, err
	}
	b := s.eng.StageTexts([]string{text})
	if b.Errs[0] != nil {
		return nil, b.Errs[0]
	}
	rec := &record{Op: opAddPlan, ID: b.Plans[0].ID, Text: text}
	if err := s.commit(rec, func() error { return s.eng.Publish(b) }); err != nil {
		return nil, err
	}
	return b.Plans[0], nil
}

// BatchOutcome is the per-record result of AddPlanBatch. Plan is non-nil
// whenever the text parsed (even if loading then failed as a duplicate);
// Err is nil exactly when the plan was loaded and persisted.
type BatchOutcome struct {
	Plan *qep.Plan
	Err  error
}

// AddPlanBatch ingests a batch of explain texts as one durable mutation:
// each text is validated individually (parse failures, validation errors
// and duplicate IDs — against the engine or earlier records in the same
// batch — fail only their own record), the accepted plans are journaled as
// one WAL record with a single fsync, and only then registered in the engine
// under a single data-generation bump. The returned error is nil unless the
// store is closed or persistence itself failed; per-record outcomes carry all
// validation results. On a persistence failure no plan of the batch was ever
// visible — the batch is all-or-nothing, in memory and on disk.
func (s *Store) AddPlanBatch(texts []string) ([]BatchOutcome, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return nil, err
	}
	b := s.eng.StageTexts(texts)
	var items []batchItem
	for i, err := range b.Errs {
		if err == nil {
			items = append(items, batchItem{ID: b.Plans[i].ID, Text: texts[i]})
		}
	}
	if len(items) > 0 { // nothing accepted: nothing to journal
		rec := &record{Op: opAddPlanBatch, Batch: items}
		if err := s.commit(rec, func() error { return s.eng.Publish(b) }); err != nil {
			return nil, err
		}
	}
	out := make([]BatchOutcome, len(texts))
	for i := range texts {
		out[i] = BatchOutcome{Plan: b.Plans[i], Err: b.Errs[i]}
	}
	return out, nil
}

// RemovePlan unloads a plan durably. It reports whether the plan existed.
// s.mu serialises every mutator, so the existence check cannot go stale
// between prepare and publish; a failed append leaves the engine exactly as it
// was.
func (s *Store) RemovePlan(id string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return false, err
	}
	if s.eng.Plan(id) == nil {
		return false, nil
	}
	rec := &record{Op: opRemovePlan, ID: id}
	err := s.commit(rec, func() error { return found(s.eng.RemovePlan(id), "plan", id) })
	return err == nil, err
}

// AddEntry saves a problem pattern with its recommendations to the
// knowledge base, journaling the entry's JSON form.
func (s *Store) AddEntry(p *pattern.Pattern, recs ...kb.Recommendation) (*kb.Entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return nil, err
	}
	entry, err := s.base.Build(p, recs...)
	if err != nil {
		return nil, err
	}
	data, err := json.Marshal(entry)
	if err != nil {
		return nil, fmt.Errorf("store: encoding kb entry: %w", err)
	}
	rec := &record{Op: opAddEntry, ID: entry.Name, Item: data}
	if err := s.commit(rec, func() error { return s.base.Insert(entry) }); err != nil {
		return nil, err
	}
	return entry, nil
}

// RemoveEntry deletes a knowledge-base entry durably. It reports whether
// the entry existed.
func (s *Store) RemoveEntry(name string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return false, err
	}
	if s.base.Entry(name) == nil {
		return false, nil
	}
	rec := &record{Op: opRemoveEntry, ID: name}
	err := s.commit(rec, func() error { return found(s.base.Remove(name), "kb entry", name) })
	return err == nil, err
}

// Compact folds the current state into a fresh snapshot and resets the WAL.
// Served state is unchanged; only the on-disk representation shrinks.
func (s *Store) Compact() error {
	if !s.Durable() {
		return ErrNotDurable
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return err
	}
	return s.compactLocked()
}

func (s *Store) compactLocked() (err error) {
	if s.instr.Compaction != nil {
		defer func(start time.Time) { s.instr.Compaction(time.Since(start), err == nil) }(time.Now())
	}
	snap, err := buildSnapshot(s.generation+1, s.seq, s.eng.Plans(), s.base, s.eng.Parallel)
	if err != nil {
		return err
	}
	// Spend the number before writing: whatever fails from here on, the
	// disk may hold this generation, and the next snapshot must not write
	// it again. A failed attempt leaves a gap, which nothing reads.
	s.generation = snap.generation
	if err := writeSnapshot(s.fs, s.dir, snap); err != nil {
		s.stats.FaultCompactions++
		s.degradeLocked("compact", err)
		return fmt.Errorf("%w: %w", ErrPersist, err)
	}
	// Swap in an empty log only after the snapshot is durable. If we crash
	// between the renames the old log survives alongside the new snapshot,
	// and replay skips its records by sequence number.
	if err := atomicWrite(s.fs, s.dir, walName, nil); err != nil {
		s.stats.FaultCompactions++
		s.degradeLocked("compact", err)
		return fmt.Errorf("%w: resetting WAL: %w", ErrPersist, err)
	}
	f, err := s.fs.OpenFile(filepath.Join(s.dir, walName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		// The reset log is already live on disk but we hold no handle to
		// it: appends have nowhere consistent to go, so degrade.
		s.stats.FaultCompactions++
		s.degradeLocked("compact", err)
		return fmt.Errorf("%w: reopening WAL: %w", ErrPersist, err)
	}
	old := s.wal
	s.wal = f
	old.Close() // the unlinked previous log
	s.stats.Compactions++
	s.stats.WALRecords, s.stats.WALBytes = 0, 0
	s.stats.LastCompaction = time.Now()
	s.stats.LastCompactionError = ""
	return nil
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Dir, st.Generation, st.LastSeq = s.dir, s.generation, s.seq
	st.Degraded, st.DegradedReason = s.degraded, s.degradedReason
	st.Fsyncs = st.AppendedRecords // every append is one write and one fsync
	return st
}

// Health states, as reported by Health and the server's /readyz.
const (
	HealthOK       = "ok"       // accepting reads and writes
	HealthDegraded = "degraded" // read-only after a durability failure
	HealthClosed   = "closed"   // Close was called; reads still work
)

// Health describes whether the store accepts writes right now.
type Health struct {
	State  string     `json:"state"` // ok | degraded | closed
	Reason string     `json:"reason,omitempty"`
	Since  *time.Time `json:"since,omitempty"` // when the degradation began; nil unless degraded
}

// Health reports the store's current write-path state. Reads (Engine, KB,
// Stats) work in every state.
func (s *Store) Health() Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return Health{State: HealthClosed}
	case s.degraded:
		since := s.degradedSince
		return Health{State: HealthDegraded, Reason: s.degradedReason, Since: &since}
	default:
		return Health{State: HealthOK}
	}
}

// Reopen leaves degraded mode by compacting from memory, the one compaction
// allowed while degraded. Memory holds exactly the acknowledged state: every
// mutation in it was fsync-acknowledged, and a failed one was never published.
// So a snapshot of memory plus an empty log is a disk that recovers that state,
// whatever torn, unacknowledged or half-published bytes the failure left
// behind; nothing on disk is read. A success counts as a compaction as well as
// a reopen, and the store accepts writes again; on failure it stays degraded
// and Reopen can be retried. Reopening a healthy store is a no-op.
func (s *Store) Reopen() error {
	if !s.Durable() {
		return ErrNotDurable
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if !s.degraded {
		return nil
	}
	err := s.compactLocked()
	if s.instr.Reopen != nil {
		s.instr.Reopen(err == nil)
	}
	if err != nil {
		s.stats.ReopenFailures++
		return err
	}
	s.stats.Reopens++
	s.degraded = false
	s.degradedReason = ""
	return nil
}

// Close flushes and closes the log. Further mutations return ErrClosed; the
// engine and knowledge base stay readable. Close is idempotent and safe to
// call concurrently with in-flight mutations, which finish first (they hold
// the store mutex) and are fully durable before Close returns.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.wal == nil {
		return nil
	}
	err := s.wal.Close()
	s.wal = nil
	if err != nil {
		return fmt.Errorf("store: closing WAL: %w", err)
	}
	return nil
}
