package store

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"optimatch/internal/core"
	"optimatch/internal/faultfs"
	"optimatch/internal/fixtures"
	"optimatch/internal/kb"
	"optimatch/internal/pattern"
	"optimatch/internal/qep"
	"optimatch/internal/storefs"
)

// chaosSweepEnv, when set to a positive integer N, runs the chaos property
// over N randomly drawn seeds on top of the fixed ones — the nightly sweep.
// Each seed is a subtest named seed<n>, so a failure names the exact seed
// to replay locally: go test -run 'TestChaosProperty/seed<n>' ./internal/store
const chaosSweepEnv = "OPTIMATCH_CHAOS_SEEDS"

// TestChaosProperty drives randomized mutation workloads against a store
// whose filesystem fails on a schedule derived from the seed, asserting the
// three degraded-mode invariants:
//
//  1. No injected fault yields a recovered state differing from the last
//     acknowledged durable state (modulo the one documented fsync ambiguity:
//     a failed fsync whose tail scrub also failed may leave exactly the
//     failed record, which Reopen then drops).
//  2. Degraded mode never serves a partially-applied mutation or batch: the
//     served report always equals the acknowledged reference, plan for plan in
//     load order, and a failed mutation moves neither the engine's generation
//     nor the knowledge base's cache key (it was never published).
//  3. Once faults clear, Reopen succeeds and replays to a byte-identical
//     RunKB report, live and across a restart.
func TestChaosProperty(t *testing.T) {
	seeds := []int64{3, 17, 4099}
	if testing.Short() {
		seeds = seeds[:2]
	}
	if env := os.Getenv(chaosSweepEnv); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil || n < 0 {
			t.Fatalf("%s=%q: want a non-negative integer", chaosSweepEnv, env)
		}
		src := rand.New(rand.NewSource(time.Now().UnixNano()))
		for i := 0; i < n; i++ {
			seeds = append(seeds, src.Int63())
		}
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			runChaosProperty(t, seed)
		})
	}
}

// chaosArmable are the operation classes the schedule may fail during live
// mutation and reopen traffic. OpRead is not among them: only Open reads the
// disk, and a crash image is recovered on a clean filesystem.
var chaosArmable = []faultfs.Op{
	faultfs.OpWrite, faultfs.OpSync, faultfs.OpCreate,
	faultfs.OpRename, faultfs.OpOpen, faultfs.OpTruncate,
}

func runChaosProperty(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	fatalf := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("[seed %d] "+format, append([]any{seed}, args...)...)
	}

	dir := t.TempDir()
	ffs := faultfs.Wrap(storefs.OS{})
	s, err := Open(dir, WithFS(ffs))
	if err != nil {
		fatalf("Open: %v", err)
	}
	defer s.Close()

	texts := planTexts()
	planIDs := make([]string, 0, len(texts))
	for id := range texts {
		planIDs = append(planIDs, id)
	}
	entryPool := map[string]func() *pattern.Pattern{
		pattern.E().Name: pattern.E,
		pattern.F().Name: pattern.F,
		pattern.G().Name: pattern.G,
	}

	// acked is the reference model: every mutation the store acknowledged,
	// in order. lastFailed tracks the single mutation whose append failed
	// while the store degraded — the only record a crash image may legally
	// contain beyond the acknowledged sequence (failed fsync, failed scrub).
	var acked []mutation
	var lastFailed *mutation
	loaded := map[string]bool{}
	batchSeq := 0 // distinct IDs for generated batch plans

	// ackedReport renders the reference at an acknowledged depth. Batch
	// mutations count as one sequence number, like the store's WAL.
	ackedReport := func(upto uint64, extra *mutation) string {
		eng := core.New()
		base := kb.MustCanonical()
		muts := acked
		if upto <= uint64(len(acked)) {
			muts = acked[:upto]
		}
		if extra != nil {
			muts = append(append([]mutation(nil), muts...), *extra)
		}
		for _, m := range muts {
			switch m.op {
			case opAddPlan:
				if _, err := eng.LoadText(m.text); err != nil {
					fatalf("reference %s %s: %v", m.op, m.id, err)
				}
			case opAddPlanBatch:
				for _, text := range m.batch {
					if _, err := eng.LoadText(text); err != nil {
						fatalf("reference batch: %v", err)
					}
				}
			case opRemovePlan:
				eng.RemovePlan(m.id)
			case opAddEntry:
				if _, err := base.Add(m.pat(), m.recs...); err != nil {
					fatalf("reference addEntry %s: %v", m.id, err)
				}
			case opRemoveEntry:
				base.Remove(m.id)
			}
		}
		return reportString(t, eng, base)
	}

	// checkServed asserts invariant 2: the live store serves exactly the
	// acknowledged state, whatever just failed.
	checkServed := func(step int, when string) {
		want := ackedReport(uint64(len(acked)), nil)
		if got := reportString(t, s.Engine(), s.KB()); got != want {
			fatalf("step %d (%s): served state differs from acknowledged reference:\n--- want\n%s--- got\n%s",
				step, when, want, got)
		}
	}

	// checkImage asserts invariant 1 on a moment-of-crash copy of the
	// directory, recovered by a clean process.
	checkImage := func(step int) {
		img := copyStoreDir(t, dir)
		r, err := Open(img)
		if err != nil {
			fatalf("step %d: recovering crash image: %v", step, err)
		}
		defer r.Close()
		seq := r.Stats().LastSeq
		ackSeq := uint64(len(acked))
		var want string
		switch {
		case seq == ackSeq:
			want = ackedReport(ackSeq, nil)
		case seq == ackSeq+1 && lastFailed != nil:
			// The documented fsync ambiguity: the failed record landed whole
			// and the scrub could not remove it.
			want = ackedReport(ackSeq, lastFailed)
		default:
			fatalf("step %d: crash image recovered seq %d, want %d (acknowledged) — acknowledged durable state lost",
				step, seq, ackSeq)
		}
		if got := reportString(t, r.Engine(), r.KB()); got != want {
			fatalf("step %d: crash image (seq %d) differs from reference:\n--- want\n%s--- got\n%s",
				step, seq, want, got)
		}
	}

	// heal clears the schedule and drives Reopen until the store is healthy
	// again, asserting invariant 3.
	heal := func(step int) {
		// Sometimes exercise a reopen attempt on the still-broken disk first:
		// its compaction fails to publish the snapshot, or publishes it and
		// fails to reset the log. It must fail without losing anything.
		if rng.Intn(2) == 0 {
			ffs.FailNth(faultfs.OpRename, int64(1+step%2), faultfs.KindErr)
			if err := s.Reopen(); err == nil {
				fatalf("step %d: Reopen succeeded with a rename fault armed", step)
			}
			if h := s.Health(); h.State != HealthDegraded {
				fatalf("step %d: health %q after failed reopen", step, h.State)
			}
			checkServed(step, "after failed reopen")
			checkImage(step)
		}
		ffs.Clear()
		if err := s.Reopen(); err != nil {
			fatalf("step %d: Reopen on healed disk: %v", step, err)
		}
		if h := s.Health(); h.State != HealthOK {
			fatalf("step %d: health %+v after reopen", step, h)
		}
		lastFailed = nil
		checkServed(step, "after reopen")
	}

	steps := 40
	if testing.Short() {
		steps = 25
	}
	for step := 0; step < steps; step++ {
		// Arm a fault ahead of roughly a third of the operations.
		if ffs.Armed() == 0 && rng.Intn(3) == 0 {
			op := chaosArmable[rng.Intn(len(chaosArmable))]
			kind := faultfs.Kinds[rng.Intn(len(faultfs.Kinds))]
			ffs.FailNth(op, int64(1+rng.Intn(3)), kind)
		}

		// Pick a legal mutation for the current acknowledged state.
		var candidates []mutation
		for _, id := range planIDs {
			if !loaded[id] {
				candidates = append(candidates, mutation{op: opAddPlan, id: id, text: texts[id]})
			} else {
				candidates = append(candidates, mutation{op: opRemovePlan, id: id})
			}
		}
		for name, pat := range entryPool {
			if s.KB().Entry(name) == nil {
				candidates = append(candidates, mutation{op: opAddEntry, id: name, pat: pat, recs: []kb.Recommendation{{
					Title:    "advice for " + name,
					Template: "inspect @TOP",
					Weight:   0.5,
				}}})
			} else {
				candidates = append(candidates, mutation{op: opRemoveEntry, id: name})
			}
		}
		candidates = append(candidates, mutation{op: opAddPlanBatch})
		m := candidates[rng.Intn(len(candidates))]

		served := servedState(s.Engine(), s.KB())
		var opErr error
		switch m.op {
		case opAddPlan:
			_, opErr = s.AddPlan(m.text)
			if opErr == nil {
				loaded[m.id] = true
			}
		case opRemovePlan:
			var ok bool
			ok, opErr = s.RemovePlan(m.id)
			if opErr == nil && !ok {
				fatalf("step %d: RemovePlan(%s) found nothing", step, m.id)
			}
			if opErr == nil {
				delete(loaded, m.id)
			}
		case opAddEntry:
			_, opErr = s.AddEntry(m.pat(), m.recs...)
		case opRemoveEntry:
			var ok bool
			ok, opErr = s.RemoveEntry(m.id)
			if opErr == nil && !ok {
				fatalf("step %d: RemoveEntry(%s) found nothing", step, m.id)
			}
		case opAddPlanBatch:
			n := 2 + rng.Intn(3)
			m.batch = make([]string, n)
			for i := range m.batch {
				batchSeq++
				m.batch[i] = synthBatchText(batchSeq)
			}
			var out []BatchOutcome
			out, opErr = s.AddPlanBatch(m.batch)
			if opErr == nil {
				for i, o := range out {
					if o.Err != nil {
						fatalf("step %d: batch record %d rejected: %v", step, i, o.Err)
					}
				}
			}
		}

		if opErr == nil {
			acked = append(acked, m)
			continue
		}

		// The mutation failed: it must be a persistence or degraded refusal,
		// never a silent partial application.
		if !errors.Is(opErr, ErrPersist) && !errors.Is(opErr, ErrDegraded) {
			fatalf("step %d: %s failed with %v, want ErrPersist or ErrDegraded", step, m.op, opErr)
		}
		if h := s.Health(); h.State != HealthDegraded {
			fatalf("step %d: %s failed (%v) but health is %q", step, m.op, opErr, h.State)
		}
		if errors.Is(opErr, ErrPersist) {
			// The failed record (single mutation or whole batch — one WAL
			// frame either way) may have reached the disk whole before the
			// fsync failed; a crash image is allowed to contain exactly it.
			failed := m
			lastFailed = &failed
		}
		checkServed(step, "after failed "+m.op)
		if got := servedState(s.Engine(), s.KB()); got != served {
			fatalf("step %d: failed %s moved what readers see:\n--- before\n%s\n--- after\n%s", step, m.op, served, got)
		}
		if rng.Intn(2) == 0 {
			checkImage(step)
		}
		heal(step)
	}

	// Sometimes a compaction failure (rather than an append) is the last
	// event before shutdown; make sure the run covers it at least once.
	ffs.FailNth(faultfs.OpRename, 1, faultfs.KindErr)
	if err := s.Compact(); !errors.Is(err, ErrPersist) {
		fatalf("final Compact = %v, want ErrPersist", err)
	}
	checkServed(steps, "after failed compaction")
	checkImage(steps)
	heal(steps)

	// Invariant 3 across a restart: close and recover the real directory.
	want := ackedReport(uint64(len(acked)), nil)
	if err := s.Close(); err != nil {
		fatalf("Close: %v", err)
	}
	r, err := Open(dir)
	if err != nil {
		fatalf("final recovery: %v", err)
	}
	defer r.Close()
	if got := r.Stats().LastSeq; got != uint64(len(acked)) {
		fatalf("final recovery seq %d, want %d", got, len(acked))
	}
	if got := reportString(t, r.Engine(), r.KB()); got != want {
		fatalf("final recovered report differs from reference:\n--- want\n%s--- got\n%s", want, got)
	}
}

// synthBatchText renders a uniquely-named plan for batch ingest. Chaos runs
// mint fresh B-prefixed IDs so batches never collide with fixture plans or
// each other.
func synthBatchText(n int) string {
	all := fixtures.All()
	p := fixtures.Renamed(all[n%len(all)], fmt.Sprintf("B%d", n))
	return qep.Text(p)
}
