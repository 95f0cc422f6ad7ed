package main

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"optimatch/internal/core"
	"optimatch/internal/fixtures"
	"optimatch/internal/kb"
	"optimatch/internal/qep"
	"optimatch/internal/store"
)

// The daemon's default -batch-max-records and -batch-max-bytes.
const (
	defaultMaxRecords       = 1024
	defaultMaxBytes   int64 = 8 << 20
)

// writeWorkload materializes the fixture plans as explain files in dir.
func writeWorkload(t *testing.T, dir string) int {
	t.Helper()
	plans := fixtures.All()
	for _, p := range plans {
		path := filepath.Join(dir, p.ID+".exfmt")
		if err := os.WriteFile(path, []byte(qep.Text(p)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return len(plans)
}

// TestLoadDirIdempotentWithStore covers the -load + -data restart path: the
// second boot recovers every plan from the store, so re-seeding the same
// directory must skip each file on core.ErrDuplicatePlan instead of failing
// the boot.
func TestLoadDirIdempotentWithStore(t *testing.T) {
	workload := t.TempDir()
	want := writeWorkload(t, workload)
	dataDir := t.TempDir()

	st, err := store.Open(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	n, err := loadDir(st, workload, defaultMaxRecords, defaultMaxBytes)
	if err != nil {
		t.Fatal(err)
	}
	if n != want {
		t.Fatalf("first load ingested %d plans, want %d", n, want)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: recovery already holds every plan; -load must be a no-op.
	st2, err := store.Open(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.Engine().NumPlans(); got != want {
		t.Fatalf("recovered %d plans, want %d", got, want)
	}
	// The start-up line says where the time went: the whole directory was one
	// chunk, so one batch record holding every plan, replayed as one run.
	attrs := map[string]any{}
	for line := recoveryAttrs(dataDir, st2); len(line) >= 2; line = line[2:] {
		attrs[line[0].(string)] = line[1]
	}
	if attrs["walRecordsReplayed"] != int64(1) || attrs["plansReplayed"] != int64(want) || attrs["runs"] != int64(1) {
		t.Errorf("store recovered line = %v, want 1 record and %d plans replayed in 1 run", attrs, want)
	}
	if took, ok := attrs["took"].(time.Duration); !ok || took <= 0 {
		t.Errorf("store recovered line: took = %v, want a positive duration", attrs["took"])
	}
	n, err = loadDir(st2, workload, defaultMaxRecords, defaultMaxBytes)
	if err != nil {
		t.Fatalf("re-seeding a recovered store failed: %v", err)
	}
	if n != 0 {
		t.Errorf("re-seed ingested %d plans, want 0 (all duplicates)", n)
	}
	if got := st2.Engine().NumPlans(); got != want {
		t.Errorf("plans after re-seed = %d, want %d", got, want)
	}
	if got := st2.Stats().AppendedRecords; got != 0 {
		t.Errorf("re-seed journaled %d records, want 0", got)
	}
}

// TestLoadDirWithoutStore drives the same loadDir over a memory store: every
// plan loads, in one generation bump, nothing is journaled, and a re-seed
// skips every file as a duplicate.
func TestLoadDirWithoutStore(t *testing.T) {
	workload := t.TempDir()
	want := writeWorkload(t, workload)
	st := store.Memory(core.New(), kb.MustCanonical())
	defer st.Close()
	for _, wantN := range []int{want, 0} {
		n, err := loadDir(st, workload, defaultMaxRecords, defaultMaxBytes)
		if err != nil {
			t.Fatal(err)
		}
		if n != wantN {
			t.Fatalf("loaded %d plans, want %d", n, wantN)
		}
	}
	if got, gen := st.Engine().NumPlans(), st.Engine().Generation(); got != want || gen != 1 {
		t.Errorf("engine holds %d plans at generation %d, want %d at 1", got, gen, want)
	}
	if got := st.Stats(); got.AppendedRecords != 0 || got.LastSeq != 0 {
		t.Errorf("memory store stats = %+v, want nothing journaled", got)
	}
}

// TestLoadDirChunks pins how -load cuts a directory into AddPlanBatch chunks
// and what a refused file leaves behind. The files, in os.ReadDir order, are
// Q0, Q2, Q21, Q8 and Q9, with Q3-bad.exfmt (not an explain file) between
// Q21 and Q8 in the rows that add it: the load fails naming it, the accepted
// plans of its chunk are journaled, later chunks are not ingested.
func TestLoadDirChunks(t *testing.T) {
	all := []string{"Q0", "Q2", "Q21", "Q8", "Q9"}
	for _, tc := range []struct {
		name        string
		maxRecords  int
		maxBytes    int64
		bad         bool
		wantRecords int64
		wantPlans   []string
	}{
		{"one chunk", defaultMaxRecords, defaultMaxBytes, false, 1, all},
		{"two records a chunk", 2, defaultMaxBytes, false, 3, all},
		{"every file over the byte bound", defaultMaxRecords, 1, false, 5, all},
		{"bad file, one chunk", defaultMaxRecords, defaultMaxBytes, true, 1, all},
		{"bad file, two records a chunk", 2, defaultMaxBytes, true, 2, []string{"Q0", "Q2", "Q21"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			workload := t.TempDir()
			writeWorkload(t, workload)
			if tc.bad {
				if err := os.WriteFile(filepath.Join(workload, "Q3-bad.exfmt"), []byte("not a plan"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			dataDir := t.TempDir()
			st, err := store.Open(dataDir)
			if err != nil {
				t.Fatal(err)
			}
			n, err := loadDir(st, workload, tc.maxRecords, tc.maxBytes)
			if tc.bad != (err != nil) || tc.bad && !strings.HasPrefix(err.Error(), "Q3-bad.exfmt: ") {
				t.Fatalf("loadDir error = %v, want one naming Q3-bad.exfmt: %v", err, tc.bad)
			}
			if n != len(tc.wantPlans) {
				t.Errorf("loadDir counted %d plans, want %d", n, len(tc.wantPlans))
			}
			if got := st.Stats(); got.AppendedRecords != tc.wantRecords || got.BatchPlans != int64(len(tc.wantPlans)) {
				t.Errorf("journaled %d records holding %d plans, want %d holding %d",
					got.AppendedRecords, got.BatchPlans, tc.wantRecords, len(tc.wantPlans))
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			r, err := store.Open(dataDir)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			var ids []string
			for _, p := range r.Engine().Plans() {
				ids = append(ids, p.ID)
			}
			sort.Strings(ids)
			if !reflect.DeepEqual(ids, tc.wantPlans) {
				t.Errorf("recovered plans %v, want %v", ids, tc.wantPlans)
			}
		})
	}
}
