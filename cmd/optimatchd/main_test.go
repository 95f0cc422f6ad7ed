package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"optimatch/internal/fixtures"
	"optimatch/internal/qep"
	"optimatch/internal/store"
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
	n, err := loadDir(st.Engine(), st, workload)
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
	// The start-up line says where the time went: one record and one plan per
	// file, all of them one replay run.
	attrs := map[string]any{}
	for line := recoveryAttrs(dataDir, st2); len(line) >= 2; line = line[2:] {
		attrs[line[0].(string)] = line[1]
	}
	if attrs["walRecordsReplayed"] != int64(want) || attrs["plansReplayed"] != int64(want) || attrs["runs"] != int64(1) {
		t.Errorf("store recovered line = %v, want %d records and plans replayed in 1 run", attrs, want)
	}
	if took, ok := attrs["took"].(time.Duration); !ok || took <= 0 {
		t.Errorf("store recovered line: took = %v, want a positive duration", attrs["took"])
	}
	n, err = loadDir(st2.Engine(), st2, workload)
	if err != nil {
		t.Fatalf("re-seeding a recovered store failed: %v", err)
	}
	if n != 0 {
		t.Errorf("re-seed ingested %d plans, want 0 (all duplicates)", n)
	}
	if got := st2.Engine().NumPlans(); got != want {
		t.Errorf("plans after re-seed = %d, want %d", got, want)
	}
}

// TestLoadDirWithoutStore pins the in-memory path to the same behavior the
// engine's LoadDir provides.
func TestLoadDirWithoutStore(t *testing.T) {
	workload := t.TempDir()
	want := writeWorkload(t, workload)
	st := (*store.Store)(nil)
	eng, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	n, err := loadDir(eng.Engine(), st, workload)
	if err != nil {
		t.Fatal(err)
	}
	if n != want {
		t.Fatalf("loaded %d plans, want %d", n, want)
	}
}
