package main

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"optimatch/internal/core"
	"optimatch/internal/pattern"
)

// runQepgen invokes run() with a fresh flag set and the given arguments.
func runQepgen(t *testing.T, args ...string) error {
	t.Helper()
	oldArgs := os.Args
	oldCmd := flag.CommandLine
	defer func() {
		os.Args = oldArgs
		flag.CommandLine = oldCmd
	}()
	flag.CommandLine = flag.NewFlagSet("qepgen", flag.ContinueOnError)
	os.Args = append([]string{"qepgen"}, args...)
	return run()
}

func TestQepgenWritesWorkloadAndTruth(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wl")
	err := runQepgen(t,
		"-out", dir, "-n", "8", "-seed", "3", "-min-ops", "15", "-max-ops", "30",
		"-inject-a", "2", "-inject-d", "1")
	if err != nil {
		t.Fatal(err)
	}

	// The files load back into an engine and the injected patterns match.
	_, texts, err := core.ReadExplainDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.New()
	if err := eng.Publish(eng.StageTexts(texts)); err != nil {
		t.Fatal(err)
	}
	if n := eng.NumPlans(); n != 8 {
		t.Fatalf("loaded %d plans, want 8", n)
	}
	matches, err := eng.FindPattern(context.Background(), pattern.A())
	if err != nil {
		t.Fatal(err)
	}
	plans := map[string]bool{}
	for _, m := range matches {
		plans[m.Plan().ID] = true
	}
	if len(plans) != 2 {
		t.Errorf("pattern A plans = %d, want 2", len(plans))
	}

	// truth.json agrees.
	data, err := os.ReadFile(filepath.Join(dir, "truth.json"))
	if err != nil {
		t.Fatal(err)
	}
	var truth map[string]map[string]bool
	if err := json.Unmarshal(data, &truth); err != nil {
		t.Fatal(err)
	}
	if len(truth["A"]) != 2 || len(truth["D"]) != 1 {
		t.Errorf("truth = %v", truth)
	}
	for id := range truth["A"] {
		if !plans[id] {
			t.Errorf("truth plan %s not matched", id)
		}
	}
}

func TestQepgenRejectsBadConfig(t *testing.T) {
	if err := runQepgen(t, "-out", t.TempDir(), "-n", "0"); err == nil {
		t.Error("n=0 accepted")
	}
	if err := runQepgen(t, "-out", t.TempDir(), "-n", "2", "-inject-a", "9"); err == nil {
		t.Error("oversized injection accepted")
	}
}
