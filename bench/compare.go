package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of one (metric, workload) row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge applies one bound: b is worse than a when its value moved in the
// bad direction by more than bound as a share of a's value. A row whose
// own spread (interquartile range over value, on either side) is wider
// than the bound cannot tell a regression from noise and is unresolved.
func judge(m metricSpec, a, b sample) (verdict string, change float64) {
	if a.Value != 0 {
		change = (b.Value - a.Value) / math.Abs(a.Value)
		if m.Better == "higher" {
			change = -change
		}
	}
	switch {
	case math.Max(a.spread(), b.spread()) > m.Bound:
		return verdictUnresolved, change
	case change > m.Bound:
		return verdictWorse, change
	default:
		return verdictOK, change
	}
}

func readDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// compareFiles prints one row per (end-to-end metric, workload) present in
// both documents and reports whether any row is worse. fail_ratio has no
// tolerance: any increase is worse.
func compareFiles(w io.Writer, sp *spec, pathA, pathB string) (worse bool, err error) {
	a, err := readDocument(pathA)
	if err != nil {
		return false, err
	}
	b, err := readDocument(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-16s %-18s %14s %14s %9s %8s %8s  %s\n", "workload", "metric", "a", "b", "change", "spread", "bound", "verdict")
	for _, name := range workloadNames {
		ra, rb := a.Workloads[name], b.Workloads[name]
		if ra == nil || rb == nil {
			continue
		}
		for _, m := range sp.EndToEnd {
			sa, okA := ra.EndToEnd[m.Name]
			sb, okB := rb.EndToEnd[m.Name]
			if !okA || !okB {
				continue
			}
			verdict, change := judge(m, sa, sb)
			worse = worse || verdict == verdictWorse
			fmt.Fprintf(w, "%-16s %-18s %14.6g %14.6g %+8.1f%% %7.1f%% %7.1f%%  %s\n",
				name, m.Name, sa.Value, sb.Value, 100*change, 100*math.Max(sa.spread(), sb.spread()), 100*m.Bound, verdict)
		}
		verdict := verdictOK
		if rb.FailRatio > ra.FailRatio {
			verdict, worse = verdictWorse, true
		}
		fmt.Fprintf(w, "%-16s %-18s %14.6g %14.6g %26s  %s\n", name, "fail_ratio", ra.FailRatio, rb.FailRatio, "", verdict)
	}
	return worse, nil
}
