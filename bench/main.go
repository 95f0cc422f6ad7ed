// Command bench is the OptImatch benchmark: four workloads driven through
// server.Handler in process, eight bounded end-to-end metrics, and per-layer spans
// and counts taken in a separate traced run. See README.md.
//
//	go run -C bench .                                  # all four workloads, results document on stdout
//	go run -C bench . -workload kb_scan_cold           # one workload
//	go run -C bench . -workload serve_mixed -trace 1   # per-layer metrics and the span file
//	go run -C bench . -compare a.json b.json           # apply the bounds of BENCHMARK.json
//
// bash bench/run.sh is the same program with every build output kept under
// .bench_build; it is the command BENCHMARK.json names.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// spec is the part of BENCHMARK.json the program reads: the run length, the
// workload names, the metric names and their bounds.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from the repository root, whether the
// program was started there (run.sh) or in bench/ (go run -C bench).
func loadSpec(path string) (*spec, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")}
	}
	var data []byte
	var err error
	for _, c := range candidates {
		if data, err = os.ReadFile(c); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("reading BENCHMARK.json: %w", err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("decoding BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// env is recorded in every results document, so that a trajectory point
// says where it was taken.
type env struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Commit     string  `json:"git_commit"`
	Sizes      sizes   `json:"sizes"`
}

// document is the results document written to -out.
type document struct {
	Env       env                `json:"env"`
	Workloads map[string]*result `json:"workloads"`
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}

func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// printReport prints every metric of one result by name, with unit,
// median, quartiles and sample count.
func printReport(w io.Writer, res *result) {
	fmt.Fprintf(w, "\n== %s: %d repetitions, %d client(s), ops per repetition %v\n", res.Workload, res.Reps, res.Clients, res.Ops)
	section := func(title string, metrics map[string]sample) {
		if len(metrics) == 0 {
			return
		}
		fmt.Fprintf(w, "-- %s\n", title)
		names := make([]string, 0, len(metrics))
		for name := range metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := metrics[name]
			note := ""
			if strings.Contains(name, "p95") && !tailOK(m.N, 0.95) {
				note = fmt.Sprintf("  (only %d samples beyond p95)", beyond(m.N, 0.95))
			}
			fmt.Fprintf(w, "%-36s %14.6g %-6s q1 %-12.6g q3 %-12.6g n %d%s\n", name, m.Value, m.Unit, m.Q1, m.Q3, m.N, note)
		}
	}
	section("end to end", res.EndToEnd)
	section("raw latency percentiles and reference-kernel slowdown (no bound)", res.Latency)
	section("per layer", res.PerLayer)
	if len(res.SelfTime) > 0 {
		fmt.Fprintln(w, "-- self time by span (s)")
		names := make([]string, 0, len(res.SelfTime))
		for name := range res.SelfTime {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "%-36s %14.6g\n", name, res.SelfTime[name])
		}
	}
	fmt.Fprintf(w, "%-36s %14.6g %-6s (%d failed of %d attempted)\n", "fail_ratio", res.FailRatio, "ratio", res.Failed, res.Attempted)
	for _, reason := range res.Failures {
		fmt.Fprintf(w, "   failed: %s\n", reason)
	}
	if res.Spans != "" {
		fmt.Fprintf(w, "spans written to %s\n", res.Spans)
	}
}

// driverLine is the object the benchmark contract wants as the last line
// of standard output.
func driverLine(res *result, traced bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	src := res.EndToEnd
	if traced {
		src = res.PerLayer
	}
	for name, m := range src {
		metrics[name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	if err != nil {
		panic(err) // NaN or Inf in a metric: a bug in the benchmark
	}
	return string(line)
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "run one workload ("+strings.Join(workloadNames, ", ")+") and end with the contract's result line; empty: all four")
		seed     = fs.Int64("seed", 2016, "seed of every generated input")
		seconds  = fs.Float64("seconds", 0, "how long the measured repetitions of each workload run (0: run_seconds of BENCHMARK.json)")
		trace    = fs.Int("trace", 0, "1: traced run, reports the per-layer metrics and writes the span file")
		quick    = fs.Bool("quick", false, "tiny sizes, one repetition: exercises every code path in a few seconds")
		out      = fs.String("out", "", "write the results document here (default: stdout when running all workloads)")
		spansDir = fs.String("spans", "", "directory for the span files of traced runs (default: the temp directory)")
		specPath = fs.String("spec", "", "path of BENCHMARK.json (default: ./ or ../)")
		compare  = fs.Bool("compare", false, "compare two results documents: -compare a.json b.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		return fail(err)
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare wants two results documents"))
		}
		worse, err := compareFiles(stdout, sp, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	}

	z, minReps := defaultSizes, 3
	if *quick {
		z, minReps = quickSizes, 1
	}
	if *seconds == 0 && !*quick {
		*seconds = float64(sp.RunSeconds)
	}
	names := workloadNames
	if *name != "" {
		names = []string{*name}
	}
	if *spansDir == "" {
		*spansDir = os.TempDir()
	}
	doc := document{
		Env: env{
			GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), CPUModel: cpuModel(), GoVersion: runtime.Version(),
			Seed: *seed, Seconds: *seconds, Commit: commit(), Sizes: z,
		},
		Workloads: map[string]*result{},
	}
	correct := true
	var last *result
	for _, n := range names {
		cfg := runConfig{Workload: n, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Sizes: z, MinReps: minReps, TmpDir: os.TempDir()}
		if cfg.Trace {
			cfg.SpansPath = filepath.Join(*spansDir, "optimatch-bench-spans-"+n+".jsonl")
		}
		res, err := runWorkload(cfg)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", n, err))
		}
		printReport(stdout, res)
		doc.Workloads[n] = res
		correct = correct && res.Correct
		last = res
	}
	if *out != "" || *name == "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return fail(err)
		}
		data = append(data, '\n')
		if *out == "" {
			stdout.Write(data)
		} else if err := os.WriteFile(*out, data, 0o644); err != nil {
			return fail(err)
		}
	}
	if *name != "" {
		fmt.Fprintln(stdout, driverLine(last, *trace == 1))
	}
	if !correct {
		fmt.Fprintln(stderr, "bench: correctness checks failed")
		return 1
	}
	return 0
}
