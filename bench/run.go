package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// runConfig is one invocation of one workload.
type runConfig struct {
	Workload  string
	Seed      int64
	Seconds   float64 // how long the measured repetitions run
	Trace     bool
	Sizes     sizes
	MinReps   int
	TmpDir    string // store directories live (and die) here
	SpansPath string // traced runs write their spans here; "" keeps them in memory only
}

// result is what one run of one workload reports.
type result struct {
	Workload  string             `json:"workload"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	FailRatio float64            `json:"fail_ratio"`
	Failures  []string           `json:"failures,omitempty"`
	Reps      int                `json:"repetitions"`
	Clients   int                `json:"clients"`
	Ops       map[string]int     `json:"ops_per_repetition"`
	EndToEnd  map[string]sample  `json:"end_to_end"`
	Latency   map[string]sample  `json:"latency_percentiles"` // printed, not bounded: see README
	PerLayer  map[string]sample  `json:"per_layer,omitempty"`
	SelfTime  map[string]float64 `json:"self_time_s,omitempty"` // traced runs: self time by span name
	Spans     string             `json:"spans,omitempty"`
}

// span of wall time, for the calibrator.
type interval struct{ Start, End time.Time }

func (i interval) seconds() float64 { return i.End.Sub(i.Start).Seconds() }

// cycle is what one set-up / recovery cycle measured.
type cycle struct {
	Setup, Recovery interval
	Col             *collector
	FS              fsCounts
}

// rep is what one measured repetition measured.
type rep struct {
	Wall    interval
	AllocMB float64
	Traced  bool
	Col     *collector
	FS      fsCounts
}

// run holds the state of one workload run.
type run struct {
	cfg   runConfig
	in    *inputs
	w     *mix
	t     *tally
	model *model
	rec   *recorder
	cal   *calibrator

	base   string  // the run's temp directory
	sys    *system // the measured system; cycles[0] is its set-up and its recovery
	cycles []cycle
	reps   []rep

	liveHeapMB   float64
	repLookups   int64  // cache lookups during the measured repetitions
	counts       counts // the measured system's counters when the repetitions ended
	probe        *collector
	duringScanMS []float64
	staged       *staged
}

func heapAllocMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

func totalAllocMB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.TotalAlloc) / 1e6
}

// open opens the store in dir; rec is nil for every system but the
// measured one.
func (r *run) open(dir string, fs *countFS, rec *recorder) (*system, error) {
	return openSystem(sysConfig{Dir: dir, KB: r.w.KB, CompactEvery: r.w.CompactEvery, FS: fs, Rec: rec})
}

// setUp opens a fresh store, ingests the resident set through the HTTP
// handlers — the first plans through /api/plans:batch, the rest one by one
// through POST /api/plans — and sends the workload's warm-up pass. m is the
// acknowledged-plan model of the new system.
func (r *run) setUp(dir string, m *model, rec *recorder) (*system, *client, cycle, error) {
	z := r.cfg.Sizes
	fs := newCountFS()
	r.cal.sample()
	start := time.Now()
	sys, err := r.open(dir, fs, rec)
	if err != nil {
		return nil, nil, cycle{}, err
	}
	c := newClient(sys, r.t, m)
	rest := r.in.Resident
	for i := 0; i < z.SetupBatches && len(rest) >= z.SetupBatchSize; i++ {
		c.batch(rest[:z.SetupBatchSize])
		rest = rest[z.SetupBatchSize:]
	}
	for _, p := range rest {
		c.upload(p)
	}
	r.w.warm(c)
	cy := cycle{Setup: interval{start, time.Now()}, Col: c.col, FS: fs.snapshot()}
	r.cal.sample()
	c.col = &collector{}
	return sys, c, cy, nil
}

// restart closes the store, opens the directory it left behind, and
// checks what came back: every acknowledged plan and no deleted one, the
// generator's ground truth, and a kb/run body identical to the one served
// before the close. It returns the interval the reopening took.
func (r *run) restart(sys *system, c *client, rec *recorder) (interval, error) {
	before := c.checkTruth(r.in)
	r.checkPlans(c, "before close")
	if err := sys.close(); err != nil {
		return interval{}, err
	}
	r.cal.sample()
	start := time.Now()
	again, err := r.open(sys.cfg.Dir, newCountFS(), rec)
	if err != nil {
		return interval{}, err
	}
	recovery := interval{start, time.Now()}
	r.cal.sample()
	c2 := newClient(again, r.t, c.model)
	r.checkPlans(c2, "after reopen")
	after := c2.checkTruth(r.in)
	r.t.attempt(before == after, "kb/run after reopen differs from before close: crc %08x, was %08x", after, before)
	return recovery, again.close()
}

// sideCycle takes one more sample of set-up and recovery beside the
// measured system: a fresh store is set up the same way, closed, reopened,
// verified and thrown away. One follows every repetition, so the samples of
// every metric are spread over the whole run and see the same machine.
func (r *run) sideCycle(i int) error {
	dir := filepath.Join(r.base, fmt.Sprintf("side-%d", i))
	sys, c, cy, err := r.setUp(dir, newModel(), nil)
	if err != nil {
		return err
	}
	if cy.Recovery, err = r.restart(sys, c, nil); err != nil {
		return err
	}
	r.cycles = append(r.cycles, cy)
	return os.RemoveAll(dir)
}

// checkPlans compares GET /api/plans with the plans the clients hold an
// acknowledgement for.
func (r *run) checkPlans(c *client, when string) {
	got, want := c.planIDs(), c.model.snapshot()
	missing, extra := 0, 0
	for id := range want {
		if !got[id] {
			missing++
		}
	}
	for id := range got {
		if !want[id] {
			extra++
		}
	}
	r.t.attempt(missing == 0 && extra == 0, "%s: %d acknowledged plans missing, %d deleted plans present", when, missing, extra)
}

// repeat runs one repetition and, unless discard is set, files it.
func (r *run) repeat(cs []*client, traced, discard bool) {
	if r.rec != nil {
		r.rec.on.Store(traced)
	}
	for _, c := range cs {
		c.col = &collector{}
	}
	fs0 := r.sys.cfg.FS.snapshot()
	r.cal.sample() // collects first, so GC phase does not alias with repetition boundaries
	alloc0 := totalAllocMB()
	start := time.Now()
	r.w.rep(cs)
	wall := interval{start, time.Now()}
	alloc := totalAllocMB() - alloc0
	r.cal.sample()
	col := &collector{}
	for _, c := range cs {
		col.merge(c.col)
		c.col = &collector{}
	}
	if r.w.after != nil {
		r.w.after(cs[0])
		cs[0].col = &collector{}
	}
	if r.rec != nil {
		r.rec.on.Store(true)
	}
	if !discard {
		r.reps = append(r.reps, rep{Wall: wall, AllocMB: alloc, Traced: traced, Col: col, FS: r.sys.cfg.FS.snapshot().sub(fs0)})
	}
}

func runWorkload(cfg runConfig) (*result, error) {
	in, err := genInputs(cfg.Seed, cfg.Sizes)
	if err != nil {
		return nil, err
	}
	w, err := newMix(cfg.Workload, in, cfg.Sizes)
	if err != nil {
		return nil, err
	}
	r := &run{cfg: cfg, in: in, w: w, t: &tally{}, model: newModel(), cal: newCalibrator()}
	if cfg.Trace {
		r.rec = newRecorder() // only the measured system is given it
	}
	if r.base, err = os.MkdirTemp(cfg.TmpDir, "optimatch-bench-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.base)
	heap0 := heapAllocMB()

	if r.rec != nil {
		r.rec.on.Store(true)
	}
	sys, c, cy, err := r.setUp(filepath.Join(r.base, "store"), r.model, r.rec)
	if err != nil {
		return nil, err
	}
	r.sys, r.cycles = sys, []cycle{cy}
	r.liveHeapMB = heapAllocMB() - heap0
	cs := []*client{c}
	for len(cs) < w.Clients {
		cs = append(cs, newClient(r.sys, r.t, r.model))
	}

	r.repeat(cs, false, true) // warm-up, discarded
	lookups0 := lookups(r.sys)
	start := time.Now()
	for i := 0; ; i++ {
		// A traced run does a fixed number of repetitions, alternately
		// untraced and traced, so that its counts repeat exactly from run to
		// run; the throughput ratio of the two kinds is the tracing overhead.
		if cfg.Trace && i >= cfg.Sizes.TraceReps {
			break
		}
		// An untraced run repeats until another iteration of the mean length
		// so far would end after its time.
		if elapsed := time.Since(start).Seconds(); !cfg.Trace && i >= cfg.MinReps && elapsed+elapsed/float64(i) > cfg.Seconds {
			break
		}
		r.repeat(cs, cfg.Trace && i%2 == 1, false)
		if err := r.sideCycle(i); err != nil {
			return nil, err
		}
	}
	r.repLookups = lookups(r.sys) - lookups0
	r.counts = takeCounts(r.sys, r.model)
	if w.NoCache {
		r.t.attempt(r.repLookups == 0, "%d cache lookups during no-cache repetitions", r.repLookups)
	}

	if cfg.Trace {
		r.probes(cs[0])
		if r.staged, err = runStaged(r); err != nil {
			return nil, err
		}
	}
	if r.cycles[0].Recovery, err = r.restart(r.sys, cs[0], r.rec); err != nil {
		return nil, err
	}

	res := &result{
		Workload: w.Name, Reps: len(r.reps), Clients: w.Clients, Ops: w.Ops,
		Attempted: r.t.attempted, Failed: r.t.failed, Failures: r.t.reasons,
		Correct:   r.t.failed == 0,
		FailRatio: ratio(float64(r.t.failed), float64(r.t.attempted)),
	}
	res.EndToEnd, res.Latency = r.endToEnd()
	if cfg.Trace {
		spans := r.rec.finish()
		res.PerLayer = r.perLayer(spans, res.Latency)
		res.SelfTime = selfByName(spans)
		if cfg.SpansPath != "" {
			if err := writeSpans(cfg.SpansPath, spans); err != nil {
				return nil, err
			}
			res.Spans = cfg.SpansPath
		}
	}
	return res, nil
}

func lookups(s *system) int64 {
	st := s.cache.Stats()
	return st.Hits + st.Misses + st.Collapsed
}

// writeSide picks where a write-side metric is taken: over the measured
// repetitions when they contain such operations, otherwise over the set-up
// cycles, which every workload runs.
func writeSide(reps, cycles [][]float64) [][]float64 {
	for _, r := range reps {
		if len(r) > 0 {
			return reps
		}
	}
	return cycles
}

func flatten(groups [][]float64) []float64 {
	var out []float64
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

// endToEnd computes the end-to-end metrics — medians over repetitions or
// set-up cycles, every time and rate in calibrated time (see calib.go) —
// and the latency percentiles over the pooled samples of all repetitions,
// which are raw wall time, printed, and carry no bound.
func (r *run) endToEnd() (bounded, percentiles map[string]sample) {
	var setup, recovery, speed, allocPerOp, readMean []float64
	var reads, repRates, cycRates, repAmp, cycAmp [][]float64
	amp := func(fs fsCounts, col *collector) []float64 {
		if col.ExplainBytes == 0 {
			return nil
		}
		return []float64{float64(fs.WriteBytes) / float64(col.ExplainBytes)}
	}
	for _, c := range r.cycles {
		slow := r.cal.slowdown(c.Setup.Start, c.Setup.End)
		setup = append(setup, c.Setup.seconds()/slow)
		recovery = append(recovery, c.Recovery.seconds()/r.cal.slowdown(c.Recovery.Start, c.Recovery.End))
		cycRates = append(cycRates, scale(c.Col.batchRate(), slow))
		cycAmp = append(cycAmp, amp(c.FS, c.Col))
	}
	for _, p := range r.reps {
		if p.Traced {
			continue
		}
		slow := r.cal.slowdown(p.Wall.Start, p.Wall.End)
		speed = append(speed, float64(p.Col.OK)/p.Wall.seconds()*slow)
		allocPerOp = append(allocPerOp, ratio(p.AllocMB, float64(p.Col.OK)))
		readMean = append(readMean, mean(p.Col.Reads)/slow)
		reads = append(reads, p.Col.Reads)
		repRates = append(repRates, scale(p.Col.batchRate(), slow))
		repAmp = append(repAmp, amp(p.FS, p.Col))
	}
	bounded = map[string]sample{
		"setup_s":         medianOf("s", setup),
		"ops_per_s":       medianOf("1/s", speed),
		"read_mean_ms":    medianOf("ms", readMean),
		"plans_per_s":     medianOf("1/s", flatten(writeSide(repRates, cycRates))),
		"recovery_s":      medianOf("s", recovery),
		"alloc_mb_per_op": medianOf("MB", allocPerOp),
		"live_heap_mb":    medianOf("MB", []float64{r.liveHeapMB}),
		"write_amp":       medianOf("ratio", flatten(writeSide(repAmp, cycAmp))),
	}
	rawUploads := writeSide(collect(r.reps, func(p rep) []float64 { return p.Col.Uploads }),
		collect(r.cycles, func(c cycle) []float64 { return c.Col.Uploads }))
	percentiles = map[string]sample{
		"read_p50_ms":     pooledQuantile("ms", 0.50, reads),
		"read_p95_ms":     pooledQuantile("ms", 0.95, reads),
		"upload_p50_ms":   pooledQuantile("ms", 0.50, rawUploads),
		"upload_p95_ms":   pooledQuantile("ms", 0.95, rawUploads),
		"kernel_slowdown": medianOf("ratio", r.cal.slow),
	}
	return bounded, percentiles
}

// collect maps f over xs.
func collect[T any](xs []T, f func(T) []float64) [][]float64 {
	out := make([][]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}
