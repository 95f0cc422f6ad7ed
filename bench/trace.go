package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"optimatch/internal/core"
	"optimatch/internal/store"
)

// Span names. The prefix is the layer the time belongs to.
const (
	spanKBScan     = "core.kb_scan"
	spanSearch     = "core.search"
	spanPlanMatch  = "core.plan_match"
	spanWALWrite   = "store.wal_write"
	spanWALFsync   = "store.wal_fsync"
	spanCompaction = "store.compaction"
	spanRecovery   = "store.recovery"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the recorder was created. Parent is the index of the
// span that caused this one (-1 for a root); Req groups the spans of one
// HTTP request (0 for work outside any request).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps the spans of a traced run in memory and the counts taken
// at the same boundaries. Hooks fire when an interval ends, so a hook span
// is recorded before the span that encloses it; parents are resolved by
// containment in finish. While off, hooks only forward to the production
// instrumentation, which is what an untraced run does.
type recorder struct {
	t0 time.Time
	on atomic.Bool

	mu    sync.Mutex
	spans []span
	reqs  int

	probes, probeSkips, probeNanos atomic.Int64
	poolFanouts, poolTasks         atomic.Int64
	poolWorkers                    atomic.Int64
	recoveredRecords               atomic.Int64
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// ended records a span that finished just now and lasted d.
func (r *recorder) ended(name string, d time.Duration) {
	if !r.on.Load() {
		return
	}
	end := r.now()
	r.add(span{Name: name, Start: end - int64(d), End: end, Parent: -1})
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// request records the root span of one HTTP request and returns its id.
func (r *recorder) request(name string, start time.Time, d time.Duration) {
	if !r.on.Load() {
		return
	}
	s := int64(start.Sub(r.t0))
	r.mu.Lock()
	r.reqs++
	r.spans = append(r.spans, span{Name: name, Start: s, End: s + int64(d), Parent: -1, Req: r.reqs})
	r.mu.Unlock()
}

// engineHooks wraps the production engine instrumentation: every hook
// forwards to next, then records.
func (r *recorder) engineHooks(next core.Instrumentation) core.Instrumentation {
	return core.Instrumentation{
		PrefilterProbe: func(d time.Duration, skipped bool) {
			next.PrefilterProbe(d, skipped)
			if r.on.Load() {
				r.probes.Add(1)
				r.probeNanos.Add(int64(d))
				if skipped {
					r.probeSkips.Add(1)
				}
			}
		},
		PlanMatch: func(d time.Duration) {
			next.PlanMatch(d)
			r.ended(spanPlanMatch, d)
		},
		KBScan: func(d time.Duration, plans, entries int) {
			next.KBScan(d, plans, entries)
			r.ended(spanKBScan, d)
		},
		Search: func(d time.Duration, plans int) {
			next.Search(d, plans)
			r.ended(spanSearch, d)
		},
		Pool: func(workers, tasks int) {
			next.Pool(workers, tasks)
			if r.on.Load() {
				r.poolFanouts.Add(1)
				r.poolTasks.Add(int64(tasks))
				r.poolWorkers.Add(int64(workers))
			}
		},
	}
}

// storeHooks wraps the production store instrumentation the same way.
func (r *recorder) storeHooks(next store.Instrumentation) store.Instrumentation {
	return store.Instrumentation{
		WALAppend: func(write, sync time.Duration, bytes int) {
			next.WALAppend(write, sync, bytes)
			if !r.on.Load() {
				return
			}
			end := r.now()
			r.add(span{Name: spanWALWrite, Start: end - int64(sync) - int64(write), End: end - int64(sync), Parent: -1})
			r.add(span{Name: spanWALFsync, Start: end - int64(sync), End: end, Parent: -1})
		},
		Compaction: func(d time.Duration, ok bool) {
			next.Compaction(d, ok)
			r.ended(spanCompaction, d)
		},
		Recovery: func(d time.Duration, records, truncations int64) {
			next.Recovery(d, records, truncations)
			if r.on.Load() {
				r.recoveredRecords.Add(records)
			}
			r.ended(spanRecovery, d)
		},
	}
}

// level orders spans by how much they can enclose: a request encloses a
// scan or a compaction, which enclose evaluations and WAL writes.
func level(name string) int {
	switch name {
	case spanPlanMatch, spanWALWrite, spanWALFsync:
		return 2
	case spanKBScan, spanSearch, spanCompaction, spanRecovery:
		return 1
	default:
		return 0
	}
}

// finish resolves the parent of every hook span by containment — the
// tightest span of a lower level whose interval covers it — and hands the
// request id down. With one client the assignment is exact; with two, a
// span covered by both clients' requests goes to the later-started one.
func (r *recorder) finish() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	spans := r.spans
	byLevel := [3][]int{}
	for i, s := range spans {
		l := level(s.Name)
		byLevel[l] = append(byLevel[l], i)
	}
	for l := range byLevel {
		idx := byLevel[l]
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].Start < spans[idx[b]].Start })
	}
	// enclosing returns the latest-started candidate that covers s. Hook
	// timestamps are taken after the interval they describe, so covers
	// allows the few microseconds between the two clock reads.
	const slack = int64(50 * time.Microsecond)
	enclosing := func(cands []int, s span) int {
		i := sort.Search(len(cands), func(i int) bool { return spans[cands[i]].Start > s.Start+slack })
		// At most a handful of spans of one level are open at once (clients
		// plus workers), so a short backward scan finds the cover.
		for j := i - 1; j >= 0 && j >= i-16; j-- {
			c := spans[cands[j]]
			if c.Start <= s.Start+slack && c.End+slack >= s.End {
				return cands[j]
			}
		}
		return -1
	}
	for l := 1; l <= 2; l++ {
		for _, i := range byLevel[l] {
			p := -1
			for up := l - 1; up >= 0 && p < 0; up-- {
				p = enclosing(byLevel[up], spans[i])
			}
			spans[i].Parent = p
		}
	}
	for l := 1; l <= 2; l++ {
		for _, i := range byLevel[l] {
			if p := spans[i].Parent; p >= 0 {
				spans[i].Req = spans[p].Req
			}
		}
	}
	return spans
}

// selfTimes returns each span's duration minus the part of its interval
// that its child spans cover. Children that ran in parallel (two workers
// evaluating under one scan) are merged before subtracting, so covered
// time is never counted twice.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// selfByName sums self time per span name, in seconds.
func selfByName(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for i, ns := range selfTimes(spans) {
		out[spans[i].Name] += float64(ns) / 1e9
	}
	return out
}

// durations returns the durations of the spans called name, in the unit
// given as nanoseconds per unit (1e3 for µs, 1e6 for ms).
func durations(spans []span, name string, per float64) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/per)
		}
	}
	return out
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
