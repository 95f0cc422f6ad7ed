// Package cache is the serving stack's result cache: a byte-bounded LRU of
// rendered response bytes keyed by (canonical request identity, data
// generation) with singleflight collapsing of concurrent identical misses.
// The paper's workload is read-heavy and repetitive — the same
// expert-pattern scans and problem-pattern searches are re-issued
// continuously against plan corpora that change rarely — so a correct cache
// in front of the parse/specialize/match pipeline is the single biggest
// latency lever. internal/server is its one producer.
//
// Correctness comes from generation keying, not invalidation walks: every
// mutable data source (the engine's plan set, a knowledge base's entry
// list) carries a monotonic generation counter, the counter is part of the
// cache key, and a mutation therefore orphans every prior entry instead of
// racing an explicit purge. Orphans age out under the byte budget.
//
// The package is dependency-free (stdlib only).
package cache

import (
	"context"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
)

// entryOverhead is the accounting charge, per entry, for the LRU list
// element, map slot and entry header — so a budget of N bytes bounds real
// memory near N even for many small entries.
const entryOverhead = 128

// Config tunes a Cache.
type Config struct {
	// MaxBytes is the budget for resident entries (key + value capacity +
	// fixed per-entry overhead). Required; New panics on MaxBytes <= 0.
	MaxBytes int64
}

// Outcome classifies how one Do call was served.
type Outcome int

const (
	// Bypass: no cache configured, or the context opted out (WithBypass).
	Bypass Outcome = iota
	// Hit: served from a resident entry.
	Hit
	// Miss: this call executed the function and (if admitted) stored it.
	Miss
	// Collapsed: this call waited on another call's in-flight execution.
	Collapsed
)

// String returns the X-Cache header form of the outcome.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Miss:
		return "miss"
	case Collapsed:
		return "collapsed"
	default:
		return "bypass"
	}
}

// Result is what a Do function returns: the rendered bytes (charged at
// their capacity, which is what an entry keeps resident: a body grown by
// bytes.Buffer can hold up to twice its length) and a NoStore escape hatch for
// results that are valid to return but not to cache — e.g. a response
// rendered while the data generation baked into the key moved on.
type Result struct {
	Body    []byte
	NoStore bool
}

// flight is one in-progress execution that concurrent identical requests
// collapse onto. waiters is guarded by the cache mutex; body/err/panicked are
// written before done is closed and read only after it.
type flight struct {
	done     chan struct{}
	body     []byte
	err      error
	panicked string // fn's panic with its stack; empty if fn returned
	waiters  int
	cancel   context.CancelFunc
}

// Cache is a byte-bounded, generation-keyed result cache with singleflight
// collapsing. All methods are safe for concurrent use, and every method is
// nil-receiver safe (a nil *Cache behaves as "no cache": Do executes the
// function directly with Outcome Bypass), so call sites need no nil checks.
type Cache struct {
	cfg Config

	mu      sync.Mutex
	lru     *lru
	flights map[string]*flight

	hits      atomic.Int64
	misses    atomic.Int64
	collapsed atomic.Int64
	evictions atomic.Int64
	rejected  atomic.Int64
}

// New returns an empty cache. It panics if cfg.MaxBytes <= 0 — an
// unbounded result cache is a memory leak, and "disabled" is spelled with
// a nil *Cache.
func New(cfg Config) *Cache {
	if cfg.MaxBytes <= 0 {
		panic("cache: Config.MaxBytes must be positive (use a nil *Cache to disable caching)")
	}
	return &Cache{cfg: cfg, lru: newLRU(cfg.MaxBytes), flights: make(map[string]*flight)}
}

// Key joins the parts of a cache key with NUL separators, which cannot
// occur inside query text, plan IDs or generation tokens, so distinct part
// lists never collide.
func Key(parts ...string) string { return strings.Join(parts, "\x00") }

// bypassKey marks a context that opts out of caching.
type bypassKey struct{}

// WithBypass returns a context under which Do executes directly: no
// lookup, no store, no collapsing. The per-request ablation switch — the
// server maps Cache-Control: no-cache onto it, and the equivalence tests
// use it to re-execute uncached.
func WithBypass(ctx context.Context) context.Context {
	return context.WithValue(ctx, bypassKey{}, true)
}

// Bypassed reports whether ctx was marked by WithBypass.
func Bypassed(ctx context.Context) bool {
	on, _ := ctx.Value(bypassKey{}).(bool)
	return on
}

// Do returns the cached body for key, or executes fn exactly once across
// all concurrent callers with the same key and caches the result.
//
// Execution runs on its own goroutine under a context that is cancelled
// only when every caller waiting on it has gone away, so one caller's
// deadline or disconnect never poisons the result for the others; each
// waiter is individually released by its own ctx. Results are stored only
// when fn succeeded (a cancelled or deadline-exceeded execution returns a
// context error and is never cached), did not set NoStore, and fits the
// byte budget on its own. A function that panics stores nothing, and every
// caller waiting on it panics in turn, on its own goroutine.
func (c *Cache) Do(ctx context.Context, key string, fn func(context.Context) (Result, error)) ([]byte, Outcome, error) {
	if c == nil || Bypassed(ctx) {
		res, err := fn(ctx)
		return res.Body, Bypass, err
	}
	c.mu.Lock()
	if b, ok := c.lru.get(key); ok {
		c.mu.Unlock()
		c.hits.Add(1)
		return b, Hit, nil
	}
	if f, ok := c.flights[key]; ok {
		f.waiters++
		c.mu.Unlock()
		c.collapsed.Add(1)
		return c.wait(ctx, key, f, Collapsed)
	}
	c.misses.Add(1)
	fctx, cancel := context.WithCancel(context.Background())
	f := &flight{done: make(chan struct{}), waiters: 1, cancel: cancel}
	c.flights[key] = f
	c.mu.Unlock()
	go c.run(key, f, fctx, fn)
	return c.wait(ctx, key, f, Miss)
}

// run executes one flight and publishes its result. It recovers a panic of
// fn, which on this goroutine would end the process, and hands it to the
// waiters.
func (c *Cache) run(key string, f *flight, fctx context.Context, fn func(context.Context) (Result, error)) {
	defer f.cancel()
	var res Result
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				f.panicked = fmt.Sprintf("%v\n\n%s", r, debug.Stack())
			}
		}()
		res, err = fn(fctx)
	}()

	c.mu.Lock()
	defer c.mu.Unlock()
	// An abandoned flight was already unlisted by its last waiter, and the
	// slot may by now hold a newcomer's flight: only clear our own.
	if c.flights[key] == f {
		delete(c.flights, key)
	}
	f.body, f.err = res.Body, err
	if err == nil && f.panicked == "" {
		// An entry that alone exceeds the budget is rejected outright
		// instead of flushing the whole cache on its way through the LRU.
		size := int64(cap(res.Body)) + int64(len(key)) + entryOverhead
		if !res.NoStore && size <= c.cfg.MaxBytes {
			c.evictions.Add(int64(c.lru.add(key, res.Body, size)))
		} else {
			c.rejected.Add(1)
		}
	}
	close(f.done)
}

// wait blocks until the flight completes or ctx is done. A waiter that
// gives up decrements the flight's refcount and, as the last one out,
// cancels the execution context and unlists the flight — cooperative
// evaluators then stop within a bounded number of iterations, the (failed)
// result is not cached, and a caller arriving while the evaluator winds
// down starts its own flight instead of inheriting a cancellation it never
// asked for.
func (c *Cache) wait(ctx context.Context, key string, f *flight, oc Outcome) ([]byte, Outcome, error) {
	select {
	case <-f.done:
		return f.result(oc)
	case <-ctx.Done():
		c.mu.Lock()
		select {
		case <-f.done:
			// Completed between ctx firing and taking the lock: the result
			// is real, deliver it.
			c.mu.Unlock()
			return f.result(oc)
		default:
		}
		f.waiters--
		if f.waiters == 0 {
			// No one can have joined since (joining needs the lock), and
			// run has not published yet, so the slot still holds f.
			f.cancel()
			delete(c.flights, key)
		}
		c.mu.Unlock()
		return nil, oc, ctx.Err()
	}
}

// result delivers a completed flight to one waiter, re-raising fn's panic.
func (f *flight) result(oc Outcome) ([]byte, Outcome, error) {
	if f.panicked != "" {
		panic(f.panicked)
	}
	return f.body, oc, f.err
}

// Stats is a point-in-time snapshot of the cache counters, exported as
// optimatch_cache_* in /metrics.
type Stats struct {
	// Hits counts Do calls served from a resident entry.
	Hits int64
	// Misses counts Do calls that executed (and tried to store) the result.
	Misses int64
	// Collapsed counts Do calls that piggybacked on a concurrent miss.
	Collapsed int64
	// Evictions counts entries displaced by byte-budget pressure.
	Evictions int64
	// Rejected counts successful executions not stored: NoStore results,
	// or a size over the whole budget.
	Rejected int64
	// Bytes is the charged size of resident entries; Entries their count.
	Bytes   int64
	Entries int
	// HitRatio is hits over all non-bypass lookups (hits+misses+collapsed);
	// 0 until the first lookup.
	HitRatio float64
}

// Stats returns a snapshot of the counters. Safe on a nil cache (all
// zeros).
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	s := Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Collapsed: c.collapsed.Load(),
		Evictions: c.evictions.Load(),
		Rejected:  c.rejected.Load(),
	}
	c.mu.Lock()
	s.Bytes = c.lru.bytes
	s.Entries = len(c.lru.items)
	c.mu.Unlock()
	if total := s.Hits + s.Misses + s.Collapsed; total > 0 {
		s.HitRatio = float64(s.Hits) / float64(total)
	}
	return s
}
