// Scan plumbing shared by FindSPARQL and RunKB: the bounded worker pool that
// fans one scan out over the plan list, and the parse-once query cache.
package core

import (
	"context"
	"sync"

	"optimatch/internal/cache"
	"optimatch/internal/sparql"
	"optimatch/internal/transform"
)

// forEachPlan runs fn over the plans on the engine's bounded worker pool.
// Unlike a goroutine-per-plan fan-out, a workload of thousands of plans
// costs a fixed number of goroutines pulling indexes from a channel.
//
// Cancellation semantics: once ctx is cancelled no further plan is
// dispatched; tasks already dequeued finish on their own (each one's SPARQL
// evaluation observes the same ctx and returns within a bounded number of
// iterations), the pool drains completely — no goroutine outlives this call
// — and ctx.Err() is returned.
func (e *Engine) forEachPlan(ctx context.Context, plans []*transform.Result, fn func(i int, r *transform.Result)) error {
	workers := e.workers
	if workers > len(plans) {
		workers = len(plans)
	}
	if e.instr.Pool != nil {
		e.instr.Pool(max(workers, 1), len(plans))
	}
	done := ctx.Done()
	if workers <= 1 {
		for i, r := range plans {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i, r)
		}
		return nil
	}
	idx := make(chan int, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i, plans[i])
			}
		}()
	}
	var err error
dispatch:
	for i := range plans {
		select {
		case idx <- i:
		case <-done:
			err = ctx.Err()
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
	if err != nil {
		return err
	}
	return ctx.Err()
}

// maxCachedQueries bounds the engine's parse-once query cache; the least
// recently used entry is evicted beyond it. Workloads re-run a small set of
// pattern and knowledge-base queries, so the bound exists to cap an
// adversarial stream of distinct queries, not to tune a working set.
const maxCachedQueries = 256

// queryCache memoizes parsed queries by their text so repeated requests —
// an optimatchd client re-running a search, or every RunKB call re-scanning
// the same knowledge base — skip the parser. Parsed queries are immutable
// (their static analysis is pre-computed) and safe to share across
// concurrent evaluations. Entries are charged at their query-text length,
// so bytes() approximates the cache's resident key weight.
type queryCache struct {
	mu  sync.Mutex
	lru *cache.LRU
}

// get reports whether the query was served from the cache (a parse failure
// counts as a miss: the parser ran).
func (c *queryCache) get(text string) (q *sparql.Query, hit bool, err error) {
	c.mu.Lock()
	if c.lru != nil {
		if v, ok := c.lru.Get(text); ok {
			c.mu.Unlock()
			return v.(*sparql.Query), true, nil
		}
	}
	c.mu.Unlock()
	q, err = sparql.Parse(text)
	if err != nil {
		return nil, false, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lru == nil {
		c.lru = cache.NewLRU(maxCachedQueries, 0)
	}
	c.lru.Add(text, q, int64(len(text)))
	return q, false, nil
}

// len reports how many parsed queries are cached.
func (c *queryCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lru == nil {
		return 0
	}
	return c.lru.Len()
}

// bytes reports the total query-text bytes held by cached entries.
func (c *queryCache) bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lru == nil {
		return 0
	}
	return c.lru.Bytes()
}
