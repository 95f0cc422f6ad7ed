// Sharded plan storage for the engine. The single-mutex plan table becomes
// N independent shards (fnv64a of the plan ID picks one), each with its own
// lock, its own union prefilter vocabulary and its own generation counter,
// so concurrent ingest on different shards never contends and a scan can
// discard a whole shard with one vocabulary probe. Scans snapshot every
// shard (locking one at a time) and merge the copies by global load
// sequence, so the report order — and therefore every rendered byte — is
// identical to the seed's single-table order regardless of the shard count.
//
// Every mutation bumps the engine's global generation counter while still
// holding the lock of the shard (or, for a batch, of all shards) it mutated,
// so a caller that reads Generation() before and after a scan and sees equal
// values knows no mutation's critical section overlapped the scan's copy of
// the shards (server.serveCached is that caller).
package core

import (
	"sort"
	"sync"

	"optimatch/internal/rdf"
	"optimatch/internal/sparql"
	"optimatch/internal/transform"
)

// planShard is one independent slice of the engine's plan repository.
type planShard struct {
	mu    sync.RWMutex
	plans []shardPlan                  // ascending global load sequence
	byID  map[string]*transform.Result //
	vocab map[rdf.Term]int             // union refcount over member graph vocabularies
	gen   uint64                       // shard-local mutation counter (under mu)
}

// shardPlan pairs a transformed plan with its global load sequence number,
// the merge key that reconstructs single-table load order across shards.
type shardPlan struct {
	seq uint64
	res *transform.Result
}

func newShard() *planShard {
	return &planShard{
		byID:  make(map[string]*transform.Result),
		vocab: make(map[rdf.Term]int),
	}
}

// fnv64a hashes a plan ID for shard routing (FNV-1a, inlined so ingest pays
// no hasher allocation).
func fnv64a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

func (e *Engine) shardFor(id string) *planShard {
	return e.shards[fnv64a(id)%uint64(len(e.shards))]
}

// addVocabLocked folds the graph's full term dictionary into the shard's
// union vocabulary. Caller holds sh.mu.
func (sh *planShard) addVocabLocked(g *rdf.Graph) {
	d := g.Dict()
	for id := rdf.ID(1); int(id) <= d.Len(); id++ {
		sh.vocab[d.Term(id)]++
	}
}

// delVocabLocked removes one graph's contribution. Caller holds sh.mu.
func (sh *planShard) delVocabLocked(g *rdf.Graph) {
	d := g.Dict()
	for id := rdf.ID(1); int(id) <= d.Len(); id++ {
		t := d.Term(id)
		if n := sh.vocab[t]; n <= 1 {
			delete(sh.vocab, t)
		} else {
			sh.vocab[t] = n - 1
		}
	}
}

// hasRequiredLocked reports whether every required constant of the analyzed
// query appears somewhere in the shard (the union vocabulary). When false,
// no member plan can match: the union misses a term exactly when every
// member's dictionary misses it, so the per-plan prefilter would have
// discarded each member anyway. Caller holds sh.mu (read side suffices).
func (sh *planShard) hasRequiredLocked(a *sparql.Analysis) bool {
	for _, t := range a.Required {
		if sh.vocab[t] == 0 {
			return false
		}
	}
	return true
}

// insertLocked registers a transformed plan under the next load sequence.
// Caller holds sh.mu and has already checked for duplicates. Transform
// freezes its graph outside the lock; the Freeze here is a no-op for those
// and keeps a hand-built Result from entering the repository mutable.
func (e *Engine) insertLocked(sh *planShard, r *transform.Result) {
	r.Graph.Freeze()
	sh.plans = append(sh.plans, shardPlan{seq: e.nextSeq.Add(1), res: r})
	sh.byID[r.Plan.ID] = r
	sh.addVocabLocked(r.Graph)
	sh.gen++
}

// removeLocked unregisters a plan. Caller holds sh.mu; the plan must be
// present.
func (sh *planShard) removeLocked(id string) {
	r := sh.byID[id]
	delete(sh.byID, id)
	for i := range sh.plans {
		if sh.plans[i].res == r {
			sh.plans = append(sh.plans[:i:i], sh.plans[i+1:]...)
			break
		}
	}
	sh.delVocabLocked(r.Graph)
	sh.gen++
}

// lockAll / unlockAll take every shard's write lock in index order — the one
// fixed order every multi-shard mutation uses, so batches cannot deadlock
// against each other (scans only ever hold one shard lock at a time).
func (e *Engine) lockAll() {
	for _, sh := range e.shards {
		sh.mu.Lock()
	}
}

func (e *Engine) unlockAll() {
	for _, sh := range e.shards {
		sh.mu.Unlock()
	}
}

// scanSet is one scan's point-in-time view of the sharded repository: the
// merged plan list in global load order, each plan's home shard, and the
// per-(shard, query) verdicts of the shard-level vocabulary prefilter.
type scanSet struct {
	plans []*transform.Result
	shard []int    // aligned with plans: index into pass
	pass  [][]bool // pass[shardIdx][queryIdx]: shard may match query
}

// mayMatchAt runs the two-level prefilter for one (plan, query) pair: the
// shard-level verdict first (already counted at snapshot time), then the
// ordinary per-plan vocabulary probe.
func (e *Engine) mayMatchAt(ss *scanSet, i, qi int, a *sparql.Analysis) bool {
	if !ss.pass[ss.shard[i]][qi] {
		return false
	}
	return e.mayMatch(a, ss.plans[i])
}

// snapshot copies every shard's plan list, locking one shard at a time, and
// merges the copies into global load order. For each analyzed query it also
// probes the shard's union vocabulary under the same lock: a failed probe
// skips the whole shard wholesale, and the prefilter counters advance by
// the shard's plan count so PrefilterStats stays identical to probing every
// member individually (each member must miss the same term).
func (e *Engine) snapshot(queries []*sparql.Analysis) *scanSet {
	type entry struct {
		seq   uint64
		shard int
		res   *transform.Result
	}
	var entries []entry
	ss := &scanSet{pass: make([][]bool, len(e.shards))}
	for si, sh := range e.shards {
		verdicts := make([]bool, len(queries))
		sh.mu.RLock()
		for qi, a := range queries {
			if !e.prefilter || sh.hasRequiredLocked(a) {
				verdicts[qi] = true
			} else if n := len(sh.plans); n > 0 {
				e.pfProbed.Add(int64(n))
				e.pfSkipped.Add(int64(n))
				e.shardSkips.Add(1)
			}
		}
		for _, sp := range sh.plans {
			entries = append(entries, entry{seq: sp.seq, shard: si, res: sp.res})
		}
		sh.mu.RUnlock()
		ss.pass[si] = verdicts
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].seq < entries[j].seq })
	ss.plans = make([]*transform.Result, len(entries))
	ss.shard = make([]int, len(entries))
	for i, en := range entries {
		ss.plans[i] = en.res
		ss.shard[i] = en.shard
	}
	return ss
}

// ShardStat is the point-in-time state of one shard.
type ShardStat struct {
	Plans      int    `json:"plans"`
	Generation uint64 `json:"generation"` // shard-local mutation count
	VocabTerms int    `json:"vocabTerms"` // distinct terms in the union vocabulary
}

// NumShards reports the engine's shard count (fixed at construction).
func (e *Engine) NumShards() int { return len(e.shards) }

// ShardStats returns each shard's plan count, mutation counter and union
// vocabulary size, in shard order.
func (e *Engine) ShardStats() []ShardStat {
	out := make([]ShardStat, len(e.shards))
	for i, sh := range e.shards {
		sh.mu.RLock()
		out[i] = ShardStat{Plans: len(sh.plans), Generation: sh.gen, VocabTerms: len(sh.vocab)}
		sh.mu.RUnlock()
	}
	return out
}
