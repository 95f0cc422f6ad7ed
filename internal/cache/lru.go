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
// The package is dependency-free (stdlib only) and imported by core (for
// the LRU behind the parse-once query cache), so it must stay that way.
package cache

import "container/list"

// lruItem is one resident entry: the key is duplicated here so eviction can
// delete the map slot without a reverse lookup.
type lruItem struct {
	key  string
	val  any
	size int64
}

// LRU is a least-recently-used map bounded by entry count, by total bytes,
// or both (0 disables a bound). It is not safe for concurrent use — Cache
// and the engine's parse-once query cache wrap it with their own locks.
type LRU struct {
	maxEntries int
	maxBytes   int64

	ll      *list.List // front = most recently used
	items   map[string]*list.Element
	bytes   int64
	onEvict func(key string, val any, size int64)
}

// NewLRU returns an empty LRU with the given bounds (0 = unbounded).
func NewLRU(maxEntries int, maxBytes int64) *LRU {
	return &LRU{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		items:      make(map[string]*list.Element),
	}
}

// SetOnEvict installs a hook observing every eviction (bound pressure or
// Remove). Used for eviction counters.
func (l *LRU) SetOnEvict(fn func(key string, val any, size int64)) { l.onEvict = fn }

// Get returns the value for key and marks it most recently used.
func (l *LRU) Get(key string) (any, bool) {
	el, ok := l.items[key]
	if !ok {
		return nil, false
	}
	l.ll.MoveToFront(el)
	return el.Value.(*lruItem).val, true
}

// Peek returns the value for key without touching recency.
func (l *LRU) Peek(key string) (any, bool) {
	el, ok := l.items[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*lruItem).val, true
}

// Add inserts or replaces the value for key, charging size bytes against
// the budget, then evicts from the cold end until both bounds hold again.
// A single entry larger than the whole byte budget is evicted immediately;
// callers that want rejection instead (Cache does) must pre-check.
func (l *LRU) Add(key string, val any, size int64) {
	if el, ok := l.items[key]; ok {
		item := el.Value.(*lruItem)
		l.bytes += size - item.size
		item.val, item.size = val, size
		l.ll.MoveToFront(el)
	} else {
		l.items[key] = l.ll.PushFront(&lruItem{key: key, val: val, size: size})
		l.bytes += size
	}
	for l.overBudget() {
		l.evictOldest()
	}
}

func (l *LRU) overBudget() bool {
	if l.ll.Len() == 0 {
		return false
	}
	return (l.maxEntries > 0 && l.ll.Len() > l.maxEntries) ||
		(l.maxBytes > 0 && l.bytes > l.maxBytes)
}

func (l *LRU) evictOldest() {
	el := l.ll.Back()
	if el == nil {
		return
	}
	l.removeElement(el)
}

// Remove deletes key, reporting whether it was resident. Removal counts as
// an eviction for the OnEvict hook.
func (l *LRU) Remove(key string) bool {
	el, ok := l.items[key]
	if !ok {
		return false
	}
	l.removeElement(el)
	return true
}

func (l *LRU) removeElement(el *list.Element) {
	item := el.Value.(*lruItem)
	l.ll.Remove(el)
	delete(l.items, item.key)
	l.bytes -= item.size
	if l.onEvict != nil {
		l.onEvict(item.key, item.val, item.size)
	}
}

// Len reports the number of resident entries.
func (l *LRU) Len() int { return l.ll.Len() }

// Bytes reports the total charged size of resident entries.
func (l *LRU) Bytes() int64 { return l.bytes }

// Clear drops every entry without calling the eviction hook.
func (l *LRU) Clear() {
	l.ll.Init()
	l.items = make(map[string]*list.Element)
	l.bytes = 0
}
