package cache

import "container/list"

// lruItem is one resident entry: the key is duplicated here so eviction can
// delete the map slot without a reverse lookup.
type lruItem struct {
	key  string
	val  []byte
	size int64
}

// lru is a least-recently-used map bounded by the total charged size of its
// entries. It is not safe for concurrent use: Cache, its one user, holds its
// own lock around every call.
type lru struct {
	maxBytes int64

	ll    *list.List // front = most recently used
	items map[string]*list.Element
	bytes int64
}

func newLRU(maxBytes int64) *lru {
	return &lru{maxBytes: maxBytes, ll: list.New(), items: make(map[string]*list.Element)}
}

// get returns the value for key and marks it most recently used.
func (l *lru) get(key string) ([]byte, bool) {
	el, ok := l.items[key]
	if !ok {
		return nil, false
	}
	l.ll.MoveToFront(el)
	return el.Value.(*lruItem).val, true
}

// add inserts or replaces the value for key, charging size bytes against the
// budget, then evicts from the cold end until the budget holds again and
// reports how many entries that took. A single entry larger than the whole
// budget is evicted immediately; Cache rejects those before they get here.
func (l *lru) add(key string, val []byte, size int64) (evicted int) {
	if el, ok := l.items[key]; ok {
		item := el.Value.(*lruItem)
		l.bytes += size - item.size
		item.val, item.size = val, size
		l.ll.MoveToFront(el)
	} else {
		l.items[key] = l.ll.PushFront(&lruItem{key: key, val: val, size: size})
		l.bytes += size
	}
	for l.bytes > l.maxBytes {
		el := l.ll.Back()
		item := el.Value.(*lruItem)
		l.ll.Remove(el)
		delete(l.items, item.key)
		l.bytes -= item.size
		evicted++
	}
	return evicted
}
