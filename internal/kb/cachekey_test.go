package kb

import "testing"

// CacheKey identifies the exact entry list: it changes on every mutation,
// snapshots share the key of their source state, and two independently
// built KBs never collide even at the same version.
func TestCacheKey(t *testing.T) {
	a, b := MustCanonical(), MustCanonical()
	if a.CacheKey() == b.CacheKey() {
		t.Fatalf("independent KBs share cache key %q", a.CacheKey())
	}

	key0 := a.CacheKey()
	snap := a.Snapshot()
	if snap.CacheKey() != key0 {
		t.Fatalf("snapshot key %q != source key %q", snap.CacheKey(), key0)
	}

	extra := MustExtended().Entries()
	e := extra[len(extra)-1]
	if _, err := a.Add(e.Pattern, e.Recommendations...); err != nil {
		t.Fatal(err)
	}
	if a.CacheKey() == key0 {
		t.Fatalf("Add left key=%q unchanged", key0)
	}
	if snap.CacheKey() != key0 {
		t.Fatal("mutation leaked into the snapshot's cache key")
	}

	keyAdd := a.CacheKey()
	if !a.Remove(e.Name) {
		t.Fatal("Remove failed")
	}
	if a.CacheKey() == keyAdd || a.CacheKey() == key0 {
		t.Fatalf("Remove must produce a fresh key, got %q", a.CacheKey())
	}

	if a.Remove("no-such-entry") {
		t.Fatal("Remove of missing entry succeeded")
	}
	keyAfter := a.CacheKey()
	if a.Remove("no-such-entry"); a.CacheKey() != keyAfter {
		t.Fatal("failed Remove moved the cache key")
	}
}
