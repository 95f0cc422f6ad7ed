package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestLRUEvictionOrder(t *testing.T) {
	l := newLRU(3)
	l.add("a", nil, 1)
	l.add("b", nil, 1)
	l.add("c", nil, 1)
	if _, ok := l.get("a"); !ok { // touch a: b becomes coldest
		t.Fatal("a missing")
	}
	if n := l.add("d", nil, 1); n != 1 {
		t.Fatalf("add evicted %d entries, want 1", n)
	}
	if _, ok := l.get("b"); ok {
		t.Error("coldest entry survived")
	}
	if _, ok := l.get("a"); !ok {
		t.Error("recently used entry evicted")
	}
	if len(l.items) != 3 {
		t.Errorf("len = %d", len(l.items))
	}
}

func TestLRUByteBudget(t *testing.T) {
	l := newLRU(100)
	l.add("a", nil, 40)
	l.add("b", nil, 40)
	if l.bytes != 80 {
		t.Fatalf("bytes = %d", l.bytes)
	}
	l.add("c", nil, 40) // over budget: a (coldest) must go
	if _, ok := l.items["a"]; ok {
		t.Error("a survived byte-budget eviction")
	}
	if l.bytes != 80 || len(l.items) != 2 {
		t.Errorf("after eviction: bytes=%d len=%d", l.bytes, len(l.items))
	}
	// Replacing an entry re-charges its size difference.
	l.add("b", nil, 10)
	if l.bytes != 50 {
		t.Errorf("after replace: bytes=%d", l.bytes)
	}
}

func doVal(c *Cache, ctx context.Context, key, val string) (string, Outcome, error) {
	b, oc, err := c.Do(ctx, key, func(context.Context) (Result, error) {
		return Result{Body: []byte(val)}, nil
	})
	return string(b), oc, err
}

func TestDoHitMiss(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	ctx := context.Background()
	v, oc, err := doVal(c, ctx, "k", "first")
	if err != nil || v != "first" || oc != Miss {
		t.Fatalf("first Do = (%v, %v, %v)", v, oc, err)
	}
	b, oc, err := c.Do(ctx, "k", func(context.Context) (Result, error) {
		t.Error("fn ran on a resident key")
		return Result{}, nil
	})
	if err != nil || string(b) != "first" || oc != Hit {
		t.Fatalf("second Do = (%q, %v, %v)", b, oc, err)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes == 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.HitRatio != 0.5 {
		t.Errorf("hit ratio = %v", st.HitRatio)
	}
}

func TestDoErrorNotCached(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	boom := errors.New("boom")
	calls := 0
	for i := 0; i < 2; i++ {
		_, _, err := c.Do(context.Background(), "k", func(context.Context) (Result, error) {
			calls++
			return Result{}, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v", err)
		}
	}
	if calls != 2 {
		t.Errorf("calls = %d, want 2 (errors must not be cached)", calls)
	}
}

func TestDoBypass(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	ctx := context.Background()
	if _, _, err := doVal(c, ctx, "k", "v"); err != nil {
		t.Fatal(err)
	}
	calls := 0
	b, oc, err := c.Do(WithBypass(ctx), "k", func(context.Context) (Result, error) {
		calls++
		return Result{Body: []byte("fresh")}, nil
	})
	if err != nil || string(b) != "fresh" || oc != Bypass || calls != 1 {
		t.Fatalf("bypass Do = (%q, %v, %v), calls=%d", b, oc, err, calls)
	}
	// A nil cache bypasses too, with no nil checks at the call site.
	var nilc *Cache
	v, oc, err := doVal(nilc, ctx, "k", "direct")
	if err != nil || v != "direct" || oc != Bypass {
		t.Fatalf("nil-cache Do = (%v, %v, %v)", v, oc, err)
	}
	if st := nilc.Stats(); st != (Stats{}) {
		t.Errorf("nil stats = %+v", st)
	}
}

func TestDoNoStore(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	calls := 0
	for i := 0; i < 2; i++ {
		b, _, err := c.Do(context.Background(), "k", func(context.Context) (Result, error) {
			calls++
			return Result{Body: []byte("v"), NoStore: true}, nil
		})
		if err != nil || string(b) != "v" {
			t.Fatal(b, err)
		}
	}
	if calls != 2 {
		t.Errorf("calls = %d, want 2 (NoStore results must not be cached)", calls)
	}
	if st := c.Stats(); st.Rejected != 2 || st.Entries != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestOversizedRejected(t *testing.T) {
	c := New(Config{MaxBytes: 256})
	if _, _, err := c.Do(context.Background(), "big", func(context.Context) (Result, error) {
		return Result{Body: make([]byte, 10_000)}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Entries != 0 || st.Rejected != 1 {
		t.Errorf("stats = %+v (oversized entry must be rejected, not flush the cache)", st)
	}
}

// TestSingleflightCollapse launches many concurrent identical misses and
// asserts exactly one execution served them all.
func TestSingleflightCollapse(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	var calls atomic.Int64
	release := make(chan struct{})
	const n = 16
	var wg sync.WaitGroup
	outcomes := make([]Outcome, n)
	vals := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, oc, err := c.Do(context.Background(), "k", func(context.Context) (Result, error) {
				calls.Add(1)
				<-release
				return Result{Body: []byte("shared")}, nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i], outcomes[i] = string(v), oc
		}(i)
	}
	// Wait for the flight to exist, then for all waiters to pile on.
	for {
		c.mu.Lock()
		f := c.flights["k"]
		ready := f != nil && f.waiters == n
		c.mu.Unlock()
		if ready {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("executions = %d, want 1", got)
	}
	misses, collapsed := 0, 0
	for i := range outcomes {
		if vals[i] != "shared" {
			t.Fatalf("waiter %d got %v", i, vals[i])
		}
		switch outcomes[i] {
		case Miss:
			misses++
		case Collapsed:
			collapsed++
		}
	}
	if misses != 1 || collapsed != n-1 {
		t.Errorf("misses=%d collapsed=%d", misses, collapsed)
	}
	if st := c.Stats(); st.Collapsed != n-1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestWaiterCancelDoesNotPoisonFlight: a waiter that gives up gets its own
// context error, while the remaining waiter still receives the real result.
func TestWaiterCancelDoesNotPoisonFlight(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	release := make(chan struct{})
	started := make(chan struct{})
	fn := func(fctx context.Context) (Result, error) {
		close(started)
		select {
		case <-release:
			return Result{Body: []byte("ok")}, nil
		case <-fctx.Done():
			return Result{}, fctx.Err()
		}
	}
	type out struct {
		v   []byte
		err error
	}
	leader := make(chan out, 1)
	cctx, cancel := context.WithCancel(context.Background())
	go func() {
		v, _, err := c.Do(cctx, "k", fn)
		leader <- out{v, err}
	}()
	<-started
	follower := make(chan out, 1)
	go func() {
		v, _, err := c.Do(context.Background(), "k", func(context.Context) (Result, error) {
			t.Error("follower must join the flight, not execute")
			return Result{}, nil
		})
		follower <- out{v, err}
	}()
	// Wait until the follower is registered, then cancel the first caller.
	for {
		c.mu.Lock()
		f := c.flights["k"]
		ready := f != nil && f.waiters == 2
		c.mu.Unlock()
		if ready {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	got := <-leader
	if !errors.Is(got.err, context.Canceled) {
		t.Fatalf("cancelled caller got err=%v", got.err)
	}
	close(release)
	got = <-follower
	if got.err != nil || string(got.v) != "ok" {
		t.Fatalf("surviving waiter got (%q, %v)", got.v, got.err)
	}
}

// TestAllWaitersGoneCancelsExecution: when the last waiter abandons a
// flight, its context fires; the failed execution is not cached and the
// next request re-executes.
func TestAllWaitersGoneCancelsExecution(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	executionDone := make(chan error, 1)
	cctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	_, _, err := func() ([]byte, Outcome, error) {
		go func() { <-started; cancel() }()
		return c.Do(cctx, "k", func(fctx context.Context) (Result, error) {
			close(started)
			<-fctx.Done() // cooperative evaluator observing cancellation
			executionDone <- fctx.Err()
			return Result{}, fctx.Err()
		})
	}()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if ferr := <-executionDone; !errors.Is(ferr, context.Canceled) {
		t.Fatalf("flight ctx err = %v (must be cancelled when all waiters leave)", ferr)
	}
	// The cancelled result must not have been cached.
	v, oc, err := doVal(c, context.Background(), "k", "fresh")
	if err != nil || oc != Miss || v != "fresh" {
		t.Fatalf("re-Do = (%v, %v, %v)", v, oc, err)
	}
}

// TestAbandonedFlightDoesNotPoisonNewcomer: between the last waiter leaving
// and the cooperative evaluator noticing, a caller with a live context must
// start its own execution — not join the cancelled flight and inherit a
// context.Canceled it never asked for — and the abandoned flight publishing
// late must not unlist the newcomer's flight.
func TestAbandonedFlightDoesNotPoisonNewcomer(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	flightFor := func() *flight {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.flights["k"]
	}

	started := make(chan *flight)
	windDown := make(chan struct{}) // the abandoned evaluator "notices" only when this closes
	cctx, cancel := context.WithCancel(context.Background())
	var abandoned *flight
	go func() { abandoned = <-started; cancel() }()
	_, _, err := c.Do(cctx, "k", func(fctx context.Context) (Result, error) {
		started <- flightFor()
		<-fctx.Done()
		<-windDown
		return Result{}, fctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoning caller err = %v", err)
	}

	// The abandoned execution is still winding down; a newcomer arrives.
	release := make(chan struct{})
	type out struct {
		v   []byte
		oc  Outcome
		err error
	}
	newcomer := make(chan out, 1)
	go func() {
		v, oc, err := c.Do(context.Background(), "k", func(context.Context) (Result, error) {
			<-release
			return Result{Body: []byte("fresh")}, nil
		})
		newcomer <- out{v, oc, err}
	}()
	var own *flight
	for deadline := time.Now().Add(2 * time.Second); own == nil || own == abandoned; own = flightFor() {
		if time.Now().After(deadline) {
			close(windDown)
			got := <-newcomer
			t.Fatalf("newcomer joined the abandoned flight: Do = (%q, %v, %v)", got.v, got.oc, got.err)
		}
		time.Sleep(time.Millisecond)
	}

	close(windDown)
	<-abandoned.done
	if flightFor() != own {
		t.Fatal("the abandoned flight unlisted the newcomer's flight when it published")
	}
	close(release)
	if got := <-newcomer; got.err != nil || got.oc != Miss || string(got.v) != "fresh" {
		t.Fatalf("newcomer Do = (%q, %v, %v), want its own successful miss", got.v, got.oc, got.err)
	}
	if st := c.Stats(); st.Collapsed != 0 || st.Misses != 2 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDeadlineWaiter(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, _, err := c.Do(ctx, "k", func(fctx context.Context) (Result, error) {
		<-fctx.Done()
		return Result{}, fctx.Err()
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Errorf("deadline-exceeded result cached: %+v", st)
	}
}

func TestGenerationKeyedEntriesAgeOut(t *testing.T) {
	// Old-generation entries are not invalidated, they are orphaned: new
	// keys stop referencing them and the byte budget evicts them.
	c := New(Config{MaxBytes: 3 * 512})
	for gen := 0; gen < 20; gen++ {
		key := Key("scan", fmt.Sprint(gen))
		if _, _, err := c.Do(context.Background(), key, func(context.Context) (Result, error) {
			return Result{Body: make([]byte, 256)}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Entries == 0 || st.Bytes > 3*512 {
		t.Errorf("stats = %+v", st)
	}
	if st.Evictions == 0 {
		t.Error("orphaned generations never evicted")
	}
}

func TestKey(t *testing.T) {
	if Key("a", "b") == Key("ab", "") || Key("a") == Key("a", "") {
		t.Error("key parts collide")
	}
}
