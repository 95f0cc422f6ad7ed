package store

import (
	"errors"
	"sync"
	"testing"
)

// TestCloseIdempotent pins Close's contract: the first call flushes and
// closes, every later call is a cheap nil, and reads keep working.
func TestCloseIdempotent(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddPlan(batchTexts(1)[0]); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
	}
	if h := s.Health(); h.State != HealthClosed {
		t.Fatalf("Health after close = %+v", h)
	}
	if s.Engine().Plan("W1") == nil {
		t.Fatal("reads stopped working after Close")
	}
	if _, err := s.AddPlan(batchTexts(2)[1]); !errors.Is(err, ErrClosed) {
		t.Fatalf("AddPlan after close = %v, want ErrClosed", err)
	}
	if err := s.Reopen(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Reopen after close = %v, want ErrClosed", err)
	}
}

// TestCloseConcurrentWithMutations hammers Close against in-flight appends,
// batch ingest and compactions (run it with -race). Every mutation must
// either complete durably or refuse with ErrClosed — no torn writes, no
// panics, no writes acknowledged after Close returns.
func TestCloseConcurrentWithMutations(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	const writers = 4
	texts := batchTexts(200)
	var wg sync.WaitGroup
	var mu sync.Mutex
	acked := map[string]bool{} // plans acknowledged durable before Close won

	fail := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		t.Errorf(format, args...)
	}

	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := w; i < len(texts); i += writers {
				if i%7 == 3 {
					// Batches ride along so the batch append path races too.
					out, err := s.AddPlanBatch(texts[i : i+1])
					switch {
					case errors.Is(err, ErrClosed):
						return
					case err != nil:
						fail("AddPlanBatch(%d): %v", i, err)
						return
					default:
						mu.Lock()
						acked[out[0].Plan.ID] = true
						mu.Unlock()
					}
					continue
				}
				p, err := s.AddPlan(texts[i])
				switch {
				case errors.Is(err, ErrClosed):
					return
				case err != nil:
					fail("AddPlan(%d): %v", i, err)
					return
				default:
					mu.Lock()
					acked[p.ID] = true
					mu.Unlock()
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for {
			if err := s.Compact(); errors.Is(err, ErrClosed) {
				return
			} else if err != nil {
				fail("Compact: %v", err)
				return
			}
		}
	}()
	// Several goroutines race Close itself; all must return nil.
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := s.Close(); err != nil {
				fail("concurrent Close: %v", err)
			}
		}()
	}
	close(start)
	wg.Wait()

	if t.Failed() {
		return
	}
	// Every acknowledged plan must be recoverable: durability won the race
	// or the write was refused, never half of each.
	r, err := Open(dir)
	if err != nil {
		t.Fatalf("recovery after close race: %v", err)
	}
	defer r.Close()
	for id := range acked {
		if r.Engine().Plan(id) == nil {
			t.Errorf("plan %s acknowledged before Close but not recovered", id)
		}
	}
	if got, want := r.Engine().NumPlans(), len(acked); got != want {
		t.Errorf("recovered %d plans, want exactly the %d acknowledged", got, want)
	}
}
