package core

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"optimatch/internal/kb"
	"optimatch/internal/transform"
	"optimatch/internal/workload"
)

// workloadEngine loads a generated workload big enough that a scan visits
// many plans, exercising the worker-pool fan-out.
func workloadEngine(t *testing.T, workers int) *Engine {
	t.Helper()
	w, err := workload.Generate(workload.Config{Seed: 7, NumPlans: 60, InjectA: 15, InjectC: 15})
	if err != nil {
		t.Fatal(err)
	}
	e := New(WithWorkers(workers))
	if err := e.LoadPlans(w.Plans); err != nil {
		t.Fatal(err)
	}
	return e
}

const cancelTestQuery = `PREFIX preduri: <http://optimatch/pred/>
SELECT ?op WHERE { ?op preduri:hasPopType "TBSCAN" }`

// checkNoGoroutineLeak fails the test when the goroutine count stays above
// its starting point after the cancelled call returned: the worker pool
// must drain, not strand workers on an abandoned channel.
func checkNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.Gosched()
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after cancelled scan",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestFindSPARQLCancelled(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e := workloadEngine(t, workers)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		before := runtime.NumGoroutine()
		matches, err := e.FindSPARQL(ctx, mustParseSPARQL(t, cancelTestQuery))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if matches != nil {
			t.Fatalf("workers=%d: cancelled scan returned matches", workers)
		}
		checkNoGoroutineLeak(t, before)
	}
}

func TestRunKBCancelled(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e := workloadEngine(t, workers)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		before := runtime.NumGoroutine()
		reports, err := e.RunKB(ctx, kb.MustCanonical())
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if reports != nil {
			t.Fatalf("workers=%d: cancelled scan returned reports", workers)
		}
		checkNoGoroutineLeak(t, before)
	}
}

func TestRunKBDeadline(t *testing.T) {
	e := workloadEngine(t, 4)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := e.RunKB(ctx, kb.MustCanonical())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestForEachPlanCancelStopsDispatch cancels from inside the first task and
// asserts the fan-out stops dispatching instead of visiting every plan.
func TestForEachPlanCancelStopsDispatch(t *testing.T) {
	e := workloadEngine(t, 2)
	plans := e.snapshot()
	if len(plans) < 20 {
		t.Fatalf("want a workload of plans, got %d", len(plans))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var visited atomic.Int64
	err := e.forEachPlan(ctx, plans, func(int, *transform.Result) {
		visited.Add(1)
		cancel()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := visited.Load(); n == 0 || n >= int64(len(plans)) {
		t.Fatalf("visited %d of %d plans; want an early stop after >= 1", n, len(plans))
	}
}
