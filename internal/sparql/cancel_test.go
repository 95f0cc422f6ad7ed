package sparql

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"optimatch/internal/rdf"
)

// chainGraph builds a linear hasChildPop chain p0 -> p1 -> ... -> p(n-1):
// small triples, but its transitive closure is quadratic, so an unanchored
// `+` query does far more than cancelStride iterations of work.
func chainGraph(n int) *rdf.Graph {
	b := rdf.NewBuilder()
	pred := rdf.IRI("http://optimatch/pred/hasChildPop")
	node := func(i int) rdf.Term { return rdf.IRI(fmt.Sprintf("http://optimatch/qep/pop/%d", i)) }
	for i := 0; i < n-1; i++ {
		b.Add(node(i), pred, node(i+1))
	}
	return b.Graph()
}

func TestExecPreCancelledContext(t *testing.T) {
	g := chainGraph(10)
	q := mustParse(t, predPrefix+"SELECT ?x ?y WHERE { ?x pred:hasChildPop+ ?y }")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := q.ExecOpts(g, ExecOptions{Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("got partial results %v alongside cancellation", res)
	}
}

// lateCancelCtx reports no error on its first Err() call (so evaluation gets
// past the entry check) and context.Canceled from then on, with an
// already-closed Done channel. It makes "cancelled mid-evaluation"
// deterministic: the canceller trips at its first stride poll, always at
// the same iteration, with no timing involved.
type lateCancelCtx struct {
	context.Context
	done  chan struct{}
	calls int
}

func newLateCancelCtx() *lateCancelCtx {
	done := make(chan struct{})
	close(done)
	return &lateCancelCtx{Context: context.Background(), done: done}
}

func (c *lateCancelCtx) Done() <-chan struct{} { return c.done }

func (c *lateCancelCtx) Err() error {
	c.calls++
	if c.calls == 1 {
		return nil
	}
	return context.Canceled
}

func TestExecCancelledMidEvaluation(t *testing.T) {
	// Plenty of closure work: an unanchored a+ over a 2000-node chain runs
	// ~2000 BFS walks, each hundreds of steps, so the first stride poll
	// lands long before the evaluation could finish.
	g := chainGraph(2000)
	q := mustParse(t, predPrefix+"SELECT ?x ?y WHERE { ?x pred:hasChildPop+ ?y }")
	res, err := q.ExecOpts(g, ExecOptions{Ctx: newLateCancelCtx()})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled evaluation must not return partial rows")
	}
}

func TestInterruptedBFSNotMemoized(t *testing.T) {
	g := chainGraph(1500)
	inner := PredPath{IRI: "http://optimatch/pred/hasChildPop"}
	start := g.Dict().Lookup(rdf.IRI("http://optimatch/qep/pop/0"))
	if start == rdf.NoID {
		t.Fatal("start node missing from dictionary")
	}

	ctx, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	env := &pathEnv{g: g, cancel: newCanceller(ctx)}
	set, complete := env.runBFS(inner, start, false)
	if complete {
		t.Fatal("BFS under a cancelled context reported a complete closure")
	}
	// closureSet must refuse to memoize the partial result.
	_ = env.closureSet(inner, start, false)
	if len(env.memo) != 0 {
		t.Fatalf("partial closure was memoized: %d entries", len(env.memo))
	}
	_ = set

	// A fresh, uncancelled environment over the same graph sees the full
	// closure and memoizes it.
	env2 := &pathEnv{g: g}
	set2, complete2 := env2.runBFS(inner, start, false)
	if !complete2 {
		t.Fatal("unhindered BFS reported incomplete")
	}
	if want := 1499; len(set2.reached) != want {
		t.Fatalf("full closure has %d nodes, want %d", len(set2.reached), want)
	}
}

func TestExecNilAndBackgroundContexts(t *testing.T) {
	// Background and nil contexts cost nothing and change nothing: the
	// canceller is elided entirely.
	if c := newCanceller(nil); c != nil {
		t.Fatal("nil context minted a canceller")
	}
	if c := newCanceller(context.Background()); c != nil {
		t.Fatal("Background context minted a canceller")
	}
	g := chainGraph(50)
	q := mustParse(t, predPrefix+"SELECT ?x ?y WHERE { ?x pred:hasChildPop+ ?y }")
	plain, err := q.Exec(g)
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := q.ExecOpts(g, ExecOptions{Ctx: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Rows) != len(withCtx.Rows) {
		t.Fatalf("row counts differ: %d without ctx, %d with", len(plain.Rows), len(withCtx.Rows))
	}
}
