//go:build !race

package server

import (
	"context"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"optimatch/internal/core"
	"optimatch/internal/sparql"
	"optimatch/internal/workload"
)

// TestAllocBudgetRenderBody pins what a match body costs once bodies of its
// size have been rendered: its bytes, in one allocation, even when garbage
// collections ran in between. A scratch buffer kept where a collection empties
// it, as a sync.Pool does after two, would be grown again by doubling: on a
// workload that collects more often than it renders, every such render then
// allocates its body about three times. (Outside the race build, whose
// instrumentation allocates.)
func TestAllocBudgetRenderBody(t *testing.T) {
	w, err := workload.Generate(workload.Config{Seed: 19, NumPlans: 8, MinOps: 120, MaxOps: 120})
	if err != nil {
		t.Fatal(err)
	}
	eng := core.New()
	if err := eng.LoadPlans(w.Plans); err != nil {
		t.Fatal(err)
	}
	q, err := sparql.Parse(`PREFIX preduri: <http://optimatch/pred/>
SELECT ?pop ?type ?card WHERE { ?pop preduri:hasPopType ?type ; preduri:hasEstimateCardinality ?card }`)
	if err != nil {
		t.Fatal(err)
	}
	matches, err := eng.FindSPARQL(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	render := func() []byte {
		body, err := renderBody(func(dst []byte) ([]byte, error) {
			return appendMatchBody(dst, matches, nil, maxAnswerBytes)
		})
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	var body []byte
	for range cap(scratch) { // every kept buffer has grown to the body's size
		body = render()
	}

	const runs = 10
	var mallocs, bytes uint64
	for range runs {
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		render()
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		bytes += after.TotalAlloc - before.TotalAlloc
	}
	allocs := float64(mallocs) / runs
	perByte := float64(bytes) / runs / float64(len(body))
	t.Logf("%d matches, %d-byte body: %.1f allocations, %.2f B allocated per byte", len(matches), len(body), allocs, perByte)
	if allocs > 2 || perByte > 1.25 {
		t.Errorf("a render allocates %.1f times and %.2f B per body byte, budget 2 and 1.25", allocs, perByte)
	}
}

// TestAllocBudgetReadBody pins what reading an upload costs: a body of known
// length is read into one buffer of its size, where growing from 512 bytes by
// doubling allocates about four and a half times the body over eighteen
// buffers. A body of unknown length (chunked) still grows.
func TestAllocBudgetReadBody(t *testing.T) {
	body := strings.Repeat("x", 80<<10)
	measure := func(length int64) (allocs, perByte float64) {
		const runs = 10
		var mallocs, bytes uint64
		for range runs {
			req := httptest.NewRequest("POST", "/api/plans", strings.NewReader(body))
			req.ContentLength = length
			w := httptest.NewRecorder()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got, ok := readBody(w, req, maxBodyBytes)
			runtime.ReadMemStats(&after)
			if !ok || len(got) != len(body) {
				t.Fatalf("readBody = %d bytes, %v; want %d", len(got), ok, len(body))
			}
			mallocs += after.Mallocs - before.Mallocs
			bytes += after.TotalAlloc - before.TotalAlloc
		}
		return float64(mallocs) / runs, float64(bytes) / runs / float64(len(body))
	}
	allocs, perByte := measure(int64(len(body)))
	t.Logf("an %d-byte body of known length: %.1f allocations, %.2f B allocated per byte", len(body), allocs, perByte)
	// The buffer, and MaxBytesReader's reader.
	if allocs > 2 || perByte > 1.1 {
		t.Errorf("reading a body of known length allocates %.1f times and %.2f B per byte, budget 2 and 1.1", allocs, perByte)
	}
	allocs, perByte = measure(-1)
	t.Logf("the same body of unknown length: %.1f allocations, %.2f B allocated per byte", allocs, perByte)
}
