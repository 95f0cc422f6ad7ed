package kb

import (
	"fmt"
	"sync"
	"testing"

	"optimatch/internal/pattern"
)

// addPatternA adds pattern A under name with its inner-cardinality threshold
// set to inner: an entry that differs from the canonical one in one FILTER
// constant.
func addPatternA(t *testing.T, k *KnowledgeBase, name string, inner float64) {
	t.Helper()
	b := pattern.NewBuilder(name, "NLJOIN repeatedly scanning a large inner table")
	top := b.Pop("NLJOIN").Alias("TOP")
	outer := b.Pop(pattern.TypeAny)
	scan := b.Pop("TBSCAN").Alias("SCAN3")
	base := b.Pop(pattern.TypeBaseObj).Alias("BASE4")
	top.OuterChild(outer)
	top.InnerChild(scan)
	outer.Where("hasEstimateCardinality", ">", 1)
	scan.Where("hasEstimateCardinality", ">", inner)
	scan.Child(base)
	if _, err := k.Add(b.MustBuild(), Recommendation{Title: "Index", Template: "Create index on @BASE4.NAME."}); err != nil {
		t.Fatal(err)
	}
}

// checkScan holds a Scan to its contract: every entry once; every guard placed
// before the entry it guards and containing it; every strict container placed
// before what it contains; and no container placed before an entry strictly
// tighter than its guard. It returns the guard's name per entry name.
func checkScan(t *testing.T, k *KnowledgeBase) map[string]string {
	t.Helper()
	s := k.Scan()
	entries := k.Entries()
	if len(s.Entries) != len(entries) || len(s.Guards) != len(entries) {
		t.Fatalf("scan of %d entries, %d guards; the knowledge base has %d", len(s.Entries), len(s.Guards), len(entries))
	}
	pos := map[*Entry]int{}
	for i, e := range s.Entries {
		pos[e] = i
	}
	for _, e := range entries {
		if _, ok := pos[e]; !ok {
			t.Fatalf("entry %s is not in the scan", e.Name)
		}
	}
	guards := map[string]string{}
	for i, e := range s.Entries {
		g := s.Guards[i]
		if g < 0 {
			continue
		}
		guard := s.Entries[g]
		guards[e.Name] = guard.Name
		if g >= i || !guard.shape.Contains(e.shape) {
			t.Errorf("%s at %d is guarded by %s at %d", e.Name, i, guard.Name, g)
		}
		for _, c := range s.Entries[:i] {
			if c != guard && c.shape.Contains(e.shape) && guard.shape.Contains(c.shape) && !c.shape.Contains(guard.shape) {
				t.Errorf("%s is guarded by %s, though %s lies strictly between", e.Name, guard.Name, c.Name)
			}
		}
	}
	for _, x := range s.Entries {
		for _, y := range s.Entries {
			if x.shape.Contains(y.shape) && !y.shape.Contains(x.shape) && pos[x] > pos[y] {
				t.Errorf("%s contains %s but comes after it", x.Name, y.Name)
			}
		}
	}
	return guards
}

// TestScanGuards lays out the knowledge base of the benchmark's KB scan: the
// extended entries and seven pattern-A variants. The eight pattern-A entries
// are one family; of the variants, the ones whose threshold the canonical 100
// or another variant bounds both as a number and as a spelling get a guard.
func TestScanGuards(t *testing.T) {
	k := MustExtended()
	thresholds := []float64{150, 250, 400, 650, 1000, 1600, 2500}
	for _, th := range thresholds {
		addPatternA(t, k, fmt.Sprintf("nljoin-inner-tbscan-over-%d", int(th)), th)
	}
	guards := checkScan(t, k)
	if len(guards) != len(thresholds) {
		t.Errorf("%d guarded entries, want the %d variants: %v", len(guards), len(thresholds), guards)
	}
	// 1000 is numerically above 150, 250, 400 and 650 but spelled below them:
	// only the canonical 100 bounds it both ways.
	if g := guards["nljoin-inner-tbscan-over-1000"]; g != "nljoin-inner-tbscan" {
		t.Errorf("the 1000 variant is guarded by %q, want the canonical entry", g)
	}
	if g := guards["nljoin-inner-tbscan-over-2500"]; g != "nljoin-inner-tbscan-over-1600" {
		t.Errorf("the 2500 variant is guarded by %q, want the 1600 variant", g)
	}

	// Removing the canonical entry lays the knowledge base out again; a
	// snapshot keeps the layout of its version.
	snap := k.Snapshot()
	k.Remove("nljoin-inner-tbscan")
	guards = checkScan(t, k)
	if g, ok := guards["nljoin-inner-tbscan-over-1000"]; ok {
		t.Errorf("without the canonical entry the 1000 variant is still guarded, by %s", g)
	}
	if len(snap.Scan().Entries) != len(snap.Entries()) || checkScan(t, snap)["nljoin-inner-tbscan-over-1000"] != "nljoin-inner-tbscan" {
		t.Error("the snapshot's scan changed with the knowledge base")
	}
}

// TestScanEqualShapes: two entries of one query contain each other. The scan
// has no cycle: the first added guards the second, and is guarded by nothing.
func TestScanEqualShapes(t *testing.T) {
	k := New()
	addPatternA(t, k, "first", 100)
	addPatternA(t, k, "second", 100)
	addPatternA(t, k, "third", 100)
	a, b := k.Entry("first"), k.Entry("second")
	if !a.shape.Contains(b.shape) || !b.shape.Contains(a.shape) {
		t.Fatal("two entries of one query do not contain each other")
	}
	guards := checkScan(t, k)
	if _, ok := guards["first"]; ok || guards["second"] != "first" || guards["third"] == "" {
		t.Errorf("guards %v: want first unguarded, second guarded by first, third guarded", guards)
	}
}

// TestScanConcurrent lays a knowledge base out from several goroutines while
// another adds and removes entries: each caller gets a whole layout of some
// version (run it with -race).
func TestScanConcurrent(t *testing.T) {
	k := New()
	for i := 0; i < 8; i++ {
		addPatternA(t, k, fmt.Sprintf("a-%d", i), float64(100+10*i))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := k.Scan()
				if len(s.Entries) != len(s.Guards) {
					t.Errorf("a scan of %d entries has %d guards", len(s.Entries), len(s.Guards))
					return
				}
				for p, g := range s.Guards {
					if g >= p {
						t.Errorf("entry %d is guarded by entry %d", p, g)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		addPatternA(t, k, "churn", 95)
		k.Remove("churn")
	}
	wg.Wait()
}
