package core

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"optimatch/internal/fixtures"
	"optimatch/internal/kb"
	"optimatch/internal/pattern"
	"optimatch/internal/qep"
	"optimatch/internal/transform"
	"optimatch/internal/workload"
)

// TestThresholdDecoys plants threshold decoys: for every constant numeric
// constraint of every extended-KB entry it takes a row the entry finds, sets
// the value the constraint reads on that row's entity (a) exactly to the
// threshold, (b) one float past it on the side the constraint accepts, and (c)
// to the threshold spelled in exponent form in the explain text, and then
// re-parses, re-transforms and re-runs the entry. Every comparison is strict,
// so the row is absent in (a) and (c) and present in (b).
func TestThresholdDecoys(t *testing.T) {
	w, err := workload.Generate(workload.Config{
		Seed: 42, NumPlans: 24, MinOps: 30, MaxOps: 80, InjectA: 4, InjectC: 5, InjectG: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Fixture and workload plan IDs overlap, so each set has its own engine.
	sources := []*Engine{New(), New()}
	if err := sources[0].LoadPlans(fixtures.All()); err != nil {
		t.Fatal(err)
	}
	if err := sources[1].LoadPlans(w.Plans); err != nil {
		t.Fatal(err)
	}

	cases := 0
	for _, entry := range kb.MustExtended().Entries() {
		c := entry.Compiled()
		for col, h := range c.Handlers {
			for _, prop := range popOf(c.Pattern, h.PopID).Properties {
				threshold, ok := constantNumber(prop)
				if !ok {
					continue
				}
				cases++
				name := fmt.Sprintf("%s/%s.%s%s%s", entry.Name, h.Alias, prop.ID, prop.Sign, qep.FormatNum(threshold))
				t.Run(name, func(t *testing.T) {
					thresholdDecoys(t, sources, c, col, prop, threshold)
				})
			}
		}
	}
	if cases != 6 {
		t.Fatalf("%d constant numeric constraints in the extended knowledge base, want the 6 this test was written against", cases)
	}
}

func thresholdDecoys(t *testing.T, sources []*Engine, c *pattern.Compiled, col int, prop pattern.Property, threshold float64) {
	ctx := context.Background()
	if prop.ID != "hasEstimateCardinality" {
		t.Fatalf("constraint on %s: the test cannot set it", prop.ID)
	}
	var past float64 // one float past the threshold, on the side the constraint accepts
	switch prop.Sign {
	case ">":
		past = math.Nextafter(threshold, math.Inf(1))
	case "<":
		past = math.Nextafter(threshold, math.Inf(-1))
	default:
		t.Fatalf("sign %q: the decoys are written for strict comparisons", prop.Sign)
	}

	var start *transform.Match
	for _, e := range sources {
		ms, err := e.FindCompiled(ctx, c)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) > 0 {
			start = &ms[0]
			break
		}
	}
	if start == nil {
		t.Fatal("no occurrence to start from in the fixtures or the workload")
	}
	row := start.String()
	// value points at the cardinality the constraint reads, in p.
	op, obj := start.Operator(col), start.Object(col)
	value := func(p *qep.Plan) *float64 {
		if op != nil {
			return &p.Op(op.ID).Cardinality
		}
		return &p.Objects[obj.Name].Cardinality
	}
	// withValue returns the row's plan as explain text with the value set.
	withValue := func(v float64) string {
		p, err := qep.Parse(qep.Text(start.Plan()))
		if err != nil {
			t.Fatal(err)
		}
		*value(p) = v
		return qep.Text(p)
	}
	// exponent is the threshold spelled with a mantissa and an exponent,
	// "1.0E+02" for 100, where the explain writer would spell it "100".
	exponent := strconv.FormatFloat(threshold, 'E', -1, 64)
	if !strings.Contains(exponent, ".") {
		exponent = strings.Replace(exponent, "E", ".0E", 1)
	}
	const sentinel = 987654.321
	exponentText := withValue(sentinel)
	if n := strings.Count(exponentText, qep.FormatNum(sentinel)); n != 1 {
		t.Fatalf("the sentinel value is spelled %d times in the explain text, want once", n)
	}
	exponentText = strings.Replace(exponentText, qep.FormatNum(sentinel), exponent, 1)

	for _, d := range []struct {
		name    string
		text    string
		value   float64
		present bool
	}{
		{"exactly the threshold", withValue(threshold), threshold, false},
		{"one float past it", withValue(past), past, true},
		{"the threshold as " + exponent, exponentText, threshold, false},
	} {
		e := New()
		p, err := e.LoadText(d.text)
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		if got := *value(p); got != d.value {
			t.Fatalf("%s: the explain text reads back %v, want %v", d.name, got, d.value)
		}
		ms, err := e.FindCompiled(ctx, c)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, m := range ms {
			found = found || m.String() == row
		}
		if found != d.present {
			t.Errorf("%s: row %s present %v, want %v", d.name, row, found, d.present)
		}
	}
}

// popOf returns the pattern's pop with the given ID.
func popOf(p *pattern.Pattern, id int) pattern.Pop {
	for _, pop := range p.Pops {
		if pop.ID == id {
			return pop
		}
	}
	panic(fmt.Sprintf("pattern %s has no pop %d", p.Name, id))
}

// constantNumber returns the threshold of a value constraint against a
// constant number. Relationships (the reverse hasOutputStream and
// isDistinctFrom included, whose values are pop IDs), ABSENT, comparisons
// with another property or a plan-level one, and string constants are not.
func constantNumber(prop pattern.Property) (float64, bool) {
	switch {
	case prop.IsRelationship(), prop.ID == pattern.RelOutput, prop.ID == pattern.RelDistinct,
		prop.Sign == pattern.SignAbsent, prop.ValueOf != nil, prop.PlanOf != nil:
		return 0, false
	}
	switch v := prop.Value.(type) {
	case float64:
		return v, true
	case int:
		return float64(v), true
	case json.Number:
		f, err := v.Float64()
		return f, err == nil
	}
	return 0, false
}
