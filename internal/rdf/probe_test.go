package rdf_test

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"optimatch/internal/rdf"
	"optimatch/internal/transform"
)

// TestDictProbeLength holds the dictionary's table to what a hash that
// spreads its keys gives: how far an ID sits from the slot its term's hash
// picks, which is what every intern and Lookup of the term walks. Linear
// probing at load α expects a mean of ½(1/(1−α) − 1): 0.5 at the half load
// 2¹⁴ IDs leave, 1.5 at the ¾ the table may reach; measured 0.46–0.54 on the
// sets of 2¹⁴ and 0.63–0.67 over the 64 generated graphs. The sets are the keys
// a hash is weakest on: integers, doubles whose float bits differ only in
// their top 20, IRIs behind one 60-byte prefix, literals of one Value that
// differ only in their datatype (with the IRI, blank node and string of that
// Value) — and the terms of the graphs a plan load builds. An unseeded
// multiplicative hash of the numbers' key bits puts the IDs of the first two
// sets 50 slots or more from home on average, and a hash of a term's Value
// alone puts those of the fourth 8 192: a quadratic build for an uploaded plan
// whose terms are chosen so.
//
// The hash's seed is new in each process, so the distances are random; the
// test logs them. The mean is the test's signal. The longest distance is a
// tail: 13–49 on the sets and 41–112 on the graphs in 200 processes, and
// linear probing makes each slot further out exponentially less likely, so the
// bounds, 5 and 9 times those, are not expected to trip without a fault.
func TestDictProbeLength(t *testing.T) {
	const n = 1 << 14
	prefix := "http://optimatch/qep/" + strings.Repeat("p", 39)
	check := func(what string, mean float64, longest, bound int) {
		t.Helper()
		t.Logf("%s: IDs sit %.2f slots from home on average, %d at most", what, mean, longest)
		if mean > 1 || longest > bound {
			t.Errorf("%s: bounds 1 and %d", what, bound)
		}
	}
	for _, set := range []struct {
		name   string
		intern func(b *rdf.Builder, i int)
	}{
		{"integers", func(b *rdf.Builder, i int) { b.Intern(rdf.Int(int64(i))) }},
		{"doubles", func(b *rdf.Builder, i int) { b.InternFloat(math.Ldexp(float64(i), -14)) }},
		{"IRIs", func(b *rdf.Builder, i int) { b.Intern(rdf.IRI(prefix + strconv.Itoa(i))) }},
		{"one Value", func(b *rdf.Builder, i int) {
			switch i {
			case 0:
				b.Intern(rdf.IRI("x"))
			case 1:
				b.Intern(rdf.Blank("x"))
			case 2:
				b.Intern(rdf.String("x"))
			default:
				b.Intern(rdf.TypedLiteral("x", "urn:"+strconv.Itoa(i)))
			}
		}},
	} {
		b := rdf.NewBuilder()
		for i := range n {
			set.intern(b, i)
		}
		mean, longest := rdf.ProbeLength(b.Dict())
		check(set.name+" while built", mean, longest, 256)
		mean, longest = rdf.ProbeLength(b.Graph().Dict())
		check(set.name+" frozen", mean, longest, 256)
	}
	total, longest, terms := 0.0, 0, 0
	for _, p := range generatedPlans(t, 64) {
		d := transform.Transform(p).Graph.Dict()
		mean, l := rdf.ProbeLength(d)
		total, longest, terms = total+mean*float64(d.Len()), max(longest, l), terms+d.Len()
	}
	check("64 generated graphs", total/float64(terms), longest, 1024)
}
