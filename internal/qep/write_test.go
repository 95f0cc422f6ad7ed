package qep_test

import (
	"bytes"
	"testing"
	"unsafe"

	"optimatch/internal/fixtures"
	"optimatch/internal/qep"
	"optimatch/internal/workload"
)

// benchmarkPlans are the fixtures and the 64 plans of the benchmark's seed-1
// workload shape (bench/gen.go): 60–240 operators, every injected pattern.
func benchmarkPlans(tb testing.TB) []*qep.Plan {
	tb.Helper()
	w, err := workload.Generate(workload.Config{
		Seed: 1, NumPlans: 64, MinOps: 60, MaxOps: 240,
		InjectA: 9, InjectB: 7, InjectC: 11, InjectD: 6, InjectG: 3,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return append(append(fixtures.All(), fixtures.SharedTemp(), fixtures.DoubleFedJoin()), w.Plans...)
}

// checkSameBytes fails the test unless Write, Text and AppendText (onto a
// buffer already holding bytes) render p byte for byte as the fmt writer they
// replaced does.
func checkSameBytes(t *testing.T, p *qep.Plan) {
	t.Helper()
	var want, got bytes.Buffer
	if err := qep.WriteReference(&want, p); err != nil {
		t.Fatal(err)
	}
	if err := qep.Write(&got, p); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("plan %q: Write and the fmt writer differ:\n%s\nwant:\n%s", p.ID, got.Bytes(), want.Bytes())
	}
	if qep.Text(p) != want.String() {
		t.Fatalf("plan %q: Text and the fmt writer differ", p.ID)
	}
	if appended := qep.AppendText([]byte("prefix"), p); string(appended) != "prefix"+want.String() {
		t.Fatalf("plan %q: AppendText onto a prefix differs from the fmt writer", p.ID)
	}
}

// TestWriteSameBytes holds the append writer to the fmt writer on the
// fixtures and on 64 generated plans, and on plans with the fields the
// generator leaves alone: join modifiers, an empty and a multi-line
// statement, arguments, predicates, column lists in both forms and numbers
// in both notations.
func TestWriteSameBytes(t *testing.T) {
	for _, p := range benchmarkPlans(t) {
		checkSameBytes(t, p)
	}
	for _, text := range []string{
		"Plan Details:\n1) RETURN:\n",
		"Statement ID: Q\nStatement:\n  SELECT *\n  FROM T\n\n\nAccess Plan:\nTotal Cost: 1.0E+07\nPlan Details:\n" +
			"2) >HSJOIN: (Hash Join)\nCumulative Total Cost: 0.0001\nEstimated Cardinality: -2.5e-9\nArguments:\nMAX PAGES : ALL\nA: \n" +
			"Predicates:\n(Q1.A = Q2.B)\nInput Streams:\n1) From Object T\nStream Type: OUTER\nColumns: A,B+C\n" +
			"2) From Object U\nStream Type: INNER\nEstimated Rows: 12345678\n" +
			"1) RETURN:\nInput Streams:\n1) From Operator #2\n" +
			"Base Objects:\nT\nType: INDEX\nCardinality: 3e300\nColumns: +X+Y\nU\n",
	} {
		p, err := qep.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		checkSameBytes(t, p)
	}
}

// BenchmarkWrite renders the 64 generated plans, by AppendText into one
// reused buffer — what compaction does on each worker — by Text, and by the
// fmt writer.
func BenchmarkWrite(b *testing.B) {
	plans := benchmarkPlans(b)
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			for _, p := range plans {
				buf = qep.AppendText(buf[:0], p)
			}
		}
	})
	b.Run("text", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range plans {
				_ = qep.Text(p)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range plans {
				var buf bytes.Buffer
				if err := qep.WriteReference(&buf, p); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// checkOwnStrings fails the test if a string p holds is a substring of the
// text p was parsed from, which would keep the text alive with the plan, or
// if the strings it holds do not all share one buffer.
func checkOwnStrings(t *testing.T, p *qep.Plan, text string) {
	t.Helper()
	var held []string
	held = append(held, p.ID, p.Statement)
	for _, op := range p.Ops() {
		held = append(held, op.Type)
		for k, v := range op.Args {
			held = append(held, k, v)
		}
		held = append(held, op.Predicates...)
		for _, in := range op.Inputs {
			held = append(held, in.Columns...)
		}
	}
	for name, obj := range p.Objects {
		held = append(held, name, obj.Name, obj.Type)
		held = append(held, obj.Columns...)
	}
	textStart := uintptr(unsafe.Pointer(unsafe.StringData(text)))
	spans := map[uintptr]int{} // start → length of every distinct string held
	var lo, hi uintptr
	for _, s := range held {
		if s == "" {
			continue
		}
		start := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		if textStart <= start && start < textStart+uintptr(len(text)) {
			t.Fatalf("plan %q holds %q from the text it was parsed from", p.ID, s)
		}
		if lo == 0 || start < lo {
			lo = start
		}
		hi = max(hi, start+uintptr(len(s)))
		spans[start] = max(spans[start], len(s))
	}
	total := 0
	for _, n := range spans {
		total += n
	}
	if hi-lo > uintptr(total) {
		t.Fatalf("plan %q: its %d bytes of strings span %d bytes, not one buffer", p.ID, total, hi-lo)
	}
}

// TestParseKeepsNoText: a parsed plan's strings are its own, in one buffer,
// for every fixture and generated plan.
func TestParseKeepsNoText(t *testing.T) {
	for _, p := range benchmarkPlans(t) {
		text := qep.Text(p)
		back, err := qep.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		checkOwnStrings(t, back, text)
	}
}

// BenchmarkParse parses the 64 generated plans: the parser's share of an
// upload, the copy of the strings it keeps included.
func BenchmarkParse(b *testing.B) {
	var texts []string
	for _, p := range benchmarkPlans(b) {
		texts = append(texts, qep.Text(p))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, text := range texts {
			if _, err := qep.Parse(text); err != nil {
				b.Fatal(err)
			}
		}
	}
}
