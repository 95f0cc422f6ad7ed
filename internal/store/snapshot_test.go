package store

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"optimatch/internal/fixtures"
	"optimatch/internal/jsonstr"
	"optimatch/internal/qep"
	"optimatch/internal/rdf"
	"optimatch/internal/storefs"
	"optimatch/internal/workload"
)

// uploadedSpelling respells explain text the way a client may upload it and
// the way a snapshot kept it while compaction wrote every plan's uploaded
// text back: numbers in exponent notation with a fraction ("1.0E+07"),
// stream columns separated by ',' rather than '+', and every line indented
// further. Parse reads it as the same plan.
func uploadedSpelling(t *testing.T, text string) string {
	t.Helper()
	var b strings.Builder
	for _, line := range strings.SplitAfter(text, "\n") {
		key, value, ok := strings.Cut(line, ":\t")
		body := strings.TrimRight(value, "\n")
		switch trimmed := strings.TrimLeft(body, "\t+"); {
		case !ok:
		case strings.HasSuffix(key, "Columns") && strings.HasPrefix(body, "+"):
			line = key + ":\t" + strings.ReplaceAll(trimmed, "+", ",") + "\n"
		default:
			if f, err := strconv.ParseFloat(trimmed, 64); err == nil {
				spelled := strconv.FormatFloat(f, 'E', -1, 64)
				if mantissa, exp, _ := strings.Cut(spelled, "E"); !strings.Contains(mantissa, ".") {
					spelled = mantissa + ".0E" + exp
				}
				line = key + ":\t\t" + spelled + "\n"
			}
		}
		if line != "" && line != "\n" {
			line = "   " + line
		}
		b.WriteString(line)
	}
	return b.String()
}

// servedBytes is what a store serves that depends on its plans: the kb/run
// reports in load order, and every plan's N-Triples, the /rdf body.
func servedBytes(t *testing.T, s *Store) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(kbRunJSON(t, s.Engine(), s.KB()))
	for _, p := range s.Engine().Plans() {
		b.WriteString("\n" + p.ID + "\n")
		b.Write(rdf.AppendNTriples(nil, s.Engine().Result(p.ID).Graph))
	}
	return b.String()
}

// TestUploadedTextSnapshot: a snapshot that holds the texts clients uploaded,
// spelled as Write would not spell them, as snapshots did while compaction
// kept every plan's uploaded text, opens and serves byte for byte what a store
// built by uploading the same texts serves. Compacted again, it holds
// qep.Text of each plan instead, and reopened it serves the same bytes still.
func TestUploadedTextSnapshot(t *testing.T) {
	w, err := workload.Generate(workload.Config{Seed: 1, NumPlans: 4, MinOps: 60, MaxOps: 120, InjectA: 1, InjectC: 1})
	if err != nil {
		t.Fatal(err)
	}
	plans := fixtures.All()
	for i, p := range w.Plans {
		plans = append(plans, fixtures.Renamed(p, "W"+strconv.Itoa(i)))
	}
	var uploaded []string
	for _, p := range plans {
		text := uploadedSpelling(t, qep.Text(p))
		if text == qep.Text(p) || !strings.Contains(text, ".0E+") || !strings.Contains(text, "Columns:\t") {
			t.Fatalf("plan %s is not respelled:\n%s", p.ID, text)
		}
		uploaded = append(uploaded, text)
	}

	built, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer built.Close()
	for _, text := range uploaded {
		if _, err := built.AddPlan(text); err != nil {
			t.Fatal(err)
		}
	}
	want := servedBytes(t, built)

	dir := t.TempDir()
	img := &snapshotImage{generation: 1}
	for i, p := range built.Engine().Plans() {
		img.ids = append(img.ids, p.ID)
		img.texts = append(img.texts, jsonstr.Append(nil, uploaded[i]))
	}
	var kbJSON bytes.Buffer
	if err := built.KB().Save(&kbJSON); err != nil {
		t.Fatal(err)
	}
	img.envelope = kbJSON.Bytes()
	if err := writeSnapshot(storefs.OS{}, dir, img); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatalf("opening a snapshot of uploaded texts: %v", err)
	}
	if got := servedBytes(t, s); got != want {
		t.Fatalf("a snapshot of uploaded texts serves other bytes than the uploads:\n%s", firstLineDiff(got, want))
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	compacted, err := readSnapshot(storefs.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(compacted.Plans) != len(uploaded) {
		t.Fatalf("the compacted snapshot holds %d plans, want %d", len(compacted.Plans), len(uploaded))
	}
	for i, sp := range compacted.Plans {
		if p := s.Engine().Plan(sp.ID); p == nil || sp.Text != qep.Text(p) || sp.Text == uploaded[i] {
			t.Errorf("plan %s: the compacted snapshot does not hold qep.Text of the plan", sp.ID)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := servedBytes(t, r); got != want {
		t.Fatalf("reopened after compaction, the store serves other bytes:\n%s", firstLineDiff(got, want))
	}
}

// firstLineDiff names the first line where got and want part.
func firstLineDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return "line " + strconv.Itoa(i+1) + ": " + strconv.Quote(g[i]) + ", want " + strconv.Quote(w[i])
		}
	}
	return strconv.Itoa(len(g)) + " lines, want " + strconv.Itoa(len(w))
}
