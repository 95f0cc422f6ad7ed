package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"optimatch/internal/core"
	"optimatch/internal/fixtures"
	"optimatch/internal/kb"
	"optimatch/internal/pattern"
	"optimatch/internal/qep"
)

// writeFixtures writes the fixture plans as explain files in a temp dir.
func writeFixtures(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, p := range fixtures.All() {
		if err := os.WriteFile(filepath.Join(dir, p.ID+".exfmt"), []byte(qep.Text(p)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// captureStdout runs f and returns what it printed.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = saved }()
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	ferr := f()
	w.Close()
	return string(<-out), ferr
}

func fixtureFile(t *testing.T, dir, id string) string {
	t.Helper()
	return filepath.Join(dir, id+".exfmt")
}

func TestRunRender(t *testing.T) {
	dir := writeFixtures(t)
	if err := run([]string{"render", fixtureFile(t, dir, "Q2")}); err != nil {
		t.Errorf("render: %v", err)
	}
	if err := run([]string{"render"}); err == nil {
		t.Error("render without file accepted")
	}
	if err := run([]string{"render", filepath.Join(dir, "missing.exfmt")}); err == nil {
		t.Error("render of missing file accepted")
	}
}

func TestRunTransform(t *testing.T) {
	dir := writeFixtures(t)
	if err := run([]string{"transform", fixtureFile(t, dir, "Q2")}); err != nil {
		t.Errorf("transform: %v", err)
	}
	if err := run([]string{"transform", "a", "b"}); err == nil {
		t.Error("transform with two files accepted")
	}
}

func TestRunCompile(t *testing.T) {
	for _, letter := range []string{"a", "b", "c", "d", "e", "f", "g"} {
		if err := run([]string{"compile", "-pattern", letter}); err != nil {
			t.Errorf("compile %s: %v", letter, err)
		}
	}
	if err := run([]string{"compile", "-pattern", ""}); err == nil {
		t.Error("compile without pattern accepted")
	}
	if err := run([]string{"compile", "-pattern", "/no/such/file.json"}); err == nil {
		t.Error("compile with missing pattern file accepted")
	}
}

func TestRunSearchCanonical(t *testing.T) {
	dir := writeFixtures(t)
	for _, letter := range []string{"a", "g"} {
		if err := run([]string{"search", "-pattern", letter, dir}); err != nil {
			t.Errorf("search -pattern %s: %v", letter, err)
		}
	}
	if err := run([]string{"search", "-pattern", "a"}); err == nil {
		t.Error("search without inputs accepted")
	}
}

func TestRunSearchJSONPattern(t *testing.T) {
	dir := writeFixtures(t)
	p := pattern.D()
	p.Name = "" // exercise the name-from-filename path
	data, err := p.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	pfile := filepath.Join(dir, "sortspill.json")
	if err := os.WriteFile(pfile, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"search", "-pattern", pfile, fixtureFile(t, dir, "Q9")}); err != nil {
		t.Errorf("search with JSON pattern: %v", err)
	}
	// Malformed pattern JSON.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"search", "-pattern", bad, dir}); err == nil {
		t.Error("malformed pattern accepted")
	}
}

func TestRunSPARQL(t *testing.T) {
	dir := writeFixtures(t)
	qfile := filepath.Join(dir, "q.rq")
	query := `PREFIX preduri: <http://optimatch/pred/>
SELECT ?s WHERE { ?s preduri:hasPopType "SORT" }`
	if err := os.WriteFile(qfile, []byte(query), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"sparql", "-query", qfile, dir}); err != nil {
		t.Errorf("sparql: %v", err)
	}
	if err := run([]string{"sparql", dir}); err == nil {
		t.Error("sparql without -query accepted")
	}
}

func TestRunExplain(t *testing.T) {
	dir := writeFixtures(t)
	plan := fixtureFile(t, dir, "Q2")
	if err := run([]string{"explain", "-entry", "nljoin-inner-tbscan", plan}); err != nil {
		t.Errorf("explain -entry: %v", err)
	}
	qfile := filepath.Join(dir, "q.rq")
	query := `PREFIX preduri: <http://optimatch/pred/>
SELECT DISTINCT ?s WHERE { ?s preduri:hasPopType ?t . FILTER NOT EXISTS { ?s preduri:hasJoinType ?j } ?x preduri:hasTotalCost ?c }`
	if err := os.WriteFile(qfile, []byte(query), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := captureStdout(t, func() error { return run([]string{"explain", "-query", qfile, plan}) })
	if err != nil {
		t.Errorf("explain -query: %v", err)
	}
	// The canonical query opens the explanation: full IRIs, no prologue.
	canonical := `SELECT DISTINCT ?s WHERE {
  ?s <http://optimatch/pred/hasPopType> ?t .
  FILTER NOT EXISTS {
    ?s <http://optimatch/pred/hasJoinType> ?j .
  }
  ?x <http://optimatch/pred/hasTotalCost> ?c .
}
`
	if !strings.HasPrefix(out, "plan Q2\n"+canonical+"\n3 row(s)") {
		t.Errorf("explain -query does not open with the canonical query:\n%s", out)
	}
	for name, args := range map[string][]string{
		"neither -query nor -entry": {"explain", plan},
		"both":                      {"explain", "-query", qfile, "-entry", "sort-spill", plan},
		"no plan":                   {"explain", "-entry", "sort-spill"},
		"a directory of plans":      {"explain", "-entry", "sort-spill", dir},
		"an unknown entry":          {"explain", "-entry", "no-such-entry", plan},
		"a missing query file":      {"explain", "-query", filepath.Join(dir, "missing.rq"), plan},
	} {
		if err := run(args); err == nil {
			t.Errorf("explain with %s accepted", name)
		}
	}
}

// A query Parse refuses for its shape, or for nesting past its bound, fails
// both commands that take one, with Parse's message, before any plan is read.
func TestRunRefusedQuery(t *testing.T) {
	dir := writeFixtures(t)
	qfile := filepath.Join(dir, "q.rq")
	for query, want := range map[string]string{
		`SELECT ?s WHERE { ?s preduri:hasPopType ?t { FILTER(BOUND(?t)) } }`:                  "sparql: FILTER(BOUND(?t)) uses ?t from outside its group, where nothing binds it in every row",
		"SELECT ?s WHERE " + strings.Repeat("{ ", 65) + "?s ?p ?t" + strings.Repeat(" }", 65): "sparql: query nests deeper than 64",
	} {
		if err := os.WriteFile(qfile, []byte("PREFIX preduri: <http://optimatch/pred/>\n"+query), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, args := range [][]string{{"sparql", "-query", qfile, dir}, {"explain", "-query", qfile, fixtureFile(t, dir, "Q2")}} {
			if err := run(args); err == nil || err.Error() != want {
				t.Errorf("%s: err = %v, want %s", args[0], err, want)
			}
		}
	}
}

func TestRunKBCanonicalAndFile(t *testing.T) {
	dir := writeFixtures(t)
	if err := run([]string{"kb", dir}); err != nil {
		t.Errorf("kb canonical: %v", err)
	}
	// Saved KB file.
	kfile := filepath.Join(dir, "kb.json")
	f, err := os.Create(kfile)
	if err != nil {
		t.Fatal(err)
	}
	if err := kb.MustCanonical().Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := run([]string{"kb", "-kb", kfile, fixtureFile(t, dir, "Q2")}); err != nil {
		t.Errorf("kb from file: %v", err)
	}
	// Corrupt KB file.
	bad := filepath.Join(dir, "badkb.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"kb", "-kb", bad, dir}); err == nil {
		t.Error("corrupt kb accepted")
	}
}

func TestRunUsageAndErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no args accepted")
	}
	if err := run([]string{"frobnicate"}); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if err := run([]string{"help"}); err != nil {
		t.Errorf("help: %v", err)
	}
}

func TestResolvePatternJSONName(t *testing.T) {
	dir := t.TempDir()
	p := pattern.A()
	p.Name = ""
	data, _ := json.Marshal(p)
	file := filepath.Join(dir, "mypattern.json")
	if err := os.WriteFile(file, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := resolvePattern(file)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "mypattern" {
		t.Errorf("name = %q, want mypattern", got.Name)
	}
}

// TestResolvePattern names every built-in pattern by its letter, in either
// case, and nothing past G.
func TestResolvePattern(t *testing.T) {
	for i, want := range pattern.Extended() {
		for _, letter := range []string{string(rune('a' + i)), string(rune('A' + i))} {
			got, err := resolvePattern(letter)
			if err != nil || got.Name != want.Name {
				t.Errorf("resolvePattern(%q) = %v, %v; want %q", letter, got, err, want.Name)
			}
		}
	}
	for _, spec := range []string{"h", "`"} {
		if _, err := resolvePattern(spec); err == nil {
			t.Errorf("resolvePattern(%q) accepted", spec)
		}
	}
}

func TestRunKBExtended(t *testing.T) {
	dir := writeFixtures(t)
	if err := run([]string{"kb", "-extended", dir}); err != nil {
		t.Errorf("kb -extended: %v", err)
	}
}

func TestRunStats(t *testing.T) {
	dir := writeFixtures(t)
	if err := run([]string{"stats", "-k", "2", dir}); err != nil {
		t.Errorf("stats: %v", err)
	}
	if err := run([]string{"stats", "-k", "9", dir}); err == nil {
		t.Error("k > plans accepted")
	}
	if err := run([]string{"stats"}); err == nil {
		t.Error("stats without inputs accepted")
	}
}

// TestLoadEngine: file and directory arguments load as one batch, in argument
// order and each directory in its listing's order, and the first file refused
// — not the first directory holding one — fails the command by name.
func TestLoadEngine(t *testing.T) {
	dir := writeFixtures(t)
	extra := filepath.Join(t.TempDir(), "extra.exfmt")
	if err := os.WriteFile(extra, []byte(qep.Text(fixtures.Renamed(fixtures.Clean(), "EXTRA"))), 0o644); err != nil {
		t.Fatal(err)
	}
	e, err := loadEngine([]string{dir, extra})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, p := range e.Plans() {
		ids = append(ids, p.ID)
	}
	names, _, err := core.ReadExplainDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, name := range names {
		want = append(want, strings.TrimSuffix(name, ".exfmt"))
	}
	want = append(want, "EXTRA")
	if strings.Join(ids, " ") != strings.Join(want, " ") || e.Generation() != 1 {
		t.Errorf("loaded %v at generation %d, want %v at 1", ids, e.Generation(), want)
	}

	bad := t.TempDir()
	for name, text := range map[string]string{
		"a.txt": qep.Text(fixtures.Figure1()),
		"b.txt": "Plan Details:\nnot a plan",
		"c.txt": qep.Text(fixtures.Figure1()), // same ID as a.txt
	} {
		if err := os.WriteFile(filepath.Join(bad, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{bad}, filepath.Join(bad, "b.txt")},
		{[]string{extra, bad}, filepath.Join(bad, "b.txt")},
		{[]string{extra, dir, extra}, extra},
	} {
		_, err := loadEngine(tc.args)
		if err == nil || !strings.HasPrefix(err.Error(), tc.want+": ") {
			t.Errorf("loadEngine(%v) = %v, want an error naming %s", tc.args, err, tc.want)
		}
	}
}
