package server

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"optimatch/internal/cache"
	"optimatch/internal/core"
	"optimatch/internal/fixtures"
	"optimatch/internal/kb"
	"optimatch/internal/obs"
	"optimatch/internal/pattern"
	"optimatch/internal/qep"
	"optimatch/internal/store"
)

// TestMetricsCatalogue holds DESIGN.md §10's metric table to what /metrics
// renders. The server is wired as optimatchd -data -cache-bytes wires it — one
// registry behind the engine's and the store's hooks, a durable store and the
// response cache — and sent one request per route; then every rendered
// family must be in the table, and every family in the table rendered. Each
// row's "moved by" column must name a test of this package whose source names
// the family, and each rendered family carries a HELP text.
func TestMetricsCatalogue(t *testing.T) {
	reg := obs.NewRegistry()
	st, err := store.Open(t.TempDir(),
		store.WithEngineOptions(core.WithInstrumentation(EngineInstrumentation(reg))),
		store.WithInstrumentation(StoreInstrumentation(reg)),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	ts := httptest.NewServer(New(st.Engine(), st.KB(), WithStore(st), WithMetrics(reg),
		WithResultCache(cache.New(cache.Config{MaxBytes: 1 << 20}))).Handler())
	t.Cleanup(ts.Close)

	plans := fixtures.All()
	var batch strings.Builder
	for _, p := range plans[1:] {
		line, _ := json.Marshal(qep.Text(p))
		batch.Write(append(line, '\n'))
	}
	search, err := pattern.A().ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	entry, err := json.Marshal(addEntryRequest{Pattern: pattern.F(), Recommendations: []kb.Recommendation{{Title: "t", Template: "look at @TOP"}}})
	if err != nil {
		t.Fatal(err)
	}
	first, last := plans[0].ID, plans[len(plans)-1].ID
	var exposition string
	for _, req := range []struct{ method, path, body string }{
		{"GET", "/healthz", ""},
		{"GET", "/readyz", ""},
		{"POST", "/api/plans", qep.Text(plans[0])},
		{"POST", "/api/plans:batch", batch.String()},
		{"GET", "/api/plans", ""},
		{"GET", "/api/plans/" + first + "/render", ""},
		{"GET", "/api/plans/" + first + "/rdf", ""},
		{"POST", "/api/search", string(search)},
		{"POST", "/api/sparql", sortQuery},
		{"GET", "/api/kb", ""},
		{"POST", "/api/kb/entries", string(entry)},
		{"DELETE", "/api/kb/entries/" + pattern.F().Name, ""},
		{"POST", "/api/kb/run", ""},
		{"DELETE", "/api/plans/" + last, ""},
		{"POST", "/api/admin/compact", ""},
		{"POST", "/api/admin/reopen", ""},
		{"GET", "/metrics", ""},
	} {
		resp, body := cacheReq(t, req.method, ts.URL+req.path, req.body, nil)
		if resp.StatusCode >= 300 {
			t.Fatalf("%s %s: status %d: %s", req.method, req.path, resp.StatusCode, body)
		}
		exposition = body
	}

	rendered, help := map[string]bool{}, map[string]string{}
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			rendered[strings.Fields(rest)[0]] = true
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, text, _ := strings.Cut(rest, " ")
			help[name] = strings.TrimSpace(text)
		}
	}
	listed := catalogue(t)
	for _, family := range sortedKeys(rendered) {
		if listed[family] == "" {
			t.Errorf("/metrics renders %s, which DESIGN.md §10's table lacks", family)
		}
		if help[family] == "" {
			t.Errorf("/metrics renders %s without a HELP text", family)
		}
	}
	tests := testSources(t)
	for _, family := range sortedKeys(listed) {
		if !rendered[family] {
			t.Errorf("DESIGN.md §10's table lists %s, which /metrics does not render", family)
		}
		switch src, ok := tests[listed[family]]; {
		case !ok:
			t.Errorf("%s is moved by %s, which is not a test of this package", family, listed[family])
		case !strings.Contains(src, family):
			t.Errorf("%s is moved by %s, which never names it", family, listed[family])
		}
	}
}

// catalogue returns the rows of DESIGN.md §10's metric table, the first table
// after "**Metric catalogue.**": the family in its second column, prefixed as
// /metrics renders it, → the test its last column names.
func catalogue(t *testing.T) map[string]string {
	t.Helper()
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "**Metric catalogue.**")
	if !ok {
		t.Fatal("DESIGN.md has no metric catalogue")
	}
	name := regexp.MustCompile("^`([a-z_]+)`$")
	test := regexp.MustCompile("^`(Test[A-Za-z0-9_]+)`$")
	families := map[string]string{}
	rows := 0
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			if rows > 0 {
				break
			}
			continue
		}
		if rows++; rows <= 2 { // the header and its rule
			continue
		}
		cells := strings.Split(line, "|")
		m := name.FindStringSubmatch(strings.TrimSpace(cells[2]))
		mover := test.FindStringSubmatch(strings.TrimSpace(cells[len(cells)-2]))
		if m == nil || mover == nil {
			t.Fatalf("catalogue row %q: want one `family` in the second column and one `TestName` in the last", line)
		}
		families["optimatch_"+m[1]] = mover[1]
	}
	return families
}

// testSources maps each Test function of this package's _test.go files to
// its source text.
func testSources(t *testing.T) map[string]string {
	t.Helper()
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	out := map[string]string{}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, path, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Test") {
				out[fn.Name.Name] = string(src[fset.Position(fn.Pos()).Offset:fset.Position(fn.End()).Offset])
			}
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
