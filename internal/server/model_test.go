package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"optimatch/internal/cache"
	"optimatch/internal/core"
	"optimatch/internal/fixtures"
	"optimatch/internal/kb"
	"optimatch/internal/pattern"
	"optimatch/internal/qep"
	"optimatch/internal/workload"
)

// repoModel is the state a server over store.Memory must serve: the plans it
// acknowledged, in load order, and the knowledge-base entries added to the
// canonical ones, in order, each as the body that added it. It answers every
// mutation's status itself; a read's answer is that of a fresh server loaded
// from it through single uploads and entry adds.
type repoModel struct {
	ids, texts []string
	entries    []string
	names      map[string]bool // entry names taken, the canonical ones included
	ref        *Server         // the fresh server of the current state, nil after a mutation
}

func (m *repoModel) resident(id string) int {
	for i, have := range m.ids {
		if have == id {
			return i
		}
	}
	return -1
}

// upload is the status the model answers a plan upload with, and the plan's
// ID when the text parses; a 201 adds the plan.
func (m *repoModel) upload(text string) (string, int) {
	p, err := qep.Parse(text)
	switch {
	case err != nil:
		return "", http.StatusUnprocessableEntity
	case m.resident(p.ID) >= 0:
		return p.ID, http.StatusConflict
	}
	m.ids, m.texts, m.ref = append(m.ids, p.ID), append(m.texts, text), nil
	return p.ID, http.StatusCreated
}

func (m *repoModel) remove(id string) int {
	i := m.resident(id)
	if i < 0 {
		return http.StatusNotFound
	}
	m.ids, m.texts, m.ref = append(m.ids[:i:i], m.ids[i+1:]...), append(m.texts[:i:i], m.texts[i+1:]...), nil
	return http.StatusOK
}

func (m *repoModel) addEntry(name, body string) int {
	if m.names[name] {
		return http.StatusUnprocessableEntity
	}
	m.names[name], m.entries, m.ref = true, append(m.entries, body), nil
	return http.StatusCreated
}

// answer is what the model's state answers a read with.
func (m *repoModel) answer(t *testing.T, method, path, body string) (int, string) {
	t.Helper()
	if m.ref == nil {
		m.ref = New(core.New(), nil)
		for _, text := range m.texts {
			if status, got := serve(m.ref, "POST", "/api/plans", text); status != http.StatusCreated {
				t.Fatalf("the model's reference refused a plan: %d %s", status, got)
			}
		}
		for _, entry := range m.entries {
			if status, got := serve(m.ref, "POST", "/api/kb/entries", entry); status != http.StatusCreated {
				t.Fatalf("the model's reference refused an entry: %d %s", status, got)
			}
		}
	}
	return serve(m.ref, method, path, body)
}

// serve runs one request through s's handler.
func serve(s *Server, method, path, body string) (int, string) {
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
	return w.Code, w.Body.String()
}

// modelPool is the plans the model test draws from: the fixtures and small
// generated plans, some sharing an ID with a fixture but not its text.
func modelPool(t *testing.T) []string {
	t.Helper()
	w, err := workload.Generate(workload.Config{Seed: 5, NumPlans: 10, MinOps: 20, MaxOps: 40, InjectA: 2, InjectB: 2, InjectC: 2})
	if err != nil {
		t.Fatal(err)
	}
	var pool []string
	for _, p := range append(fixtures.All(), w.Plans...) {
		pool = append(pool, qep.Text(p))
	}
	return pool
}

// TestModelSequential drives random sequences of uploads (single, and half
// the plans as NDJSON batches of bare strings), deletes, knowledge-base adds,
// searches, kb/run and plan lists against a server over store.Memory with a
// result cache, and holds every status, per-record batch outcome and read
// body to repoModel. Each seed is a fixed history; a failure names it.
func TestModelSequential(t *testing.T) {
	pool := modelPool(t)
	patterns := pattern.Extended()
	for _, seed := range []int64{1, 2, 3, 4} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			s := New(core.New(), nil, WithResultCache(cache.New(cache.Config{MaxBytes: 8 << 20})))
			m := &repoModel{names: map[string]bool{}}
			for _, e := range kb.MustCanonical().Entries() {
				m.names[e.Name] = true
			}
			pick := func() string {
				if rng.Intn(8) == 0 {
					return "not a plan"
				}
				return pool[rng.Intn(len(pool))]
			}
			read := func(n int, method, path, body string) {
				t.Helper()
				status, got := serve(s, method, path, body)
				wantStatus, want := m.answer(t, method, path, body)
				if status != wantStatus || got != want {
					t.Fatalf("step %d, %s %s: %d\n%.400s\nthe model answers %d\n%.400s", n, method, path, status, got, wantStatus, want)
				}
			}
			for n := 0; n < 60; n++ {
				switch op := rng.Intn(10); {
				case op < 3 && rng.Intn(2) == 0: // a batch of bare strings
					texts := make([]string, 1+rng.Intn(4))
					var body strings.Builder
					for i := range texts {
						texts[i] = pick()
						line, err := json.Marshal(texts[i])
						if err != nil {
							t.Fatal(err)
						}
						body.Write(line)
						body.WriteByte('\n')
					}
					status, got := serve(s, "POST", "/api/plans:batch", body.String())
					var resp batchResponse
					if err := json.Unmarshal([]byte(got), &resp); err != nil || len(resp.Results) != len(texts) {
						t.Fatalf("step %d, batch of %d: %d %.400s", n, len(texts), status, got)
					}
					created := 0
					for i, text := range texts {
						id, want := m.upload(text)
						if r := resp.Results[i]; r.Status != want || r.ID != id {
							t.Fatalf("step %d, batch record %d: %d %q, the model answers %d %q (%s)", n, i, r.Status, r.ID, want, id, r.Error)
						}
						if want == http.StatusCreated {
							created++
						}
					}
					want := http.StatusMultiStatus
					switch created {
					case 0:
						want = http.StatusUnprocessableEntity
					case len(texts):
						want = http.StatusCreated
					}
					if status != want {
						t.Fatalf("step %d, batch: %d, the model answers %d", n, status, want)
					}
				case op < 3: // single uploads
					for k := 1 + rng.Intn(2); k > 0; k-- {
						text := pick()
						status, got := serve(s, "POST", "/api/plans", text)
						if _, want := m.upload(text); status != want {
							t.Fatalf("step %d, upload: %d %.200s, the model answers %d", n, status, got, want)
						}
					}
				case op == 3: // a delete, of a resident plan most of the time
					id := "Q404"
					if len(m.ids) > 0 && rng.Intn(4) > 0 {
						id = m.ids[rng.Intn(len(m.ids))]
					}
					if status, got := serve(s, "DELETE", "/api/plans/"+id, ""); status != m.remove(id) {
						t.Fatalf("step %d, delete %s: %d %s", n, id, status, got)
					}
				case op == 4: // a knowledge-base add, a name taken now and then
					p := *patterns[rng.Intn(len(patterns))]
					p.Name = fmt.Sprint("model-", rng.Intn(6))
					b, err := json.Marshal(addEntryRequest{Pattern: &p, Recommendations: []kb.Recommendation{{
						Title: "look <here>", Template: "seen at @TOP",
					}}})
					if err != nil {
						t.Fatal(err)
					}
					if status, got := serve(s, "POST", "/api/kb/entries", string(b)); status != m.addEntry(p.Name, string(b)) {
						t.Fatalf("step %d, add entry %s: %d %s", n, p.Name, status, got)
					}
				case op < 7:
					b, err := patterns[rng.Intn(len(patterns))].ToJSON()
					if err != nil {
						t.Fatal(err)
					}
					read(n, "POST", "/api/search", string(b))
				case op < 9:
					read(n, "POST", "/api/kb/run", "")
				default:
					read(n, "GET", "/api/plans", "")
				}
			}
			read(60, "POST", "/api/kb/run", "")
			read(60, "GET", "/api/plans", "")
		})
	}
}
