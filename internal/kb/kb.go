package kb

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"optimatch/internal/pattern"
	"optimatch/internal/sparql"
	"optimatch/internal/transform"
)

// Recommendation is one expert remedy attached to a pattern. Template is
// written in the handler tagging language and is adapted to each matched
// plan's context at report time.
type Recommendation struct {
	Title    string  `json:"title"`
	Template string  `json:"template"`
	Category string  `json:"category,omitempty"` // INDEX, REWRITE, STATISTICS, CONFIG, MQT, CONSTRAINT
	Weight   float64 `json:"weight,omitempty"`   // expert prior in (0, 1]; 0 means 1
	// MaxOccurrences limits how many occurrences of a common pattern produce
	// a recommendation line (0 = all occurrences; paper Section 2.3).
	MaxOccurrences int `json:"maxOccurrences,omitempty"`
}

// Entry is one knowledge-base record: the problem pattern preserved both as
// an executable SPARQL query and as its declarative (JSON) form, the expert
// recommendations, and the ranking profile.
type Entry struct {
	Name            string           `json:"name"`
	Description     string           `json:"description,omitempty"`
	Pattern         *pattern.Pattern `json:"pattern"`
	SPARQL          string           `json:"sparql"`
	Recommendations []Recommendation `json:"recommendations"`
	Profile         []float64        `json:"profile,omitempty"`

	compiled *pattern.Compiled
	shape    sparql.Shape // of compiled.Parsed; the zero Shape for none
	// templates holds the parsed template of every recommendation, by index:
	// Add parses each once, to validate it, and Apply expands from the nodes.
	templates [][]templateNode
}

// Compiled returns the compiled form of the entry's pattern.
func (e *Entry) Compiled() *pattern.Compiled { return e.compiled }

// kbIDs hands every knowledge base a process-unique instance ID, so two
// independently built KBs never share a cache identity even when both sit
// at the same version.
var kbIDs atomic.Uint64

// KnowledgeBase is an ordered collection of entries. It is safe for
// concurrent use: every method takes mu, so its callers need no lock of their
// own, and a scan that outlives one call works on a Snapshot.
type KnowledgeBase struct {
	mu sync.RWMutex

	// id and version together identify the exact entry list for caching:
	// id is unique per lineage (snapshots inherit it), version is bumped by
	// every Add/Remove. Entries themselves are immutable after Add, so an
	// unchanged (id, version) pair means unchanged content.
	id      uint64
	version uint64

	entries []*Entry
	// scan is the entries laid out for a scan (Scan), made by the first Scan
	// of a version: nil until then, never edited after.
	scan *Scan
}

// New returns an empty knowledge base.
func New() *KnowledgeBase { return &KnowledgeBase{id: kbIDs.Add(1)} }

// CacheKey returns a token identifying this knowledge base's exact entry
// list, suitable as a cache-key component: two knowledge bases with equal
// keys hold identical entries. Snapshots share the key of the state they
// were taken from.
func (kb *KnowledgeBase) CacheKey() string {
	kb.mu.RLock()
	defer kb.mu.RUnlock()
	return fmt.Sprintf("kb%d.%d", kb.id, kb.version)
}

// Len reports the number of entries.
func (kb *KnowledgeBase) Len() int { return len(kb.Entries()) }

// Entries returns the entries in insertion order. The slice is shared; do
// not mutate. Later mutations never write into it (Insert appends past its
// length, Remove copies), so it stays the list of the moment of the call.
func (kb *KnowledgeBase) Entries() []*Entry {
	kb.mu.RLock()
	defer kb.mu.RUnlock()
	return kb.entries
}

// Entry returns the named entry, or nil.
func (kb *KnowledgeBase) Entry(name string) *Entry { return find(kb.Entries(), name) }

func find(entries []*Entry, name string) *Entry {
	for _, e := range entries {
		if e.Name == name {
			return e
		}
	}
	return nil
}

// Add saves a problem pattern with its recommendations (Algorithm 4:
// SavingRecommendationsKB): Build, then Insert.
func (kb *KnowledgeBase) Add(p *pattern.Pattern, recs ...Recommendation) (*Entry, error) {
	e, err := kb.Build(p, recs...)
	if err != nil {
		return nil, err
	}
	if err := kb.Insert(e); err != nil {
		return nil, err
	}
	return e, nil
}

// Build makes the entry Add would save, without saving it: the knowledge base
// is read (the name must be free) and not changed. The pattern is compiled to
// SPARQL and preserved in both forms, and every recommendation template is
// parsed and checked against the pattern's handler aliases, field names and
// helper names, so that context adaptation cannot fail later: whatever a
// handler turns out to be bound to, Recommend renders every tag Build accepted
// (a field the bound resource does not have renders "(n/a)").
func (kb *KnowledgeBase) Build(p *pattern.Pattern, recs ...Recommendation) (*Entry, error) {
	if p.Name == "" {
		return nil, fmt.Errorf("kb: pattern must be named")
	}
	if kb.Entry(p.Name) != nil {
		return nil, fmt.Errorf("kb: entry %q already exists", p.Name)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("kb: entry %q has no recommendations", p.Name)
	}
	compiled, err := pattern.Compile(p)
	if err != nil {
		return nil, fmt.Errorf("kb: entry %q: %w", p.Name, err)
	}
	e := &Entry{
		Name:            p.Name,
		Description:     p.Description,
		Pattern:         p,
		SPARQL:          compiled.Query,
		Recommendations: recs,
		Profile:         DefaultProfile(p),
		compiled:        compiled,
	}
	e.shape, _ = sparql.ShapeOf(compiled.Parsed)
	for _, rec := range recs {
		if strings.TrimSpace(rec.Template) == "" {
			return nil, fmt.Errorf("kb: entry %q: recommendation %q has empty template", p.Name, rec.Title)
		}
		nodes, err := validateTemplate(rec.Template, compiled.Columns)
		if err != nil {
			return nil, fmt.Errorf("kb: entry %q: recommendation %q: %w", p.Name, rec.Title, err)
		}
		e.templates = append(e.templates, nodes)
	}
	return e, nil
}

// Insert appends an entry Build made and bumps the version. It refuses only a
// name taken since the entry was built.
func (kb *KnowledgeBase) Insert(e *Entry) error {
	kb.mu.Lock()
	defer kb.mu.Unlock()
	if find(kb.entries, e.Name) != nil {
		return fmt.Errorf("kb: entry %q already exists", e.Name)
	}
	kb.entries = append(kb.entries, e)
	kb.version++
	kb.scan = nil
	return nil
}

// Remove deletes the named entry. It reports whether the entry existed.
// The entries slice is copied on removal so that concurrent readers holding
// the result of a previous Entries or Snapshot call are unaffected.
func (kb *KnowledgeBase) Remove(name string) bool {
	kb.mu.Lock()
	defer kb.mu.Unlock()
	for i, e := range kb.entries {
		if e.Name == name {
			kb.entries = append(kb.entries[:i:i], kb.entries[i+1:]...)
			kb.version++
			kb.scan = nil
			return true
		}
	}
	return false
}

// Snapshot returns a shallow copy of the knowledge base: a new
// KnowledgeBase whose entry list is fixed at the time of the call. Entries
// themselves are immutable after Add, so the snapshot is safe to scan while
// the original keeps mutating.
func (kb *KnowledgeBase) Snapshot() *KnowledgeBase {
	kb.mu.RLock()
	defer kb.mu.RUnlock()
	return &KnowledgeBase{
		id:      kb.id,
		version: kb.version,
		entries: append([]*Entry(nil), kb.entries...),
		scan:    kb.scan,
	}
}

// Scan returns the entries laid out for a scan, as of the moment of the call.
// It is derived once per version, by the first call after Insert or Remove
// made the version, under the lock they take; a knowledge base loaded entry by
// entry pays for one layout, not one per entry. Its slices are shared; do not
// mutate.
func (kb *KnowledgeBase) Scan() Scan {
	kb.mu.RLock()
	s := kb.scan
	kb.mu.RUnlock()
	if s != nil {
		return *s
	}
	kb.mu.Lock()
	defer kb.mu.Unlock()
	if kb.scan == nil {
		s := schedule(kb.entries)
		kb.scan = &s
	}
	return *kb.scan
}

// Ranked is one context-adapted, scored recommendation produced by matching
// a knowledge-base entry against a plan.
type Ranked struct {
	Entry          *Entry
	Recommendation Recommendation
	Occurrence     transform.Match
	Text           string  // template expanded in the plan's context
	Confidence     float64 // [0, 1]
}

// Recommend expands and scores the entry's recommendations over the pattern's
// occurrences in one plan (rows of the entry's query), honoring each
// recommendation's occurrence limit, in SortOccurrences order.
func (e *Entry) Recommend(occs []transform.Match) []Ranked {
	SortOccurrences(occs)
	var out []Ranked
	for ri, rec := range e.Recommendations {
		limit := rec.MaxOccurrences
		for i, m := range occs {
			if limit > 0 && i >= limit {
				break
			}
			out = append(out, Ranked{
				Entry:          e,
				Recommendation: rec,
				Occurrence:     m,
				Text:           expand(e.templates[ri], m),
				Confidence:     Confidence(e.Profile, Features(m), rec.Weight),
			})
		}
	}
	SortRanked(out)
	return out
}

// SortRanked orders recommendations by confidence (descending), breaking
// ties by entry name and text for determinism.
func SortRanked(rs []Ranked) {
	sort.SliceStable(rs, func(i, j int) bool {
		if rs[i].Confidence != rs[j].Confidence {
			return rs[i].Confidence > rs[j].Confidence
		}
		if rs[i].Entry.Name != rs[j].Entry.Name {
			return rs[i].Entry.Name < rs[j].Entry.Name
		}
		return rs[i].Text < rs[j].Text
	})
}

// kbFile is the persistence envelope.
type kbFile struct {
	Version int      `json:"version"`
	Entries []*Entry `json:"entries"`
}

// Save writes the knowledge base as JSON.
func (kb *KnowledgeBase) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(kbFile{Version: 1, Entries: kb.Entries()})
}

// Load reads a knowledge base written by Save, restoring every entry.
func Load(r io.Reader) (*KnowledgeBase, error) {
	var f kbFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("kb: %w", err)
	}
	out := New()
	for _, e := range f.Entries {
		if err := out.Restore(e); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Restore adds an entry decoded from its persisted JSON form (an element of
// Save's file, a store's journal record) the way Add adds a new one: the
// pattern is recompiled and every template re-validated. The stored SPARQL
// is not trusted — after a hand edit or version skew the recompiled query
// wins — and a stored ranking profile of the right length is kept.
func (kb *KnowledgeBase) Restore(e *Entry) error {
	if e == nil {
		return fmt.Errorf("kb: null entry")
	}
	if e.Pattern == nil {
		return fmt.Errorf("kb: entry %q has no pattern", e.Name)
	}
	e.Pattern.Name = e.Name
	e.Pattern.Description = e.Description
	built, err := kb.Build(e.Pattern, e.Recommendations...)
	if err != nil {
		return err
	}
	if len(e.Profile) == NumFeatures {
		built.Profile = e.Profile
	}
	return kb.Insert(built)
}
