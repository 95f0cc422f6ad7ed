package kb

import (
	"strings"
	"testing"

	"optimatch/internal/fixtures"
	"optimatch/internal/pattern"
	"optimatch/internal/rdf"
	"optimatch/internal/transform"
)

// FuzzTemplate feeds the handler tagging language arbitrary template bytes,
// the way POST /api/kb/entries does, against the handler aliases of patterns
// A–G. No input may panic the parser. Whatever validateTemplate accepts must
// then expand without error whatever the match binds — every alias to an
// operator, and every alias to a base object: an ANY handler can be either, so
// Build cannot know and expansion has to be total (a saved entry whose
// template errors at match time fails every RunKB over a plan it matches).
// Escaping each '@' as "@@" turns any text into a template that validates
// against every alias set and expands to the text, and a template without tags
// expands to itself.
func FuzzTemplate(f *testing.F) {
	var aliasSets []map[string]bool
	for _, p := range []*pattern.Pattern{pattern.A(), pattern.B(), pattern.C(), pattern.D(), pattern.E(), pattern.F(), pattern.G()} {
		c, err := pattern.Compile(p)
		if err != nil {
			f.Fatal(err)
		}
		aliasSets = append(aliasSets, (&Entry{compiled: c}).Aliases())
	}

	// One plan supplies both kinds of resource a handler can be bound to.
	plan := fixtures.Figure1()
	r := transform.Transform(plan)
	var object rdf.Term
	for _, obj := range plan.Objects {
		object = r.ObjIRI(obj)
	}
	operator := r.PopIRI(plan.Ops()[0])
	if r.Operator(operator) == nil || r.Object(object) == nil {
		f.Fatal("fixture plan yields no operator or no base object term")
	}
	occurrence := func(aliases map[string]bool, to rdf.Term) *Occurrence {
		bind := make(map[string]rdf.Term, len(aliases))
		for a := range aliases {
			bind[a] = to
		}
		return &Occurrence{Plan: plan, Result: r, Bindings: bind}
	}

	// Every shipped template, beside the first alias set that accepts it.
	for _, k := range []*KnowledgeBase{MustCanonical(), MustExtended()} {
		for _, e := range k.Entries() {
			for _, rec := range e.Recommendations {
				which := 0
				for i, aliases := range aliasSets {
					if _, err := validateTemplate(rec.Template, aliases); err == nil {
						which = i
						break
					}
				}
				f.Add(rec.Template, uint8(which))
			}
		}
	}
	for _, tmpl := range []string{"@", "@[A,", "@A.(X)", "@BASE4.COST", "@[TOP, BASE4](INPUT)", "a@@b", strings.Repeat("@", 64<<10)} {
		f.Add(tmpl, uint8(0))
	}

	f.Fuzz(func(t *testing.T, tmpl string, which uint8) {
		aliases := aliasSets[int(which)%len(aliasSets)]
		onOperator, onObject := occurrence(aliases, operator), occurrence(aliases, object)

		if nodes, err := validateTemplate(tmpl, aliases); err == nil {
			tagged := false
			for _, n := range nodes {
				tagged = tagged || n.literal == ""
			}
			for _, o := range []*Occurrence{onOperator, onObject} {
				got, err := expandNodes(nodes, o)
				if err != nil {
					t.Fatalf("validateTemplate accepted %q, expansion fails: %v", tmpl, err)
				}
				if want := strings.ReplaceAll(tmpl, "@@", "@"); !tagged && got != want {
					t.Fatalf("template %q has no tags and expands to %q, want %q", tmpl, got, want)
				}
			}
		}

		escaped := strings.ReplaceAll(tmpl, "@", "@@")
		nodes, err := validateTemplate(escaped, aliases)
		if err != nil {
			t.Fatalf("escaped template %q refused: %v", escaped, err)
		}
		if got, err := expandNodes(nodes, onObject); err != nil || got != tmpl {
			t.Fatalf("escaped template %q expands to %q, %v; want the text it escapes", escaped, got, err)
		}
	})
}
