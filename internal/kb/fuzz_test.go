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
// the way POST /api/kb/entries does, against the column tables of patterns
// A–G. No input may panic the parser. Whatever validateTemplate accepts must
// then expand whatever the match binds — every alias to an operator, and every
// alias to a base object: an ANY handler can be either, so Build cannot know —
// to what looking each tag's alias up at expansion time gives (oracleExpand):
// validateTemplate resolves the tags to columns once, and must resolve them to
// the columns the lookup finds. Escaping each '@' as "@@" turns any text into
// a template that validates against every column table and expands to the
// text, and a template without tags expands to itself.
func FuzzTemplate(f *testing.F) {
	var tables []*transform.Columns
	for _, p := range []*pattern.Pattern{pattern.A(), pattern.B(), pattern.C(), pattern.D(), pattern.E(), pattern.F(), pattern.G()} {
		c, err := pattern.Compile(p)
		if err != nil {
			f.Fatal(err)
		}
		tables = append(tables, c.Columns)
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
	occurrence := func(cols *transform.Columns, to rdf.Term) transform.Match {
		cells := make([]rdf.Term, len(cols.Names()))
		for c := range cells {
			cells[c] = to
		}
		return transform.Match{Result: r, Cols: cols, Cells: cells}
	}

	// Every shipped template, beside the first column table that accepts it.
	for _, k := range []*KnowledgeBase{MustCanonical(), MustExtended()} {
		for _, e := range k.Entries() {
			for _, rec := range e.Recommendations {
				which := 0
				for i, cols := range tables {
					if _, err := validateTemplate(rec.Template, cols); err == nil {
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
		cols := tables[int(which)%len(tables)]
		onOperator, onObject := occurrence(cols, operator), occurrence(cols, object)

		if nodes, err := validateTemplate(tmpl, cols); err == nil {
			tagged := false
			for _, n := range nodes {
				tagged = tagged || n.literal == ""
			}
			for _, m := range []transform.Match{onOperator, onObject} {
				got := expand(nodes, m)
				want, err := oracleExpand(nodes, asOccurrence(m))
				if err != nil || got != want {
					t.Fatalf("template %q expands to %q; looking each alias up gives %q, %v", tmpl, got, want, err)
				}
				if want := strings.ReplaceAll(tmpl, "@@", "@"); !tagged && got != want {
					t.Fatalf("template %q has no tags and expands to %q, want %q", tmpl, got, want)
				}
			}
		}

		escaped := strings.ReplaceAll(tmpl, "@", "@@")
		nodes, err := validateTemplate(escaped, cols)
		if err != nil {
			t.Fatalf("escaped template %q refused: %v", escaped, err)
		}
		if got := expand(nodes, onObject); got != tmpl {
			t.Fatalf("escaped template %q expands to %q; want the text it escapes", escaped, got)
		}
	})
}
