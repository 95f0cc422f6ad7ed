package pattern

import (
	"reflect"
	"strings"
	"testing"

	"optimatch/internal/sparql"
)

// poisonBodies are pattern documents the binaries before Compile parsed its
// own output saved into a knowledge base although no scan could run them:
// each rendered to query text the SPARQL parser refuses.
var poisonBodies = []string{
	`{"name":"inf","pops":[{"ID":1,"type":"NLJOIN","popProperties":[{"id":"hasTotalCost","sign":">","value":"Inf"}]}]}`,
	`{"name":"space","pops":[{"ID":1,"type":"NLJOIN","popProperties":[{"id":"has TotalCost","sign":">","value":"1"}]}]}`,
	`{"name":"brace","pops":[{"ID":1,"type":"NLJOIN","popProperties":[{"id":"hasTotalCost}","sign":">","value":"1"}]}]}`,
}

// FuzzCompile feeds FromJSON + Compile arbitrary pattern documents, the way
// POST /api/search and /api/kb/entries do. No input may panic. Whatever
// FromJSON accepts must compile — Compile parses what it generates, so an
// error there means Validate let through something the compiler pastes into
// the query and the parser refuses —, must project exactly the handler
// aliases in handler order, each unique regardless of case, must parse to a
// query the printer prints as a fixed point of Parse and String, and must
// compile to the same text after a round trip through its JSON form.
func FuzzCompile(f *testing.F) {
	for _, p := range Extended() {
		data, err := p.ToJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, body := range poisonBodies {
		f.Add([]byte(body))
	}
	one := func(pop string) []byte { return []byte(`{"name":"s","pops":[` + pop + `]}`) }
	for _, v := range []string{"1e400", "0x1p-2", "1_0", "NaN", ".5", "5.", "+5", "-0"} {
		for _, sign := range []string{">", "="} {
			f.Add(one(`{"ID":1,"type":"SORT","popProperties":[{"id":"hasIOCost","sign":"` + sign + `","value":"` + v + `"}]}`))
		}
	}
	f.Add(one(`{"ID":1,"type":"` + strings.Repeat(`T\"\\\n`, 16<<10) + `","popProperties":[]}`))
	f.Add(one(`{"ID":1,"type":"ANY","alias":"A?B","popProperties":[]}`))
	f.Add(one(`{"ID":1,"type":"ANY","popProperties":[{"id":"hasOutputStream","value":1,"sign":"Descendant"}]}`))
	f.Add(one(`{"ID":1,"type":"ANY","popProperties":[{"id":"hasIOCost","sign":"<","value":[1]}]}`))
	f.Add([]byte(`{"name":"d","pops":[{"ID":1,"type":"ANY","popProperties":[]}],"planDetails":{"hasTotalCost":"> .5","has Total":"= x","hasIOCost":"fast"}}`))
	f.Add([]byte(`{"name":"a","pops":[{"ID":1,"type":"ANY","alias":"top","popProperties":[]},{"ID":2,"type":"ANY","alias":"TOP","popProperties":[]}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := FromJSON(data)
		if err != nil {
			return
		}
		c, err := Compile(p)
		if err != nil {
			t.Fatalf("FromJSON accepted what Compile refuses: %v\n%s", err, data)
		}
		if len(c.Parsed.Select) != len(c.Handlers) {
			t.Fatalf("query projects %d columns for %d handlers\n%s", len(c.Parsed.Select), len(c.Handlers), c.Query)
		}
		for i, h := range c.Handlers {
			if got := c.Parsed.Select[i].Alias; got != h.Alias {
				t.Fatalf("column %d is %q, handler alias %q\n%s", i, got, h.Alias, c.Query)
			}
			// Aliases are unique regardless of case: each finds its own column
			// in any spelling.
			for _, spelling := range []string{h.Alias, strings.ToLower(h.Alias), strings.ToUpper(h.Alias)} {
				if got := c.Columns.Index(spelling); got != i {
					t.Fatalf("alias %q finds column %d, want %d\n%s", spelling, got, i, c.Query)
				}
			}
		}
		// The text Compile emits is persisted and served as it is; what it
		// parses to is pinned to the printer.
		printed := c.Parsed.String()
		back, err := sparql.Parse(printed)
		if err != nil {
			t.Fatalf("Parse(String()): %v\n%s", err, printed)
		}
		if again := back.String(); again != printed {
			t.Fatalf("the printed query prints otherwise:\n%s\nvs\n%s", printed, again)
		}
		if a, b := ast(c.Parsed), ast(back); !reflect.DeepEqual(a, b) {
			t.Fatalf("the printed query parses to another AST:\n%s\n got: %#v\nwant: %#v", printed, b, a)
		}
		again, err := p.ToJSON()
		if err != nil {
			t.Fatal(err)
		}
		p2, err := FromJSON(again)
		if err != nil {
			t.Fatalf("FromJSON refuses ToJSON's output: %v\n%s", err, again)
		}
		c2, err := Compile(p2)
		if err != nil {
			t.Fatal(err)
		}
		if c2.Query != c.Query {
			t.Fatalf("query changed across a JSON round trip:\n%s\nvs\n%s", c.Query, c2.Query)
		}
	})
}

// ast is what Parse read into q, its prefix table and memoised analysis
// aside.
func ast(q *sparql.Query) sparql.Query {
	return sparql.Query{Distinct: q.Distinct, Star: q.Star, Select: q.Select, Where: q.Where,
		GroupBy: q.GroupBy, Having: q.Having, OrderBy: q.OrderBy, Limit: q.Limit, Offset: q.Offset}
}
