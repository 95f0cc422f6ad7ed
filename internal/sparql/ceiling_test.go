package sparql

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"optimatch/internal/rdf"
)

// TestRowCeilingBoundary decides at answers of MaxRows-1, MaxRows and
// MaxRows+1 rows, on every tail projectIDs has: the plain one, DISTINCT with
// and without the early shortcut, and a sorted window behind an OFFSET. An
// answer of at most MaxRows rows comes back whole; a longer one comes back as
// its first MaxRows rows — those the same query with LIMIT MaxRows answers —,
// Truncated, with ErrRowCeiling.
func TestRowCeilingBoundary(t *testing.T) {
	cases := []struct {
		text   string
		early  bool
		offset int // rows the window skips
	}{
		{`SELECT ?s ?o WHERE { ?s <urn:p> ?o }`, false, 0},
		{`SELECT DISTINCT ?s WHERE { ?s <urn:p> ?o }`, true, 0},
		{`SELECT DISTINCT ?s WHERE { ?s <urn:p> ?o }`, false, 0},
		{`SELECT ?s WHERE { ?s <urn:p> ?o } ORDER BY DESC(?o) OFFSET 1`, false, 1},
	}
	for _, triples := range []int{MaxRows - 1, MaxRows, MaxRows + 1, MaxRows + 2} {
		b := rdf.NewBuilder()
		for i := 0; i < triples; i++ {
			b.AddIDs(b.Intern(rdf.IRI(fmt.Sprintf("urn:s%d", i))), b.Intern(rdf.IRI("urn:p")), b.InternFloat(float64(i)))
		}
		g := b.Graph()
		for _, c := range cases {
			answer := triples - c.offset
			q := withTail(t, c.text, c.early)
			res, err := q.Exec(g)
			if answer <= MaxRows {
				if err != nil || res.Truncated || res.Len() != answer {
					t.Errorf("%s, early %v, %d rows: %d rows, truncated %v, %v; want the whole answer",
						c.text, c.early, answer, res.Len(), res.Truncated, err)
				}
				continue
			}
			if !errors.Is(err, ErrRowCeiling) || res == nil || !res.Truncated || res.Len() != MaxRows {
				t.Errorf("%s, early %v, %d rows: %v; want %d rows, truncated, and ErrRowCeiling", c.text, c.early, answer, err, MaxRows)
				continue
			}
			limited, err := withTail(t, fmt.Sprintf("%s LIMIT %d", c.text, MaxRows), c.early).Exec(g)
			if err != nil || !reflect.DeepEqual(res.Rows, limited.Rows) {
				t.Errorf("%s, early %v: the cut answer is not the first %d rows (%v)", c.text, c.early, MaxRows, err)
			}
		}
	}
}
