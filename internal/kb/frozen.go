package kb

import (
	"optimatch/internal/qep"
	"optimatch/internal/rdf"
	"optimatch/internal/transform"
)

// Occurrence and Entry.Apply are the map-keyed form of an occurrence that the
// benchmark module (bench/layers.go) still builds. Nothing else uses them;
// they go when the benchmark is re-baselined (ROADMAP item 8).
type Occurrence struct {
	Plan     *qep.Plan
	Result   *transform.Result
	Bindings map[string]rdf.Term // alias -> matched resource
}

// Apply copies each occurrence's bindings into a row in the entry's column
// order and ranks the rows with Recommend. It never fails.
func (e *Entry) Apply(occs []Occurrence) ([]Ranked, error) {
	cols := e.compiled.Columns
	ms := make([]transform.Match, len(occs))
	for i, o := range occs {
		cells := make([]rdf.Term, len(cols.Names()))
		for c, name := range cols.Names() {
			cells[c] = o.Bindings[name]
		}
		ms[i] = transform.Match{Result: o.Result, Cols: cols, Cells: cells}
	}
	return e.Recommend(ms), nil
}
