package sparql

import (
	"fmt"
	"math/bits"
	"strings"

	"optimatch/internal/rdf"
)

// Explanation is what one evaluation of a query against a graph decided and
// did, block by block: the join order the estimates chose, the estimate each
// step was placed with beside what the step then cost, which filters each step
// was handed, and where only a witness was looked for.
type Explanation struct {
	Query string // the query as Query.String prints it
	Rows  int    // rows of the result
	// JoinRows and MatchRows are the evaluation's counters (see EvalSnapshot);
	// the steps' Descends and Extends sum to them.
	JoinRows, MatchRows int64
	// Bailout: a required constant is missing from the graph, the WHERE
	// clause did not run.
	Bailout bool
	// Blocks lists a group's blocks after those of its FILTER [NOT] EXISTS
	// groups, from the root down.
	Blocks []BlockExplanation
}

// BlockExplanation is one block of triple patterns.
type BlockExplanation struct {
	// Where names the group the block belongs to, from the root down:
	// "WHERE", "WHERE > OPTIONAL", "WHERE > FILTER NOT EXISTS".
	Where string
	// Reached is false when the evaluation never ran the block; it has no
	// order then, and Steps lists the patterns as written.
	Reached bool
	// Tail is the position in Steps from which one witness was enough (see
	// blockRun.tail): len(Steps) when every row counted, 0 when the block only
	// had to succeed once per seed row, -1 once altogether.
	Tail  int
	Steps []StepExplanation
	// Late lists the group's filters no step was handed: they ran on the
	// rows of another element or at the end of the group.
	Late []string
}

// StepExplanation is one triple pattern at its place in the join order.
type StepExplanation struct {
	Pattern  string
	Textual  int     // the pattern's position in the block as written
	Estimate float64 // rows out per row in, as estimated when the step was placed
	Descends int64   // times the pattern was run on a row
	Extends  int64   // matches those runs tried to bind
	Filters  []string
}

// Explain evaluates q against g with default options and reports how.
func Explain(q *Query, g *rdf.Graph) (*Explanation, error) {
	p := q.Analysis().prog
	ec := acquireEvalCtx(g, p, ExecOptions{})
	defer ec.release()
	ec.actuals = make([]stepActual, p.nPats)
	res, err := ec.exec(q)
	if err != nil {
		return nil, err
	}
	ex := &Explanation{Query: q.String(), Rows: res.Len(), JoinRows: ec.joinRows, MatchRows: ec.matchRows, Blocks: make([]BlockExplanation, 0, p.nBlks)}
	for _, n := range p.required {
		ex.Bailout = ex.Bailout || ec.consts[n] == rdf.NoID
	}
	ec.explainGroup(ex, p.root, "WHERE")
	return ex, nil
}

// explainGroup fills in the blocks of gp and of every group below it.
func (ec *evalCtx) explainGroup(ex *Explanation, gp *groupProg, where string) {
	p := ec.prog
	filterText := func(i int) string {
		f := &gp.filters[i]
		if f.exists == nil {
			return printed(func(w *printer) { w.filter(f.expr) })
		}
		vars := printed(func(w *printer) {
			for i, slot := range f.shared.members() {
				if i > 0 {
					w.WriteByte(' ')
				}
				w.variable(p.vars[slot])
			}
		})
		return fmt.Sprintf("%s, run as a filter on {%s}", existsLabel(f.not), vars)
	}
	// An EXISTS's blocks come before the group's own.
	for i := range gp.filters {
		if inner := gp.filters[i].exists; inner != nil {
			ec.explainGroup(ex, inner, where+" > "+existsLabel(gp.filters[i].not))
		}
	}
	var handed uint64
	lastBlock := -1
	for _, el := range gp.elems {
		switch el.kind {
		case elemBlock:
			b := el.block
			// An unreached block's steps were never prepared, and it has no tail.
			be := BlockExplanation{Where: where, Reached: ec.plans[b.id].valid, Tail: len(b.pats)}
			if be.Reached {
				be.Tail = ec.plans[b.id].tail
			}
			for i := range b.pats {
				st := stepRun{pat: &b.pats[i], no: i}
				if be.Reached {
					st = ec.steps[b.off+i]
				}
				se := StepExplanation{
					Pattern: p.patternString(st.pat), Textual: st.no, Estimate: st.est,
					Descends: ec.actuals[b.off+st.no].descends, Extends: ec.actuals[b.off+st.no].extends,
				}
				for f := st.filters; f != 0; f &= f - 1 {
					se.Filters = append(se.Filters, filterText(bits.TrailingZeros64(f)))
				}
				handed |= st.filters
				be.Steps = append(be.Steps, se)
			}
			ex.Blocks = append(ex.Blocks, be)
			lastBlock = len(ex.Blocks) - 1
		case elemOptional:
			ec.explainGroup(ex, el.groups[0], where+" > OPTIONAL")
		case elemUnion:
			for i, branch := range el.groups {
				ec.explainGroup(ex, branch, fmt.Sprintf("%s > UNION branch %d", where, i+1))
			}
		case elemGroup:
			ec.explainGroup(ex, el.groups[0], where+" > group")
		}
	}
	for i := range gp.filters {
		// The filters no step was handed are listed with the group's last
		// block, if it has one.
		if (i >= 64 || handed&(1<<uint(i)) == 0) && lastBlock >= 0 {
			ex.Blocks[lastBlock].Late = append(ex.Blocks[lastBlock].Late, filterText(i))
		}
	}
}

func existsLabel(not bool) string {
	if not {
		return "FILTER NOT EXISTS"
	}
	return "FILTER EXISTS"
}

// patternString renders a compiled triple pattern in SPARQL syntax.
func (p *program) patternString(pat *patProg) string {
	return printed(func(w *printer) {
		node := func(slot, konst int) {
			if slot >= 0 {
				w.variable(p.vars[slot])
			} else {
				w.term(p.consts[konst])
			}
		}
		node(pat.sSlot, pat.sConst)
		w.WriteByte(' ')
		switch pat.kind {
		case patSimple:
			w.term(p.consts[pat.pConst])
		case patPredVar:
			w.variable(p.vars[pat.pSlot])
		default:
			w.path(pat.path, pathAlt)
		}
		w.WriteByte(' ')
		node(pat.oSlot, pat.oConst)
	})
}

// String renders the explanation as the text `optimatch explain` prints.
func (ex *Explanation) String() string {
	var b strings.Builder
	b.WriteString(ex.Query + "\n")
	fmt.Fprintf(&b, "%d row(s), %d recursion node(s) (joinRows), %d match(es) tried (matchRows)\n", ex.Rows, ex.JoinRows, ex.MatchRows)
	if ex.Bailout {
		b.WriteString("a required constant is missing from the graph: the WHERE clause did not run\n")
	}
	for i, be := range ex.Blocks {
		fmt.Fprintf(&b, "\nblock %d, %s", i, be.Where)
		if !be.Reached {
			b.WriteString(": not reached\n")
		} else {
			b.WriteString("\n")
			fmt.Fprintf(&b, "  %4s %10s %9s %9s  %s\n", "step", "est. rows", "descends", "extends", "pattern")
		}
		for k, se := range be.Steps {
			if k == be.Tail {
				b.WriteString("  ---- witness-only from here: nothing below binds a projected variable, one match per row above is enough\n")
			}
			if be.Reached {
				fmt.Fprintf(&b, "  %4d %10.4g %9d %9d  %s   (pattern %d as written)\n", k, se.Estimate, se.Descends, se.Extends, se.Pattern, se.Textual+1)
			} else {
				fmt.Fprintf(&b, "  %s\n", se.Pattern)
			}
			for _, f := range se.Filters {
				fmt.Fprintf(&b, "  %36s %s\n", "", f)
			}
		}
		if be.Tail < 0 {
			b.WriteString("  the first solution ends the block (EXISTS)\n")
		}
		for _, f := range be.Late {
			fmt.Fprintf(&b, "  after the block: %s\n", f)
		}
	}
	return b.String()
}
