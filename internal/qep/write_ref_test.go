package qep

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// writeReference is the fmt writer that Write was until it became an append
// writer, kept verbatim as its byte-for-byte oracle (TestWriteSameBytes and
// FuzzParse, through WriteReference).
func writeReference(w io.Writer, p *Plan) error {
	var b strings.Builder
	b.WriteString("OPTIMATCH EXPLAIN FILE\n\n")
	fmt.Fprintf(&b, "Statement ID:\t%s\n", p.ID)
	b.WriteString("Statement:\n")
	for _, line := range strings.Split(strings.TrimRight(p.Statement, "\n"), "\n") {
		b.WriteString("\t")
		b.WriteString(line)
		b.WriteString("\n")
	}
	b.WriteString("\nAccess Plan:\n-----------\n")
	fmt.Fprintf(&b, "\tTotal Cost:\t\t%s\n", formatNumReference(p.TotalCost))
	b.WriteString("\tQuery Degree:\t\t1\n\n")

	b.WriteString("Plan Details:\n-------------\n\n")
	for _, op := range p.Ops() {
		fmt.Fprintf(&b, "\t%d) %s: (%s)\n", op.ID, op.DisplayName(), typeDescription(op.Type))
		if desc := op.JoinMod.Description(); desc != "" {
			fmt.Fprintf(&b, "\t\t%s\n", desc)
		}
		fmt.Fprintf(&b, "\t\tCumulative Total Cost:\t\t%s\n", formatNumReference(op.TotalCost))
		fmt.Fprintf(&b, "\t\tCumulative CPU Cost:\t\t%s\n", formatNumReference(op.CPUCost))
		fmt.Fprintf(&b, "\t\tCumulative I/O Cost:\t\t%s\n", formatNumReference(op.IOCost))
		fmt.Fprintf(&b, "\t\tCumulative First Row Cost:\t%s\n", formatNumReference(op.FirstRow))
		fmt.Fprintf(&b, "\t\tEstimated Bufferpool Buffers:\t%s\n", formatNumReference(op.Buffers))
		fmt.Fprintf(&b, "\t\tEstimated Cardinality:\t\t%s\n", formatNumReference(op.Cardinality))

		if len(op.Args) > 0 {
			b.WriteString("\n\t\tArguments:\n\t\t---------\n")
			keys := make([]string, 0, len(op.Args))
			for k := range op.Args {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(&b, "\t\t%s: %s\n", k, op.Args[k])
			}
		}
		if len(op.Predicates) > 0 {
			b.WriteString("\n\t\tPredicates:\n\t\t----------\n")
			for _, pr := range op.Predicates {
				fmt.Fprintf(&b, "\t\t%s\n", pr)
			}
		}
		if len(op.Inputs) > 0 {
			b.WriteString("\n\t\tInput Streams:\n\t\t-------------\n")
			for i, in := range op.Inputs {
				if in.Op != nil {
					fmt.Fprintf(&b, "\t\t\t%d) From Operator #%d\n", i+1, in.Op.ID)
				} else {
					fmt.Fprintf(&b, "\t\t\t%d) From Object %s\n", i+1, in.Obj.Name)
				}
				fmt.Fprintf(&b, "\t\t\t\tStream Type:\t%s\n", in.Kind)
				fmt.Fprintf(&b, "\t\t\t\tEstimated Rows:\t%s\n", formatNumReference(in.Rows))
				if len(in.Columns) > 0 {
					fmt.Fprintf(&b, "\t\t\t\tColumns:\t+%s\n", strings.Join(in.Columns, "+"))
				}
				b.WriteString("\n")
			}
		} else {
			b.WriteString("\n")
		}
	}

	if len(p.Objects) > 0 {
		b.WriteString("Base Objects:\n-------------\n")
		names := make([]string, 0, len(p.Objects))
		for n := range p.Objects {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			obj := p.Objects[n]
			fmt.Fprintf(&b, "\t%s\n", obj.Name)
			fmt.Fprintf(&b, "\t\tType:\t%s\n", obj.Type)
			fmt.Fprintf(&b, "\t\tCardinality:\t%s\n", formatNumReference(obj.Cardinality))
			if len(obj.Columns) > 0 {
				fmt.Fprintf(&b, "\t\tColumns:\t%s\n", strings.Join(obj.Columns, ","))
			}
			b.WriteString("\n")
		}
	}
	b.WriteString("End of Explain\n")

	_, err := io.WriteString(w, b.String())
	return err
}

// formatNumReference is FormatNum as it was beside writeReference.
func formatNumReference(f float64) string {
	af := math.Abs(f)
	if f != 0 && (af >= 1e6 || af < 1e-3) {
		return strconv.FormatFloat(f, 'g', -1, 64)
	}
	return strconv.FormatFloat(f, 'f', -1, 64)
}
