package qep

import (
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// FormatNum renders a plan number the way DB2 explain output does: plain
// decimal for mid-range magnitudes and exponent notation for very large or
// very small values ("1.0E+07", "2.87997e+08"). This mixed rendering is what
// makes naive text search over explain files error-prone (paper, Section
// 3.3); the formatter reproduces it deliberately.
func FormatNum(f float64) string {
	var buf [32]byte
	return string(appendNum(buf[:0], f))
}

// FormatNumShort renders a plan number for human-facing report text with at
// most six significant digits ("15771", "1.31318e+07"). Unlike FormatNum it
// does not guarantee an exact round trip and must not be used in explain
// files.
func FormatNumShort(f float64) string {
	af := math.Abs(f)
	if f != 0 && (af >= 1e6 || af < 1e-3) {
		return strconv.FormatFloat(f, 'g', 6, 64)
	}
	s := strconv.FormatFloat(f, 'f', 2, 64)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// Write serializes the plan in the OptImatch explain format (OEF). The
// output parses back with Parse into a semantically identical plan.
func Write(w io.Writer, p *Plan) error {
	_, err := w.Write(AppendText(nil, p))
	return err
}

// Text returns the OEF serialization as a string.
func Text(p *Plan) string { return string(AppendText(nil, p)) }

// AppendText appends what Write writes to dst. A caller that renders many
// plans hands the same buffer back each time.
func AppendText(dst []byte, p *Plan) []byte {
	dst = line(dst, "OPTIMATCH EXPLAIN FILE\n\nStatement ID:\t", p.ID)
	dst = append(dst, "Statement:\n"...)
	for _, l := range strings.Split(strings.TrimRight(p.Statement, "\n"), "\n") {
		dst = line(dst, "\t", l)
	}
	dst = numLine(append(dst, "\nAccess Plan:\n-----------\n"...), "\tTotal Cost:\t\t", p.TotalCost)
	dst = append(dst, "\tQuery Degree:\t\t1\n\nPlan Details:\n-------------\n\n"...)
	var keys []string // an operator's argument keys, then the object names: sorted
	for _, op := range p.Ops() {
		dst = strconv.AppendInt(append(dst, '\t'), int64(op.ID), 10)
		dst = line(dst, ") ", op.JoinMod.Prefix(), op.Type, ": (", typeDescription(op.Type), ")")
		if desc := op.JoinMod.Description(); desc != "" {
			dst = line(dst, "\t\t", desc)
		}
		dst = numLine(dst, "\t\tCumulative Total Cost:\t\t", op.TotalCost)
		dst = numLine(dst, "\t\tCumulative CPU Cost:\t\t", op.CPUCost)
		dst = numLine(dst, "\t\tCumulative I/O Cost:\t\t", op.IOCost)
		dst = numLine(dst, "\t\tCumulative First Row Cost:\t", op.FirstRow)
		dst = numLine(dst, "\t\tEstimated Bufferpool Buffers:\t", op.Buffers)
		dst = numLine(dst, "\t\tEstimated Cardinality:\t\t", op.Cardinality)
		if len(op.Args) > 0 {
			dst = append(dst, "\n\t\tArguments:\n\t\t---------\n"...)
			keys = sortedKeys(keys[:0], op.Args)
			for _, k := range keys {
				dst = line(dst, "\t\t", k, ": ", op.Args[k])
			}
		}
		if len(op.Predicates) > 0 {
			dst = append(dst, "\n\t\tPredicates:\n\t\t----------\n"...)
			for _, pr := range op.Predicates {
				dst = line(dst, "\t\t", pr)
			}
		}
		if len(op.Inputs) == 0 {
			dst = append(dst, '\n')
			continue
		}
		dst = append(dst, "\n\t\tInput Streams:\n\t\t-------------\n"...)
		for i, in := range op.Inputs {
			dst = strconv.AppendInt(append(dst, "\t\t\t"...), int64(i+1), 10)
			if in.Op != nil {
				dst = line(strconv.AppendInt(append(dst, ") From Operator #"...), int64(in.Op.ID), 10))
			} else {
				dst = line(dst, ") From Object ", in.Obj.Name)
			}
			dst = line(dst, "\t\t\t\tStream Type:\t", in.Kind.String())
			dst = numLine(dst, "\t\t\t\tEstimated Rows:\t", in.Rows)
			if len(in.Columns) > 0 {
				dst = columnsLine(dst, "\t\t\t\tColumns:\t+", in.Columns, '+')
			}
			dst = append(dst, '\n')
		}
	}
	if len(p.Objects) > 0 {
		dst = append(dst, "Base Objects:\n-------------\n"...)
		keys = sortedKeys(keys[:0], p.Objects)
		for _, n := range keys {
			obj := p.Objects[n]
			dst = line(line(dst, "\t", obj.Name), "\t\tType:\t", obj.Type)
			dst = numLine(dst, "\t\tCardinality:\t", obj.Cardinality)
			if len(obj.Columns) > 0 {
				dst = columnsLine(dst, "\t\tColumns:\t", obj.Columns, ',')
			}
			dst = append(dst, '\n')
		}
	}
	return append(dst, "End of Explain\n"...)
}

// line appends the parts and a newline.
func line(dst []byte, parts ...string) []byte {
	for _, s := range parts {
		dst = append(dst, s...)
	}
	return append(dst, '\n')
}

// numLine appends the label, FormatNum(f) and a newline.
func numLine(dst []byte, label string, f float64) []byte {
	return append(appendNum(append(dst, label...), f), '\n')
}

// columnsLine appends the label, the names joined by sep and a newline.
func columnsLine(dst []byte, label string, names []string, sep byte) []byte {
	dst = append(dst, label...)
	for i, name := range names {
		if i > 0 {
			dst = append(dst, sep)
		}
		dst = append(dst, name...)
	}
	return append(dst, '\n')
}

// appendNum appends FormatNum(f).
func appendNum(dst []byte, f float64) []byte {
	if af := math.Abs(f); f != 0 && (af >= 1e6 || af < 1e-3) {
		return strconv.AppendFloat(dst, f, 'g', -1, 64)
	}
	return strconv.AppendFloat(dst, f, 'f', -1, 64)
}

// sortedKeys appends the keys of m to dst, sorted.
func sortedKeys[V any](dst []string, m map[string]V) []string {
	for k := range m {
		dst = append(dst, k)
	}
	slices.Sort(dst)
	return dst
}

// typeDescription maps an operator type to its long explain name.
func typeDescription(t string) string {
	switch t {
	case "NLJOIN":
		return "Nested Loop Join"
	case "HSJOIN":
		return "Hash Join"
	case "MSJOIN":
		return "Merge Scan Join"
	case "ZZJOIN":
		return "Zigzag Join"
	case "TBSCAN":
		return "Table Scan"
	case "IXSCAN":
		return "Index Scan"
	case "FETCH":
		return "Fetch"
	case "SORT":
		return "Sort"
	case "GRPBY":
		return "Group By"
	case "TEMP":
		return "Temporary Table Construction"
	case "FILTER":
		return "Filter Rows"
	case "RETURN":
		return "Return of Data"
	case "UNION":
		return "Union"
	case "UNIQUE":
		return "Duplicate Elimination"
	case "HSPROBE":
		return "Hash Probe"
	case "TQ":
		return "Table Queue"
	default:
		return t
	}
}
