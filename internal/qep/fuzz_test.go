package qep_test

import (
	"fmt"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"optimatch/internal/fixtures"
	"optimatch/internal/qep"
	"optimatch/internal/workload"
)

// opHeaderRe and streamHeaderRe recognised operator and input stream headers
// until the parser got hand-written scanners for them; they stay as the
// definition of the two languages the scanners must accept.
var (
	opHeaderRe     = regexp.MustCompile(`^(\d+)\)\s+([<>^]?)([A-Z][A-Z0-9_]*):`)
	streamHeaderRe = regexp.MustCompile(`^\d+\)\s+From (Operator #(\d+)|Object (\S+))`)
)

// checkScanners holds the scanners to the regexps on one line: the same
// verdict and the same submatches.
func checkScanners(t *testing.T, line string) {
	t.Helper()
	number, modifier, typ, ok := qep.OperatorHeader(line)
	if m := opHeaderRe.FindStringSubmatch(line); ok != (m != nil) || ok && (number != m[1] || modifier != m[2] || typ != m[3]) {
		t.Fatalf("operatorHeader(%q) = %q, %q, %q, %v; the regexp gives %q", line, number, modifier, typ, ok, m)
	}
	operator, object, ok := qep.StreamHeader(line)
	if m := streamHeaderRe.FindStringSubmatch(line); ok != (m != nil) || ok && (operator != m[2] || object != m[3]) {
		t.Fatalf("streamHeader(%q) = %q, %q, %v; the regexp gives %q", line, operator, object, ok, m)
	}
}

func TestHeaderScanners(t *testing.T) {
	for _, line := range headerSeeds {
		checkScanners(t, line)
	}
	if _, _, typ, ok := qep.OperatorHeader("7) >HSJOIN: (Hash Join)"); !ok || typ != "HSJOIN" {
		t.Errorf("operatorHeader missed a plain header: %q, %v", typ, ok)
	}
	if op, _, ok := qep.StreamHeader("1) From Operator #3"); !ok || op != "3" {
		t.Errorf("streamHeader missed a plain header: %q, %v", op, ok)
	}
}

// headerSeeds are lines at the edges of the two header languages.
var headerSeeds = []string{
	"2) NLJOIN: (Nested Loop Join)", "7) >HSJOIN: (Hash Join)", "7) <HSJOIN:", "7) ^MSJOIN: x", "7) ><HSJOIN:", "7) >:",
	"12)From", "12) \t\f\r From Operator #4", "12)\vFrom Operator #4", "7) From Operator #", "7) From Operator #12abc", "7) From Operator # 1",
	"7) From Object T", "7) From Object  T", "7) From Object T\u00a0U V", "7) From Object \xff\xfe", "7) From Objects", "7) from Object T",
	"1) A:", "1) A_9:", "1) 9A:", "1) a:", "1) AB :", "1) AB", "1)  AB:CD:", "١) AB:", ") AB:", "1 ) AB:", "1)", "1) ", "",
	strings.Repeat("9", 10000) + ") TBSCAN: (Table Scan)", "3) From Operator #" + strings.Repeat("9", 10000),
}

// FuzzParse feeds Parse arbitrary explain text. It must not panic; on every
// line of every input the header scanners must agree with the regexps they
// replaced; and a plan that parsed, written by Write and parsed again, must
// come back the same plan — field by field (dump), not only text for text.
func FuzzParse(f *testing.F) {
	for _, p := range append(fixtures.All(), fixtures.SharedTemp()) {
		f.Add(qep.Text(p))
	}
	w, err := workload.Generate(workload.Config{Seed: 1, NumPlans: 1, MinOps: 60, MaxOps: 60, InjectA: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(qep.Text(w.Plans[0]))
	f.Add("Plan Details:\n" + strings.Join(headerSeeds, "\n"))
	f.Add("Statement ID : a>b c\nPlan Details:\n2) TBSCAN:\nArguments :\nMAX PAGES : ALL\nInput Streams:\n1) From Object <T>\nColumns: A+B,C\n1) RETURN:\nInput Streams:\n1) From Operator #2\nStream Type: INNER\nEstimated Rows: 1e400\n")

	f.Fuzz(func(t *testing.T, text string) {
		for _, line := range strings.Split(text, "\n") {
			checkScanners(t, line)
			checkScanners(t, strings.TrimSpace(line))
		}
		p, err := qep.Parse(text)
		if err != nil {
			return
		}
		written := qep.Text(p)
		back, err := qep.Parse(written)
		if !writable(p) {
			return // parsed twice without a panic is all that can be asked
		}
		if err != nil {
			t.Fatalf("Parse(Write(p)): %v\n%s", err, written)
		}
		if got, want := dump(back), dump(p); got != want {
			t.Fatalf("Parse(Write(p)) is not p:\n%s\nwant:\n%s\nwritten:\n%s", got, want, written)
		}
	})
}

// writable reports whether the explain format can spell p. It has no quoting,
// so three kinds of parsed plan do not survive Write: an argument whose key
// was kept apart from the ':' by white space and, written without it, reads as
// a section or operator header (`Arguments :`, `3) X : y`); a column list one
// of whose names holds the other list form's separator (`A+B,C`); and an
// object known only from a `From Object` header whose name a Base Objects
// section cannot declare (`a:b`, `---x`, a name that starts with white space
// the header's \S is not: `\vT`).
func writable(p *qep.Plan) bool {
	for _, op := range p.Ops() {
		for k, v := range op.Args {
			switch line := strings.TrimSpace(k + ": " + v); line {
			case "Access Plan:", "Plan Details:", "Base Objects:", "Arguments:", "Predicates:", "Input Streams:":
				return false
			default:
				if opHeaderRe.MatchString(line) {
					return false
				}
			}
		}
		for _, in := range op.Inputs {
			if slices.ContainsFunc(in.Columns, func(c string) bool { return strings.Contains(c, "+") }) {
				return false
			}
		}
	}
	for name, obj := range p.Objects {
		if strings.Contains(name, ":") || strings.HasPrefix(name, "---") || strings.TrimSpace(name) != name {
			return false
		}
		if slices.ContainsFunc(obj.Columns, func(c string) bool { return strings.Contains(c, ",") }) {
			return false
		}
	}
	return true
}

// dump renders everything Parse reads into a plan, in an order of its own.
func dump(p *qep.Plan) string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan %q cost %v root %d\nstatement %q\n", p.ID, p.TotalCost, p.Root.ID, p.Statement)
	for _, op := range p.Ops() {
		fmt.Fprintf(&b, "op %d %s mod %d costs %v %v %v %v %v %v\n", op.ID, op.Type, op.JoinMod,
			op.TotalCost, op.IOCost, op.CPUCost, op.FirstRow, op.Buffers, op.Cardinality)
		keys := make([]string, 0, len(op.Args))
		for k := range op.Args {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "  arg %q = %q\n", k, op.Args[k])
		}
		fmt.Fprintf(&b, "  predicates %q\n", op.Predicates)
		for _, in := range op.Inputs {
			if in.Op != nil {
				fmt.Fprintf(&b, "  in op %d", in.Op.ID)
			} else {
				fmt.Fprintf(&b, "  in obj %q", in.Obj.Name)
			}
			fmt.Fprintf(&b, " %v rows %v columns %q\n", in.Kind, in.Rows, in.Columns)
		}
	}
	names := make([]string, 0, len(p.Objects))
	for name := range p.Objects {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		obj := p.Objects[name]
		fmt.Fprintf(&b, "obj %q %q type %q card %v columns %q\n", name, obj.Name, obj.Type, obj.Cardinality, obj.Columns)
	}
	return b.String()
}
