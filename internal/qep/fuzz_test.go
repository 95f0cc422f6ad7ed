package qep_test

import (
	"fmt"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

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

// maxParseInput is the largest input FuzzParse holds to its budgets; longer
// inputs are cut to it.
const maxParseInput = 64 << 10

// FuzzParse feeds Parse arbitrary explain text, the way an upload or a WAL
// replay hands it whatever a client sent. It must not panic; on every line of
// every input the header scanners must agree with the regexps they replaced;
// on up to 64 KiB the parse — refused or not — stays within a second and
// within a heap budget linear in the input (parseBudget); a plan that parsed
// must hold none of the text (checkOwnStrings) and must render byte for byte
// as the fmt writer Write replaced renders it (checkSameBytes); and, written
// by Write and parsed again, it must come back the same plan — field by field
// (dump), not only text for text — and so must what its graph carries of it,
// read back from the graph and from the graph's N-Triples (checkRoundTrip).
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
	f.Add(descendingChain())

	f.Fuzz(func(t *testing.T, text string) {
		text = text[:min(len(text), maxParseInput)]
		for _, line := range strings.Split(text, "\n") {
			checkScanners(t, line)
			checkScanners(t, strings.TrimSpace(line))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		p, err := qep.Parse(text)
		took := time.Since(start)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > parseBudget(len(text)) {
			t.Errorf("parsing %d bytes allocated %d, budget %d", len(text), alloc, parseBudget(len(text)))
		}
		if took > time.Second {
			t.Errorf("parsing %d bytes took %v", len(text), took)
		}
		if err != nil {
			return
		}
		checkOwnStrings(t, p, text)
		checkSameBytes(t, p)
		written := qep.Text(p)
		back, err := qep.Parse(written)
		if err != nil {
			t.Fatalf("Parse(Write(p)): %v\n%s", err, written)
		}
		if got, want := dump(back), dump(p); got != want {
			t.Fatalf("Parse(Write(p)) is not p:\n%s\nwant:\n%s\nwritten:\n%s", got, want, written)
		}
		checkRoundTrip(t, p)
	})
}

// parseBudget is the heap a parse of n bytes may allocate: a fixed allowance
// for the plan and its maps, and per input byte room for the operators,
// inputs, objects and lines the text can declare. Of the shapes tried, 64 KiB
// of one-line operator blocks allocated the most: 54 B per byte.
func parseBudget(n int) uint64 { return 64<<10 + 128*uint64(n) }

// descendingChain is 64 KiB of operator blocks listed in descending ID order,
// each consuming the next: the order link sorts so that registering n
// operators does not cost n² inserts.
func descendingChain() string {
	var blocks []string
	for size, id := 0, 1; size < maxParseInput-64; id++ {
		block := fmt.Sprintf("%d) TBSCAN:\nInput Streams:\n1) From Operator #%d\n", id, id+1)
		blocks, size = append(blocks, block), size+len(block)
	}
	blocks[len(blocks)-1] = fmt.Sprintf("%d) TBSCAN:\n", len(blocks))
	slices.Reverse(blocks)
	return "Plan Details:\n" + strings.Join(blocks, "")
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
