package qep

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// figure1Plan builds the paper's Figure 1 snippet rooted under a RETURN:
//
//	RETURN(1) <- NLJOIN(2) <- outer FETCH(3) <- IXSCAN(4) <- SALES_FACT(IDX1)
//	                       <- inner TBSCAN(5) <- CUST_DIM
func figure1Plan(t *testing.T) *Plan {
	t.Helper()
	p := NewPlan("Q2")
	p.Statement = "SELECT * FROM SALES_FACT F JOIN CUST_DIM C ON F.CUST_ID = C.CUST_ID"
	p.TotalCost = 15782.2

	salesFact := p.AddObject(&BaseObject{Name: "SALES_FACT", Type: "TABLE", Cardinality: 1e7, Columns: []string{"CUST_ID", "SALE_AMT"}})
	custDim := p.AddObject(&BaseObject{Name: "CUST_DIM", Type: "TABLE", Cardinality: 4043, Columns: []string{"CUST_ID", "CUST_NAME"}})

	ret := &Operator{ID: 1, Type: "RETURN", TotalCost: 15782.2, IOCost: 1320, CPUCost: 2.9e8, Cardinality: 19.12, Args: map[string]string{}}
	nl := &Operator{ID: 2, Type: "NLJOIN", TotalCost: 15771, IOCost: 1318, CPUCost: 2.87997e8, Cardinality: 19.12,
		Args:       map[string]string{"FETCHMAX": "IGNORE"},
		Predicates: []string{"(Q1.CUST_ID = Q2.CUST_ID)"}}
	fetch := &Operator{ID: 3, Type: "FETCH", TotalCost: 19.12, IOCost: 2, CPUCost: 1.2e5, Cardinality: 19.12, Args: map[string]string{}}
	ix := &Operator{ID: 4, Type: "IXSCAN", TotalCost: 12.3, IOCost: 1, CPUCost: 9.1e4, Cardinality: 19.12, Args: map[string]string{"INDEX": "IDX1"}}
	tb := &Operator{ID: 5, Type: "TBSCAN", TotalCost: 15771, IOCost: 1316, CPUCost: 2.8e8, Cardinality: 4043, Args: map[string]string{}}

	for _, op := range []*Operator{ret, nl, fetch, ix, tb} {
		if err := p.AddOperator(op); err != nil {
			t.Fatal(err)
		}
	}
	p.Link(ret, GeneralStream, nl, nil, 19.12, nil)
	p.Link(nl, OuterStream, fetch, nil, 19.12, []string{"Q2.SALE_AMT", "Q2.CUST_ID"})
	p.Link(nl, InnerStream, tb, nil, 4043, []string{"Q1.CUST_NAME", "Q1.CUST_ID"})
	p.Link(fetch, GeneralStream, ix, nil, 19.12, nil)
	p.Link(ix, GeneralStream, nil, salesFact, 1e7, nil)
	p.Link(tb, GeneralStream, nil, custDim, 4043, nil)

	if err := p.Resolve(); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPlanAccessors(t *testing.T) {
	p := figure1Plan(t)
	if p.NumOps() != 5 {
		t.Errorf("NumOps = %d", p.NumOps())
	}
	if p.Root.ID != 1 {
		t.Errorf("root = %d", p.Root.ID)
	}
	nl := p.Op(2)
	if nl.Outer() == nil || nl.Outer().ID != 3 {
		t.Errorf("Outer = %v", nl.Outer())
	}
	if nl.Inner() == nil || nl.Inner().ID != 5 {
		t.Errorf("Inner = %v", nl.Inner())
	}
	if got := p.Op(5).Object(); got == nil || got.Name != "CUST_DIM" {
		t.Errorf("Object = %v", got)
	}
	if !nl.IsJoin() || p.Op(3).IsJoin() {
		t.Error("IsJoin wrong")
	}
	if nl.Class() != "JOIN" {
		t.Errorf("Class = %q", nl.Class())
	}
	if p.Op(5).Class() != "SCAN" {
		t.Errorf("TBSCAN class = %q", p.Op(5).Class())
	}
	// SelfCost of NLJOIN: 15771 - 19.12 (fetch) - 15771 (tbscan) < 0 -> clamped 0.
	if c := nl.SelfCost(); c != 0 {
		t.Errorf("SelfCost = %v", c)
	}
	// SelfCost of FETCH: 19.12 - 12.3.
	if c := p.Op(3).SelfCost(); math.Abs(c-6.82) > 1e-9 {
		t.Errorf("FETCH SelfCost = %v", c)
	}
	ops := p.Op(2).InputOps()
	if len(ops) != 2 || ops[0].ID != 3 || ops[1].ID != 5 {
		t.Errorf("InputOps = %v", ops)
	}
}

func TestDescendantsAndWalk(t *testing.T) {
	p := figure1Plan(t)
	desc := Descendants(p.Op(2))
	var ids []int
	for _, d := range desc {
		ids = append(ids, d.ID)
	}
	if len(ids) != 3 {
		t.Fatalf("descendants = %v", ids)
	}
	var walked []int
	p.Walk(func(op *Operator) { walked = append(walked, op.ID) })
	if len(walked) != 5 || walked[0] != 1 {
		t.Errorf("walk = %v", walked)
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	p := figure1Plan(t)
	text := Text(p)

	p2, err := Parse(text)
	if err != nil {
		t.Fatalf("Parse: %v\n%s", err, text)
	}
	if p2.ID != p.ID {
		t.Errorf("ID = %q, want %q", p2.ID, p.ID)
	}
	if p2.Statement != p.Statement {
		t.Errorf("Statement = %q", p2.Statement)
	}
	if p2.TotalCost != p.TotalCost {
		t.Errorf("TotalCost = %v", p2.TotalCost)
	}
	if p2.NumOps() != p.NumOps() {
		t.Fatalf("NumOps = %d, want %d", p2.NumOps(), p.NumOps())
	}
	for _, want := range p.Ops() {
		id := want.ID
		got := p2.Op(id)
		if got == nil {
			t.Fatalf("operator %d missing", id)
		}
		if got.Type != want.Type || got.TotalCost != want.TotalCost ||
			got.IOCost != want.IOCost || got.CPUCost != want.CPUCost ||
			got.Cardinality != want.Cardinality || got.JoinMod != want.JoinMod {
			t.Errorf("operator %d mismatch:\n got %+v\nwant %+v", id, got, want)
		}
		if len(got.Predicates) != len(want.Predicates) {
			t.Errorf("operator %d predicates = %v", id, got.Predicates)
		}
		for k, v := range want.Args {
			if got.Args[k] != v {
				t.Errorf("operator %d arg %s = %q, want %q", id, k, got.Args[k], v)
			}
		}
	}
	if p2.Root.ID != 1 {
		t.Errorf("root = %d", p2.Root.ID)
	}
	nl := p2.Op(2)
	if nl.Outer() == nil || nl.Outer().ID != 3 || nl.Inner() == nil || nl.Inner().ID != 5 {
		t.Errorf("stream kinds lost: outer=%v inner=%v", nl.Outer(), nl.Inner())
	}
	if cols := nl.Inputs[0].Columns; len(cols) != 2 || cols[0] != "Q2.SALE_AMT" {
		t.Errorf("stream columns = %v", cols)
	}
	obj := p2.Objects["SALES_FACT"]
	if obj == nil || obj.Cardinality != 1e7 || len(obj.Columns) != 2 {
		t.Errorf("object = %+v", obj)
	}
	if err := p2.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestJoinModifierRoundTrip(t *testing.T) {
	p := NewPlan("LOJ")
	p.Statement = "SELECT 1"
	loj := &Operator{ID: 1, Type: "HSJOIN", JoinMod: LeftOuterJoin, TotalCost: 10, Cardinality: 5}
	a := &Operator{ID: 2, Type: "TBSCAN", TotalCost: 4, Cardinality: 5}
	b := &Operator{ID: 3, Type: "TBSCAN", TotalCost: 4, Cardinality: 9}
	for _, op := range []*Operator{loj, a, b} {
		if err := p.AddOperator(op); err != nil {
			t.Fatal(err)
		}
	}
	t1 := p.AddObject(&BaseObject{Name: "T1", Cardinality: 5})
	t2 := p.AddObject(&BaseObject{Name: "T2", Cardinality: 9})
	p.Link(loj, OuterStream, a, nil, 5, nil)
	p.Link(loj, InnerStream, b, nil, 9, nil)
	p.Link(a, GeneralStream, nil, t1, 5, nil)
	p.Link(b, GeneralStream, nil, t2, 9, nil)
	if err := p.Resolve(); err != nil {
		t.Fatal(err)
	}

	text := Text(p)
	if !strings.Contains(text, ">HSJOIN") {
		t.Errorf("serialized form missing '>' prefix:\n%s", text)
	}
	p2, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Op(1).JoinMod != LeftOuterJoin {
		t.Errorf("JoinMod = %v", p2.Op(1).JoinMod)
	}
	if p2.Op(1).DisplayName() != ">HSJOIN" {
		t.Errorf("DisplayName = %q", p2.Op(1).DisplayName())
	}
}

func TestParseNumberFormats(t *testing.T) {
	// Numbers in both decimal and exponent form must parse identically.
	text := `OPTIMATCH EXPLAIN FILE

Statement ID:	QX
Statement:
	SELECT 1

Access Plan:
-----------
	Total Cost:		1.0E+07

Plan Details:
-------------

	1) TBSCAN: (Table Scan)
		Cumulative Total Cost:		1.0E+07
		Cumulative I/O Cost:		1316.5
		Estimated Cardinality:		4.043e+03

		Input Streams:
		-------------
			1) From Object CUST_DIM
				Stream Type:	GENERAL
				Estimated Rows:	1.0E+07

End of Explain
`
	p, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	op := p.Op(1)
	if op.TotalCost != 1e7 || op.Cardinality != 4043 || op.IOCost != 1316.5 {
		t.Errorf("parsed values: %+v", op)
	}
	if p.Objects["CUST_DIM"].Cardinality != 1e7 {
		t.Errorf("object cardinality = %v", p.Objects["CUST_DIM"].Cardinality)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		text string
	}{
		{"empty", ""},
		{"noOperators", "Plan Details:\n"},
		{"badCost", "Plan Details:\n1) TBSCAN: (x)\nCumulative Total Cost: abc\n"},
		{"unknownInput", "Plan Details:\n1) RETURN: (x)\nInput Streams:\n-------------\n1) From Operator #9\n"},
		{"twoRoots", "Plan Details:\n1) TBSCAN: (x)\n2) TBSCAN: (x)\n"},
		{"doubleConsume", `Plan Details:
1) RETURN: (x)
Input Streams:
-------------
1) From Operator #3
2) NLJOIN: (x)
Input Streams:
-------------
1) From Operator #3
3) TBSCAN: (x)
`},
		{"badStreamType", "Plan Details:\n1) TBSCAN: (x)\nInput Streams:\n-------------\n1) From Object T\nStream Type:\tSIDEWAYS\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Parse(c.text); err == nil {
				t.Errorf("expected error for %s", c.name)
			}
		})
	}
}

func TestValidateCatchesBadJoins(t *testing.T) {
	p := NewPlan("BAD")
	j := &Operator{ID: 1, Type: "NLJOIN"}
	s := &Operator{ID: 2, Type: "TBSCAN"}
	if err := p.AddOperator(j); err != nil {
		t.Fatal(err)
	}
	if err := p.AddOperator(s); err != nil {
		t.Fatal(err)
	}
	p.Link(j, GeneralStream, s, nil, 1, nil) // join with a GENERAL input only
	if err := p.Resolve(); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted join without outer/inner streams")
	}
}

// Of several unreachable operators Validate names the lowest ID, on every
// parse: a root tree beside a detached two-cycle (5 reads #6, 6 reads #5),
// which Parse accepts, is refused for operator 5 — not for whichever one a
// walk of the operator map met first.
func TestValidateNamesLowestOperator(t *testing.T) {
	const text = `Plan Details:
1) RETURN: (x)
Input Streams:
-------------
1) From Operator #2
2) TBSCAN: (x)
5) FILTER: (x)
Input Streams:
-------------
1) From Operator #6
6) FILTER: (x)
Input Streams:
-------------
1) From Operator #5
`
	errs := map[string]bool{}
	for i := 0; i < 100; i++ {
		p, err := Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			errs[err.Error()] = true
		} else {
			t.Fatal("Validate accepted a plan with unreachable operators")
		}
	}
	if len(errs) != 1 || !errs["qep: plan : operator 5 unreachable from root"] {
		t.Errorf("Validate errors over 100 parses: %v, want only operator 5's", errs)
	}
}

func TestAddOperatorDuplicate(t *testing.T) {
	p := NewPlan("D")
	for _, id := range []int{5, 1, 9, 3} {
		if err := p.AddOperator(&Operator{ID: id, Type: "RETURN"}); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []int{1, 3, 5, 9} { // first, inside, last
		if err := p.AddOperator(&Operator{ID: id, Type: "SORT"}); err == nil {
			t.Errorf("duplicate operator id %d accepted", id)
		}
	}
	if p.NumOps() != 4 || p.Op(3).Type != "RETURN" {
		t.Errorf("a refused duplicate changed the plan: %d operators, #3 is %s", p.NumOps(), p.Op(3).Type)
	}
}

// TestPlanOp: Op finds every operator by its number, however sparse the
// numbers and in whatever order they were added, and nothing for a number no
// operator has.
func TestPlanOp(t *testing.T) {
	fig7 := figure7Plan(t) // 1 5 6 8 12 15 16 38
	scrambled := NewPlan("S")
	for _, id := range []int{38, 5, 16, 1, 12, 8, 15, 6} {
		if err := scrambled.AddOperator(&Operator{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	dense := NewPlan("N") // 2 3 4: every operator one place off its number
	for _, id := range []int{2, 3, 4} {
		if err := dense.AddOperator(&Operator{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []*Plan{fig7, scrambled, dense} {
		ids := map[int]bool{}
		for i, op := range p.Ops() {
			if i > 0 && p.Ops()[i-1].ID >= op.ID {
				t.Fatalf("plan %s: Ops not in ascending ID order", p.ID)
			}
			ids[op.ID] = true
			if p.Op(op.ID) != op {
				t.Errorf("plan %s: Op(%d) = %v, want the operator numbered so", p.ID, op.ID, p.Op(op.ID))
			}
		}
		for id := -2; id <= 40; id++ {
			if !ids[id] && p.Op(id) != nil {
				t.Errorf("plan %s: Op(%d) = %v, want nil", p.ID, id, p.Op(id))
			}
		}
		if p.NumOps() != len(ids) {
			t.Errorf("plan %s: NumOps = %d, want %d", p.ID, p.NumOps(), len(ids))
		}
	}
	if op := NewPlan("E").Op(1); op != nil {
		t.Errorf("Op(1) of an empty plan = %v", op)
	}
}

// figure7Plan builds the shape of the paper's Figure 7: two left outer joins
// under an NLJOIN, an exponent cardinality (1.311e-08) and base objects each
// read by two scans.
func figure7Plan(t *testing.T) *Plan {
	t.Helper()
	p := NewPlan("Q21")
	mk := func(id int, typ string, mod JoinModifier, cost, io, card float64) *Operator {
		op := &Operator{ID: id, Type: typ, JoinMod: mod, TotalCost: cost, IOCost: io, Cardinality: card}
		if err := p.AddOperator(op); err != nil {
			t.Fatal(err)
		}
		return op
	}
	ret := mk(1, "RETURN", InnerJoin, 196283, 23130, 6.7)
	top := mk(5, "NLJOIN", InnerJoin, 196280, 23129, 6.7)
	lojL := mk(6, "HSJOIN", LeftOuterJoin, 180100, 21000, 78417)
	tb1 := mk(8, "TBSCAN", InnerJoin, 41000, 5000, 78417)
	tb2 := mk(12, "TBSCAN", InnerJoin, 41000, 5000, 78417)
	lojR := mk(15, "NLJOIN", LeftOuterJoin, 16090, 2099, 3.2e-8)
	fetch := mk(16, "FETCH", InnerJoin, 8000, 1000, 1)
	ix := mk(38, "IXSCAN", InnerJoin, 4000, 500, 1.311e-8)

	tel := p.AddObject(&BaseObject{Name: "TELEPHONE_DETAIL", Cardinality: 78417})
	tran := p.AddObject(&BaseObject{Name: "TRAN_BASE", Cardinality: 2.77e8})

	p.Link(ret, GeneralStream, top, nil, 6.7, nil)
	p.Link(top, OuterStream, lojL, nil, 78417, nil)
	p.Link(top, InnerStream, lojR, nil, 3.2e-8, nil)
	p.Link(lojL, OuterStream, tb1, nil, 78417, nil)
	p.Link(lojL, InnerStream, tb2, nil, 78417, nil)
	p.Link(tb1, GeneralStream, nil, tel, 78417, nil)
	p.Link(tb2, GeneralStream, nil, tel, 78417, nil)
	p.Link(lojR, OuterStream, fetch, nil, 1, nil)
	p.Link(lojR, InnerStream, ix, nil, 1.311e-8, nil)
	p.Link(fetch, GeneralStream, nil, tran, 2.77e8, nil)
	p.Link(ix, GeneralStream, nil, tran, 2.77e8, nil)
	if err := p.Resolve(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRenderFigure1Shape(t *testing.T) {
	p := figure1Plan(t)
	out := Render(p)
	for _, want := range []string{"NLJOIN", "( 2)", "TBSCAN", "IXSCAN", "FETCH", "CUST_DIM", "SALES_FACT", "1e+07"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered graph missing %q:\n%s", want, out)
		}
	}
	// NLJOIN must appear above its children; find line indexes.
	lines := strings.Split(out, "\n")
	idx := func(s string) int {
		for i, l := range lines {
			if strings.Contains(l, s) {
				return i
			}
		}
		return -1
	}
	if !(idx("NLJOIN") < idx("FETCH") && idx("FETCH") < idx("IXSCAN")) {
		t.Errorf("vertical ordering wrong:\n%s", out)
	}
	// A connector row exists between NLJOIN block and the children row.
	if !strings.ContainsAny(out, "/\\|") {
		t.Errorf("no connectors drawn:\n%s", out)
	}
}

// TestRenderFigure1Golden pins Render's layout of Figure 1 exactly.
func TestRenderFigure1Golden(t *testing.T) {
	const want = `
         19.12
        RETURN
         ( 1)
        15782.2
         1320
           |
        19.12
        NLJOIN
         ( 2)
        15771
         1318
     /           \
   19.12       4043
   FETCH      TBSCAN
   ( 3)        ( 5)
   19.12      15771
     2         1316
     |           |
  19.12        4043
  IXSCAN     CUST_DIM
   ( 4)
   12.3
    1
     |
  1e+07
SALES_FACT
`
	if got := Render(figure1Plan(t)); got != want[1:] {
		t.Errorf("Render(Figure 1) =\n%s\nwant:\n%s", got, want[1:])
	}
}

// TestRenderFigure7Shape pins Render's layout of Figure 7's shape exactly:
// the '>' prefix of a left outer join, exponent cardinalities and a base
// object drawn under each of the two scans that read it.
func TestRenderFigure7Shape(t *testing.T) {
	const want = `
                              6.7
                             RETURN
                              ( 1)
                             196283
                             23130
                                |
                              6.7
                             NLJOIN
                              ( 5)
                             196280
                             23129
                 /                              \
               78417                         3.2e-08
              >HSJOIN                        >NLJOIN
               ( 6)                           ( 15)
              180100                          16090
               21000                          2099
        /                  \              /           \
     78417              78417             1       1.311e-08
     TBSCAN             TBSCAN          FETCH      IXSCAN
      ( 8)              ( 12)           ( 16)       ( 38)
     41000              41000           8000        4000
      5000               5000           1000         500
        |                  |              |           |
     78417              78417         2.77e+08    2.77e+08
TELEPHONE_DETAIL   TELEPHONE_DETAIL   TRAN_BASE   TRAN_BASE
`
	if got := Render(figure7Plan(t)); got != want[1:] {
		t.Errorf("Render(Figure 7) =\n%s\nwant:\n%s", got, want[1:])
	}
}

// TestRenderJoinModifiers pins the prefix Render draws before each outer-join
// modifier's operator type; '#' in the golden text stands for the prefix.
func TestRenderJoinModifiers(t *testing.T) {
	const want = `
       5
    #HSJOIN
     ( 1)
      10
       3
   /        \
  5        9
TBSCAN   IXSCAN
 ( 2)     ( 3)
  4        4
  1        1
   |        |
  50       90
  T1       T2
`
	for _, mod := range []JoinModifier{LeftOuterJoin, RightOuterJoin, EarlyOutJoin} {
		p := NewPlan("J")
		join := &Operator{ID: 1, Type: "HSJOIN", JoinMod: mod, TotalCost: 10, IOCost: 3, Cardinality: 5}
		a := &Operator{ID: 2, Type: "TBSCAN", TotalCost: 4, IOCost: 1, Cardinality: 5}
		b := &Operator{ID: 3, Type: "IXSCAN", TotalCost: 4, IOCost: 1, Cardinality: 9}
		for _, op := range []*Operator{join, a, b} {
			if err := p.AddOperator(op); err != nil {
				t.Fatal(err)
			}
		}
		t1 := p.AddObject(&BaseObject{Name: "T1", Cardinality: 50})
		t2 := p.AddObject(&BaseObject{Name: "T2", Cardinality: 90})
		p.Link(join, OuterStream, a, nil, 5, nil)
		p.Link(join, InnerStream, b, nil, 9, nil)
		p.Link(a, GeneralStream, nil, t1, 50, nil)
		p.Link(b, GeneralStream, nil, t2, 90, nil)
		if err := p.Resolve(); err != nil {
			t.Fatal(err)
		}
		exp := strings.ReplaceAll(want[1:], "#", mod.Prefix())
		if got := Render(p); got != exp {
			t.Errorf("Render(%s) =\n%s\nwant:\n%s", mod.Description(), got, exp)
		}
	}
}

func TestRenderEmptyPlan(t *testing.T) {
	p := NewPlan("E")
	if got := Render(p); !strings.Contains(got, "empty") {
		t.Errorf("Render(empty) = %q", got)
	}
}

func TestFormatNum(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{19.12, "19.12"},
		{15771, "15771"},
		{0, "0"},
		{1e7, "1e+07"},
		{2.87997e8, "2.87997e+08"},
		{0.0001, "0.0001"},
		{0.00001, "1e-05"},
		{-4043, "-4043"},
	}
	for _, c := range cases {
		if got := FormatNum(c.in); got != c.want {
			t.Errorf("FormatNum(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

// Property: FormatNum always round-trips through parseNum exactly.
func TestFormatNumRoundTripProperty(t *testing.T) {
	f := func(v float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		got, err := parseNum(FormatNum(v))
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStreamKindParse(t *testing.T) {
	for _, c := range []struct {
		in   string
		want StreamKind
	}{{"OUTER", OuterStream}, {"inner", InnerStream}, {"GENERAL", GeneralStream}, {"", GeneralStream}} {
		got, err := ParseStreamKind(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseStreamKind(%q) = %v, %v", c.in, got, err)
		}
	}
	if _, err := ParseStreamKind("DIAGONAL"); err == nil {
		t.Error("bad stream kind accepted")
	}
}

func TestCutKey(t *testing.T) {
	if v, ok := cutKey("Total Cost:\t\t42", "Total Cost"); !ok || v != "42" {
		t.Errorf("cutKey = %q, %v", v, ok)
	}
	if v, ok := cutKey("Total Cost :  42", "Total Cost"); !ok || v != "42" {
		t.Errorf("cutKey spaced = %q, %v", v, ok)
	}
	if _, ok := cutKey("Total Costume: 42", "Total Cost"); ok {
		t.Error("cutKey matched wrong key")
	}
}

func TestParseColumns(t *testing.T) {
	if got := parseColumns("+A+B+C"); len(got) != 3 || got[1] != "B" {
		t.Errorf("plus form = %v", got)
	}
	if got := parseColumns("A, B ,C"); len(got) != 3 || got[1] != "B" {
		t.Errorf("comma form = %v", got)
	}
	if got := parseColumns(""); got != nil {
		t.Errorf("empty = %v", got)
	}
}

// TestParseBoundaries pins, per kind of text Write could not spell back, a
// row just inside the boundary and one at it: Parse refuses an argument key
// kept apart from its ':' that would then read as a header and an object name
// no Base Objects section can declare, naming the line, and reads '+' and ','
// alike in either column list form.
func TestParseBoundaries(t *testing.T) {
	for _, c := range []struct {
		name                         string
		arg, object, stream, columns string // the argument line, the object and the two column lists
		want                         string // what Parse read, or its refusal
	}{
		{"a subsection header", "Arguments:", "T", "A", "A", `map[] ["A"] "T" ["A"]`},
		{"a key kept apart as a header", "Arguments :", "T", "A", "A", `qep: line 4: argument "Arguments :" reads as a header without the space before ':'`},
		{"a key kept apart", "MAX PAGES : ALL", "T", "A", "A", `map[MAX PAGES:ALL] ["A"] "T" ["A"]`},
		{"a key kept apart as an operator", "3) X : y", "T", "A", "A", `qep: line 4: argument "3) X : y" reads as a header without the space before ':'`},
		{"a comma list", "K: v", "T", "A,B", "A,B", `map[K:v] ["A" "B"] "T" ["A" "B"]`},
		{"a + in a comma list", "K: v", "T", "A+B,C", "A+B,C", `map[K:v] ["A" "B" "C"] "T" ["A" "B" "C"]`},
		{"a + list", "K: v", "T", "+A+B", "+A+B", `map[K:v] ["A" "B"] "T" ["A" "B"]`},
		{"a , in a + list", "K: v", "T", "+A,B+C", "+A,B+C", `map[K:v] ["A" "B" "C"] "T" ["A" "B" "C"]`},
		{"an object", "K: v", "SCHEMA.T", "A", "A", `map[K:v] ["A"] "SCHEMA.T" ["A"]`},
		{"an object with a ':'", "K: v", "a:b", "A", "A", `qep: line 6: object name "a:b" cannot be declared in a Base Objects section`},
		{"an object underlined", "K: v", "---x", "A", "A", `qep: line 6: object name "---x" cannot be declared in a Base Objects section`},
		{"an object after white space", "K: v", "\vT", "A", "A", `qep: line 6: object name "\vT" cannot be declared in a Base Objects section`},
	} {
		t.Run(c.name, func(t *testing.T) {
			text := "Plan Details:\n1) TBSCAN:\nArguments:\n" + c.arg + "\nInput Streams:\n1) From Object " + c.object +
				"\nColumns: " + c.stream + "\nBase Objects:\n" + c.object + "\nColumns: " + c.columns + "\n"
			var got string
			if p, err := Parse(text); err != nil {
				got = err.Error()
			} else {
				op := p.Op(1)
				obj := op.Object()
				got = fmt.Sprintf("%v %q %q %q", op.Args, op.Inputs[0].Columns, obj.Name, obj.Columns)
			}
			if got != c.want {
				t.Errorf("Parse read %s\nwant %s\nfrom:\n%s", got, c.want, text)
			}
		})
	}
}

// TestOperatorClasses pins the classes IsJoin and Class read off the one list
// of join types and the one of scan types: the pattern language's pseudo types
// JOIN and SCAN are not operator types, and matching is case-sensitive.
func TestOperatorClasses(t *testing.T) {
	for _, tc := range []struct {
		typ, class string
		join       bool
	}{
		{"NLJOIN", "JOIN", true}, {"HSJOIN", "JOIN", true}, {"MSJOIN", "JOIN", true}, {"ZZJOIN", "JOIN", true},
		{"TBSCAN", "SCAN", false}, {"IXSCAN", "SCAN", false},
		{"SORT", "SORT", false}, {"GRPBY", "AGGREGATION", false},
		{"JOIN", "JOIN", false}, {"SCAN", "SCAN", false}, {"nljoin", "nljoin", false},
		{"FETCH", "FETCH", false}, {"", "", false},
	} {
		op := &Operator{Type: tc.typ}
		if op.IsJoin() != tc.join || IsJoinType(tc.typ) != tc.join || op.Class() != tc.class {
			t.Errorf("%q: IsJoin %v, IsJoinType %v, Class %q; want %v, %v, %q",
				tc.typ, op.IsJoin(), IsJoinType(tc.typ), op.Class(), tc.join, tc.join, tc.class)
		}
		if scan := tc.class == "SCAN" && tc.typ != "SCAN"; IsScanType(tc.typ) != scan {
			t.Errorf("IsScanType(%q) = %v, want %v", tc.typ, !scan, scan)
		}
	}
}
