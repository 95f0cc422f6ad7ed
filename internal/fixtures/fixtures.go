// Package fixtures builds the example plans from the paper's figures for use
// in tests and examples: Figure 1 (NLJOIN with inner TBSCAN — matches
// Pattern A), Figure 7 (join of two left-outer-join subtrees — matches
// Pattern B), Figure 8 (scan with collapsed cardinality — matches Pattern C)
// and a SORT-spill plan for Pattern D.
package fixtures

import (
	"fmt"

	"optimatch/internal/qep"
)

func mustAdd(p *qep.Plan, op *qep.Operator) *qep.Operator {
	if err := p.AddOperator(op); err != nil {
		panic(err)
	}
	return op
}

func mustResolve(p *qep.Plan) *qep.Plan {
	if err := p.Resolve(); err != nil {
		panic(err)
	}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return p
}

// Figure1 returns the paper's Figure 1 plan under a RETURN root:
//
//	RETURN(1) <- NLJOIN(2) <- outer FETCH(3) <- IXSCAN(4) <- SALES_FACT
//	                       <- inner TBSCAN(5) <- CUST_DIM
//
// It contains Pattern A (NLJOIN, outer cardinality > 1, inner TBSCAN with
// cardinality > 100 over base object CUST_DIM).
func Figure1() *qep.Plan {
	p := qep.NewPlan("Q2")
	p.Statement = "SELECT F.SALE_AMT, C.CUST_NAME FROM SALES_FACT F, CUST_DIM C WHERE F.CUST_ID = C.CUST_ID AND F.SALE_DATE > '2015-01-01'"
	p.TotalCost = 15782.2

	salesFact := p.AddObject(&qep.BaseObject{Name: "SALES_FACT", Type: "TABLE", Cardinality: 1e7, Columns: []string{"CUST_ID", "SALE_AMT", "SALE_DATE"}})
	custDim := p.AddObject(&qep.BaseObject{Name: "CUST_DIM", Type: "TABLE", Cardinality: 4043, Columns: []string{"CUST_ID", "CUST_NAME", "REGION"}})
	p.AddObject(&qep.BaseObject{Name: "IDX1", Type: "INDEX", Cardinality: 1e7, Columns: []string{"SALE_DATE"}})

	ret := mustAdd(p, &qep.Operator{ID: 1, Type: "RETURN", TotalCost: 15782.2, IOCost: 1320, CPUCost: 2.9e8, FirstRow: 26, Cardinality: 19.12})
	nl := mustAdd(p, &qep.Operator{ID: 2, Type: "NLJOIN", TotalCost: 15771, IOCost: 1318, CPUCost: 2.87997e8, FirstRow: 25.1, Cardinality: 19.12,
		Args:       map[string]string{"FETCHMAX": "IGNORE"},
		Predicates: []string{"(Q1.CUST_ID = Q2.CUST_ID)"}})
	fetch := mustAdd(p, &qep.Operator{ID: 3, Type: "FETCH", TotalCost: 19.12, IOCost: 2, CPUCost: 1.2e5, FirstRow: 12.9, Cardinality: 19.12,
		Predicates: []string{"(Q2.SALE_DATE > '2015-01-01')"}})
	ix := mustAdd(p, &qep.Operator{ID: 4, Type: "IXSCAN", TotalCost: 12.3, IOCost: 1, CPUCost: 9.1e4, FirstRow: 9.8, Cardinality: 19.12,
		Args: map[string]string{"INDEX": "IDX1"}})
	tb := mustAdd(p, &qep.Operator{ID: 5, Type: "TBSCAN", TotalCost: 15771, IOCost: 1316, CPUCost: 2.8e8, FirstRow: 11.6, Cardinality: 4043})

	p.Link(ret, qep.GeneralStream, nl, nil, 19.12, []string{"Q3.SALE_AMT", "Q3.CUST_NAME"})
	p.Link(nl, qep.OuterStream, fetch, nil, 19.12, []string{"Q2.SALE_AMT", "Q2.CUST_ID"})
	p.Link(nl, qep.InnerStream, tb, nil, 4043, []string{"Q1.CUST_NAME", "Q1.CUST_ID"})
	p.Link(fetch, qep.GeneralStream, ix, nil, 19.12, []string{"Q2.CUST_ID"})
	p.Link(ix, qep.GeneralStream, nil, salesFact, 1e7, []string{"Q2.SALE_DATE"})
	p.Link(tb, qep.GeneralStream, nil, custDim, 4043, []string{"Q1.CUST_NAME", "Q1.CUST_ID"})
	return mustResolve(p)
}

// Figure7 returns the paper's Figure 7 shape: an NLJOIN whose outer subtree
// contains a left-outer HSJOIN and whose inner subtree contains a left-outer
// NLJOIN — the poor-join-order Pattern B, with the LOJ operators several
// hops below the top join (exercising descendant property paths).
func Figure7() *qep.Plan {
	p := qep.NewPlan("Q21")
	p.Statement = "SELECT * FROM (T1 LEFT JOIN T2 ON ...) X JOIN (T3 LEFT JOIN T4 ON ...) Y ON X.K = Y.K"
	p.TotalCost = 196283

	tel := p.AddObject(&qep.BaseObject{Name: "TELEPHONE_DETAIL", Type: "TABLE", Cardinality: 78417, Columns: []string{"K", "V"}})
	tran := p.AddObject(&qep.BaseObject{Name: "TRAN_BASE", Type: "TABLE", Cardinality: 2.77e8, Columns: []string{"K", "AMT"}})
	other := p.AddObject(&qep.BaseObject{Name: "ACCT_DIM", Type: "TABLE", Cardinality: 52000, Columns: []string{"K", "NAME"}})
	p.AddObject(&qep.BaseObject{Name: "IDX9", Type: "INDEX", Cardinality: 2.77e8, Columns: []string{"K"}})

	ret := mustAdd(p, &qep.Operator{ID: 1, Type: "RETURN", TotalCost: 196283, IOCost: 23130, Cardinality: 6.7})
	top := mustAdd(p, &qep.Operator{ID: 5, Type: "NLJOIN", TotalCost: 196280, IOCost: 23129, Cardinality: 6.7,
		Predicates: []string{"(Q1.K = Q21.K)"}})
	lojL := mustAdd(p, &qep.Operator{ID: 6, Type: "HSJOIN", JoinMod: qep.LeftOuterJoin, TotalCost: 180100, IOCost: 21000, Cardinality: 78417,
		Predicates: []string{"(Q4.K = Q5.K)"}})
	hsEarly := mustAdd(p, &qep.Operator{ID: 7, Type: "HSJOIN", JoinMod: qep.EarlyOutJoin, TotalCost: 90000, IOCost: 9000, Cardinality: 78417,
		Predicates: []string{"(Q6.K = Q7.K)"}})
	tbTel := mustAdd(p, &qep.Operator{ID: 8, Type: "TBSCAN", TotalCost: 41000, IOCost: 5000, Cardinality: 78417})
	tbAcct := mustAdd(p, &qep.Operator{ID: 9, Type: "TBSCAN", TotalCost: 30000, IOCost: 2500, Cardinality: 52000})
	tbTel2 := mustAdd(p, &qep.Operator{ID: 12, Type: "TBSCAN", TotalCost: 41000, IOCost: 5000, Cardinality: 78417})
	temp := mustAdd(p, &qep.Operator{ID: 14, Type: "TEMP", TotalCost: 16100, IOCost: 2100, Cardinality: 3.2e-8})
	lojR := mustAdd(p, &qep.Operator{ID: 15, Type: "NLJOIN", JoinMod: qep.LeftOuterJoin, TotalCost: 16090, IOCost: 2099, Cardinality: 3.2e-8,
		Predicates: []string{"(Q8.K = Q9.K)"}})
	fetch := mustAdd(p, &qep.Operator{ID: 16, Type: "FETCH", TotalCost: 8000, IOCost: 1000, Cardinality: 1})
	ix := mustAdd(p, &qep.Operator{ID: 38, Type: "IXSCAN", TotalCost: 4000, IOCost: 500, Cardinality: 1.311e-8,
		Args: map[string]string{"INDEX": "IDX9"}})

	p.Link(ret, qep.GeneralStream, top, nil, 6.7, nil)
	p.Link(top, qep.OuterStream, lojL, nil, 78417, []string{"Q1.K", "Q1.V"})
	p.Link(top, qep.InnerStream, temp, nil, 3.2e-8, []string{"Q21.K"})
	p.Link(lojL, qep.OuterStream, hsEarly, nil, 78417, nil)
	p.Link(lojL, qep.InnerStream, tbTel2, nil, 78417, nil)
	p.Link(hsEarly, qep.OuterStream, tbTel, nil, 78417, nil)
	p.Link(hsEarly, qep.InnerStream, tbAcct, nil, 52000, nil)
	p.Link(tbTel, qep.GeneralStream, nil, tel, 78417, nil)
	p.Link(tbAcct, qep.GeneralStream, nil, other, 52000, nil)
	p.Link(tbTel2, qep.GeneralStream, nil, tel, 78417, nil)
	p.Link(temp, qep.GeneralStream, lojR, nil, 3.2e-8, nil)
	p.Link(lojR, qep.OuterStream, fetch, nil, 1, nil)
	p.Link(lojR, qep.InnerStream, ix, nil, 1.311e-8, nil)
	p.Link(fetch, qep.GeneralStream, nil, tran, 2.77e8, nil)
	p.Link(ix, qep.GeneralStream, nil, tran, 2.77e8, nil)
	return mustResolve(p)
}

// Figure8 returns the paper's Figure 8 shape: an IXSCAN estimating
// 1.311e-08 rows out of a 2.77e+08-row base object — Pattern C.
func Figure8() *qep.Plan {
	p := qep.NewPlan("Q8")
	p.Statement = "SELECT * FROM TRAN_BASE WHERE ACCT = ? AND BRANCH = ?"
	p.TotalCost = 4100

	tran := p.AddObject(&qep.BaseObject{Name: "TRAN_BASE", Type: "TABLE", Cardinality: 2.77e8, Columns: []string{"ACCT", "BRANCH", "AMT"}})
	p.AddObject(&qep.BaseObject{Name: "IDX9", Type: "INDEX", Cardinality: 2.77e8, Columns: []string{"ACCT", "BRANCH"}})

	ret := mustAdd(p, &qep.Operator{ID: 1, Type: "RETURN", TotalCost: 4100, IOCost: 501, Cardinality: 1.311e-8})
	ix := mustAdd(p, &qep.Operator{ID: 38, Type: "IXSCAN", TotalCost: 4000, IOCost: 500, Cardinality: 1.311e-8,
		Args:       map[string]string{"INDEX": "IDX9"},
		Predicates: []string{"(Q21.ACCT = ?)", "(Q21.BRANCH = ?)"}})
	p.Link(ret, qep.GeneralStream, ix, nil, 1.311e-8, nil)
	p.Link(ix, qep.GeneralStream, nil, tran, 2.77e8, nil)
	return mustResolve(p)
}

// SortSpill returns a plan containing Pattern D: a SORT whose input stream
// has a lower I/O cost than the SORT itself (spill indicator).
func SortSpill() *qep.Plan {
	p := qep.NewPlan("Q9")
	p.Statement = "SELECT C1 FROM BIG_T ORDER BY C1"
	p.TotalCost = 9200

	big := p.AddObject(&qep.BaseObject{Name: "BIG_T", Type: "TABLE", Cardinality: 5e6, Columns: []string{"C1", "C2"}})

	ret := mustAdd(p, &qep.Operator{ID: 1, Type: "RETURN", TotalCost: 9200, IOCost: 2210, Cardinality: 5e6})
	srt := mustAdd(p, &qep.Operator{ID: 2, Type: "SORT", TotalCost: 9100, IOCost: 2200, Cardinality: 5e6})
	tb := mustAdd(p, &qep.Operator{ID: 3, Type: "TBSCAN", TotalCost: 4100, IOCost: 900, Cardinality: 5e6})
	p.Link(ret, qep.GeneralStream, srt, nil, 5e6, nil)
	p.Link(srt, qep.GeneralStream, tb, nil, 5e6, []string{"Q1.C1"})
	p.Link(tb, qep.GeneralStream, nil, big, 5e6, []string{"Q1.C1", "Q1.C2"})
	return mustResolve(p)
}

// SharedTemp returns the paper's Section 2.2 ambiguity example: a common
// subexpression — TEMP(6) — consumed by both an NLJOIN and an HSJOIN in
// different parts of the plan (applying different predicates). The plan is
// a DAG, and the reified stream encoding must keep the two consumer edges
// distinct. Matches Pattern F; the TEMP costs more than half the plan, so
// it also matches Pattern E.
func SharedTemp() *qep.Plan {
	p := qep.NewPlan("QCSE")
	p.Statement = "WITH CSE AS (SELECT ...) SELECT * FROM (CSE JOIN A) UNION ALL (CSE JOIN B)"
	p.TotalCost = 900

	a := p.AddObject(&qep.BaseObject{Name: "A", Type: "TABLE", Cardinality: 5000, Columns: []string{"K", "V"}})
	bb := p.AddObject(&qep.BaseObject{Name: "B", Type: "TABLE", Cardinality: 7000, Columns: []string{"K", "W"}})
	src := p.AddObject(&qep.BaseObject{Name: "SRC", Type: "TABLE", Cardinality: 20000, Columns: []string{"K", "X"}})

	ret := mustAdd(p, &qep.Operator{ID: 1, Type: "RETURN", TotalCost: 900, IOCost: 95, Cardinality: 300})
	union := mustAdd(p, &qep.Operator{ID: 2, Type: "UNION", TotalCost: 890, IOCost: 94, Cardinality: 300})
	nl := mustAdd(p, &qep.Operator{ID: 3, Type: "NLJOIN", TotalCost: 700, IOCost: 60, Cardinality: 100,
		Predicates: []string{"(Q1.K = Q3.K)"}})
	hs := mustAdd(p, &qep.Operator{ID: 4, Type: "HSJOIN", TotalCost: 750, IOCost: 70, Cardinality: 200,
		Predicates: []string{"(Q2.K = Q3.K)", "(Q2.W > 10)"}})
	ixA := mustAdd(p, &qep.Operator{ID: 5, Type: "IXSCAN", TotalCost: 40, IOCost: 6, Cardinality: 50})
	temp := mustAdd(p, &qep.Operator{ID: 6, Type: "TEMP", TotalCost: 600, IOCost: 50, Cardinality: 2500})
	ixB := mustAdd(p, &qep.Operator{ID: 7, Type: "IXSCAN", TotalCost: 60, IOCost: 9, Cardinality: 70})
	tbSrc := mustAdd(p, &qep.Operator{ID: 8, Type: "TBSCAN", TotalCost: 560, IOCost: 45, Cardinality: 2500})

	p.Link(ret, qep.GeneralStream, union, nil, 300, nil)
	p.Link(union, qep.OuterStream, nl, nil, 100, nil)
	p.Link(union, qep.InnerStream, hs, nil, 200, nil)
	p.Link(nl, qep.OuterStream, ixA, nil, 50, []string{"Q1.K", "Q1.V"})
	p.Link(nl, qep.InnerStream, temp, nil, 2500, []string{"Q3.K", "Q3.X"})
	p.Link(hs, qep.OuterStream, ixB, nil, 70, []string{"Q2.K", "Q2.W"})
	p.Link(hs, qep.InnerStream, temp, nil, 2500, []string{"Q3.K", "Q3.X"})
	p.Link(ixA, qep.GeneralStream, nil, a, 5000, nil)
	p.Link(ixB, qep.GeneralStream, nil, bb, 7000, nil)
	p.Link(temp, qep.GeneralStream, tbSrc, nil, 2500, nil)
	p.Link(tbSrc, qep.GeneralStream, nil, src, 20000, nil)
	return mustResolve(p)
}

// DoubleFedJoin returns a DAG plan whose shared TEMP is both inputs of one
// join — a self-join of a common subexpression — so Algorithm 1 derives the
// hasChildPop edge from the join to the TEMP twice; a stream column, a
// predicate text and a base-object column also repeat. A graph holds each
// triple once, at the place of its first occurrence. The statement ID, an
// argument key and the object name carry characters an IRI must not hold raw.
// It is what the build path's oracles are run on besides All and SharedTemp,
// and deliberately not part of All.
func DoubleFedJoin() *qep.Plan {
	p := qep.NewPlan("Q a>b")
	p.Statement = "WITH CSE AS (SELECT ...) SELECT * FROM CSE X JOIN CSE Y ON X.K = Y.K"
	p.TotalCost = 500

	src := p.AddObject(&qep.BaseObject{Name: "SCHEMA.\"SRC\"", Type: "TABLE", Cardinality: 20000, Columns: []string{"K", "X", "K"}})

	ret := mustAdd(p, &qep.Operator{ID: 1, Type: "RETURN", TotalCost: 500, Cardinality: 40})
	join := mustAdd(p, &qep.Operator{ID: 2, Type: "HSJOIN", TotalCost: 490, Cardinality: 40,
		Predicates: []string{"(Q1.K = Q2.K)", "(Q1.K = Q2.K)"}, Args: map[string]string{"BIT FLTR": "FALSE", "EARLY<OUT>": "NONE"}})
	temp := mustAdd(p, &qep.Operator{ID: 3, Type: "TEMP", TotalCost: 300, Cardinality: 2500})
	scan := mustAdd(p, &qep.Operator{ID: 4, Type: "TBSCAN", TotalCost: 280, Cardinality: 2500})

	p.Link(ret, qep.GeneralStream, join, nil, 40, nil)
	p.Link(join, qep.OuterStream, temp, nil, 2500, []string{"Q3.K", "Q3.X", "Q3.K"})
	p.Link(join, qep.InnerStream, temp, nil, 2500, []string{"Q3.K", "Q3.X"})
	p.Link(temp, qep.GeneralStream, scan, nil, 2500, nil)
	p.Link(scan, qep.GeneralStream, nil, src, 20000, nil)
	return mustResolve(p)
}

// Clean returns a small plan that matches none of the canonical patterns:
// a hash join fed by two index scans.
func Clean() *qep.Plan {
	p := qep.NewPlan("Q0")
	p.Statement = "SELECT * FROM A JOIN B ON A.K = B.K"
	p.TotalCost = 310

	a := p.AddObject(&qep.BaseObject{Name: "A", Type: "TABLE", Cardinality: 1200, Columns: []string{"K", "V"}})
	b := p.AddObject(&qep.BaseObject{Name: "B", Type: "TABLE", Cardinality: 900, Columns: []string{"K", "W"}})

	ret := mustAdd(p, &qep.Operator{ID: 1, Type: "RETURN", TotalCost: 310, IOCost: 40, Cardinality: 800})
	hs := mustAdd(p, &qep.Operator{ID: 2, Type: "HSJOIN", TotalCost: 300, IOCost: 39, Cardinality: 800,
		Predicates: []string{"(Q1.K = Q2.K)"}})
	ixA := mustAdd(p, &qep.Operator{ID: 3, Type: "IXSCAN", TotalCost: 120, IOCost: 15, Cardinality: 1200})
	ixB := mustAdd(p, &qep.Operator{ID: 4, Type: "IXSCAN", TotalCost: 100, IOCost: 12, Cardinality: 900})
	p.Link(ret, qep.GeneralStream, hs, nil, 800, nil)
	p.Link(hs, qep.OuterStream, ixA, nil, 1200, nil)
	p.Link(hs, qep.InnerStream, ixB, nil, 900, nil)
	p.Link(ixA, qep.GeneralStream, nil, a, 1200, nil)
	p.Link(ixB, qep.GeneralStream, nil, b, 900, nil)
	return mustResolve(p)
}

// All returns one of each fixture plan with distinct IDs.
func All() []*qep.Plan {
	return []*qep.Plan{Figure1(), Figure7(), Figure8(), SortSpill(), Clean()}
}

// Renamed returns the plan with its ID replaced, for building multi-plan
// workloads out of fixtures.
func Renamed(p *qep.Plan, id string) *qep.Plan {
	p.ID = id
	return p
}

// Numbered returns n copies of the fixture set with unique sequential IDs.
func Numbered(n int) []*qep.Plan {
	var out []*qep.Plan
	for i := 0; len(out) < n; i++ {
		for _, p := range All() {
			if len(out) >= n {
				break
			}
			out = append(out, Renamed(p, fmt.Sprintf("W%d", len(out)+1)))
		}
	}
	return out
}
