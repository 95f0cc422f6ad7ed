// Quickstart: load the paper's Figure 1 explain plan, draw it, search it
// for Pattern A (an NLJOIN repeatedly scanning a large inner table) and ask
// the canonical knowledge base for recommendations.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"optimatch"
)

// figure1 is the explain file from the paper's Figure 1 in the OptImatch
// explain format: an NLJOIN whose inner input rescans CUST_DIM (4043 rows)
// for each of the ~19 outer rows.
const figure1 = `OPTIMATCH EXPLAIN FILE

Statement ID:	Q2
Statement:
	SELECT F.SALE_AMT, C.CUST_NAME FROM SALES_FACT F, CUST_DIM C
	WHERE F.CUST_ID = C.CUST_ID AND F.SALE_DATE > '2015-01-01'

Access Plan:
-----------
	Total Cost:		15782.2
	Query Degree:		1

Plan Details:
-------------

	1) RETURN: (Return of Data)
		Cumulative Total Cost:		15782.2
		Cumulative I/O Cost:		1320
		Estimated Cardinality:		19.12

		Input Streams:
		-------------
			1) From Operator #2
				Stream Type:	GENERAL
				Estimated Rows:	19.12

	2) NLJOIN: (Nested Loop Join)
		Cumulative Total Cost:		15771
		Cumulative I/O Cost:		1318
		Estimated Cardinality:		19.12

		Predicates:
		----------
		(Q1.CUST_ID = Q2.CUST_ID)

		Input Streams:
		-------------
			1) From Operator #3
				Stream Type:	OUTER
				Estimated Rows:	19.12
				Columns:	+Q2.SALE_AMT+Q2.CUST_ID

			2) From Operator #5
				Stream Type:	INNER
				Estimated Rows:	4043
				Columns:	+Q1.CUST_NAME+Q1.CUST_ID

	3) FETCH: (Fetch)
		Cumulative Total Cost:		19.12
		Cumulative I/O Cost:		2
		Estimated Cardinality:		19.12

		Input Streams:
		-------------
			1) From Operator #4
				Stream Type:	GENERAL
				Estimated Rows:	19.12

	4) IXSCAN: (Index Scan)
		Cumulative Total Cost:		12.3
		Cumulative I/O Cost:		1
		Estimated Cardinality:		19.12

		Arguments:
		---------
		INDEX: IDX1

		Input Streams:
		-------------
			1) From Object SALES_FACT
				Stream Type:	GENERAL
				Estimated Rows:	1.0E+07

	5) TBSCAN: (Table Scan)
		Cumulative Total Cost:		15771
		Cumulative I/O Cost:		1316
		Estimated Cardinality:		4043

		Input Streams:
		-------------
			1) From Object CUST_DIM
				Stream Type:	GENERAL
				Estimated Rows:	4043
				Columns:	+Q1.CUST_NAME+Q1.CUST_ID

Base Objects:
-------------
	CUST_DIM
		Type:	TABLE
		Cardinality:	4043
		Columns:	CUST_ID,CUST_NAME,REGION

	SALES_FACT
		Type:	TABLE
		Cardinality:	1.0E+07
		Columns:	CUST_ID,SALE_AMT,SALE_DATE

End of Explain
`

func main() {
	eng := optimatch.New()
	plan, err := eng.LoadText(figure1)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Loaded plan %s with %d operators (total cost %.1f)\n\n",
		plan.ID, plan.NumOps(), plan.TotalCost)
	fmt.Println(optimatch.RenderPlan(plan))

	// Search for Pattern A: NLJOIN whose inner input is a large table scan.
	matches, err := eng.FindPattern(context.Background(), optimatch.PatternA())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Pattern A matches: %d\n", len(matches))
	for _, m := range matches {
		fmt.Println(" ", m.String())
	}

	// Ask the expert knowledge base what to do about it.
	reports, err := eng.RunKB(context.Background(), optimatch.CanonicalKB())
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range reports {
		fmt.Printf("\nRecommendations for %s (%s):\n", r.Plan.ID, r.Message())
		for _, rec := range r.Recommendations {
			fmt.Printf("  [confidence %.2f] %s\n    %s\n",
				rec.Confidence, rec.Recommendation.Title, rec.Text)
		}
	}
}
