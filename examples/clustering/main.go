// Clustering demonstrates the last motivating scenario of the paper's
// introduction: "Perform cost based clustering and correlate results of
// applying expert patterns to each cluster." The workload is grouped into
// cost-based clusters, each expert pattern is matched workload-wide, and
// per-cluster match rates and lifts show which kind of queries each problem
// concentrates in.
//
// Run with: go run ./examples/clustering
package main

import (
	"context"
	"fmt"
	"log"

	"optimatch"
)

func main() {
	w, err := optimatch.GenerateWorkload(optimatch.WorkloadConfig{
		Seed: 21, NumPlans: 240, MinOps: 20, MaxOps: 220, Bimodal: true,
		InjectA: 30, InjectB: 18, InjectC: 28, InjectD: 20,
	})
	if err != nil {
		log.Fatal(err)
	}
	eng := optimatch.New()
	if err := eng.LoadPlans(w.Plans); err != nil {
		log.Fatal(err)
	}

	const k = 4
	clusters, err := optimatch.ClusterWorkload(w.Plans, k, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload of %d plans grouped into %d cost-based clusters:\n", len(w.Plans), k)
	for c, cl := range clusters.Clusters {
		fmt.Printf("  cluster %d: %3d plans\n", c, len(cl.PlanIDs))
	}

	patterns := map[string]*optimatch.Pattern{
		"A (nljoin/table scan)": optimatch.PatternA(),
		"B (LOJ both sides)":    optimatch.PatternB(),
		"C (card collapse)":     optimatch.PatternC(),
		"D (sort spill)":        optimatch.PatternD(),
	}
	names := []string{"A (nljoin/table scan)", "B (LOJ both sides)", "C (card collapse)", "D (sort spill)"}

	fmt.Printf("\n%-24s %8s", "pattern", "overall")
	for c := 0; c < k; c++ {
		fmt.Printf("  c%d rate (lift)", c)
	}
	fmt.Println()
	for _, name := range names {
		matches, err := eng.FindPattern(context.Background(), patterns[name])
		if err != nil {
			log.Fatal(err)
		}
		pc := optimatch.CorrelateMatches(clusters, name, matches, len(w.Plans))
		fmt.Printf("%-24s %7.0f%%", name, pc.Overall*100)
		for c := 0; c < k; c++ {
			fmt.Printf("  %5.0f%% (%.1fx)", pc.Rate[c]*100, pc.Lift[c])
		}
		fmt.Println()
	}
	fmt.Println("\nlift > 1 means the problem concentrates in that cluster;")
	fmt.Println("a DBA can focus tuning effort on the cluster with the highest lift.")
}
