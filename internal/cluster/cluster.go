// Package cluster implements the cost-based workload clustering the paper's
// introduction calls for ("Perform cost based clustering and correlate
// results of applying expert patterns to each cluster", Section 1.1): plans
// are embedded into a small feature space (log total cost, size, operator
// mix), grouped with k-means, and pattern-match rates are correlated per
// cluster so a DBA can see which kind of queries a problem concentrates in.
//
// The implementation is deterministic: k-means++ style seeding driven by an
// explicit seed, fixed iteration budget, stable tie-breaking.
package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"optimatch/internal/qep"
	"optimatch/internal/stats"
)

// NumFeatures is the dimensionality of the plan embedding.
const NumFeatures = 5

// Features embeds a plan for clustering:
//
//	0: log10(1 + total cost)           — overall expense
//	1: log10(1 + number of LOLEPOPs)   — plan size
//	2: join fraction of operators
//	3: scan fraction of operators
//	4: log10(1 + max base cardinality) — data scale touched
func Features(p *qep.Plan) []float64 {
	var joins, scans int
	for _, op := range p.Ops() {
		if op.IsJoin() {
			joins++
		}
		if op.Class() == "SCAN" {
			scans++
		}
	}
	maxCard := 0.0
	for _, obj := range p.Objects {
		if obj.Cardinality > maxCard {
			maxCard = obj.Cardinality
		}
	}
	n := float64(p.NumOps())
	if n == 0 {
		n = 1
	}
	return []float64{
		math.Log10(1 + math.Max(p.TotalCost, 0)),
		math.Log10(1 + n),
		float64(joins) / n,
		float64(scans) / n,
		math.Log10(1 + maxCard),
	}
}

// Cluster is one k-means cluster over a workload.
type Cluster struct {
	Centroid []float64
	PlanIDs  []string // member plan IDs, sorted
}

// Result is a complete clustering.
type Result struct {
	Clusters []Cluster
	// assign maps plan ID to cluster index.
	assign map[string]int
}

// ClusterOf returns the cluster index of a plan, or -1.
func (r *Result) ClusterOf(planID string) int {
	if i, ok := r.assign[planID]; ok {
		return i
	}
	return -1
}

// K returns the number of clusters.
func (r *Result) K() int { return len(r.Clusters) }

// restarts is the number of deterministic k-means++ restarts; the run with
// the lowest within-cluster sum of squares wins, avoiding local optima.
const restarts = 8

// KMeans clusters the plans into k groups. Features are standardized
// (z-score per dimension) before distance computation so the cost dimension
// does not dominate. The best of several deterministic restarts is kept.
// It returns an error for k < 1 or k > len(plans).
func KMeans(plans []*qep.Plan, k int, seed int64) (*Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("cluster: k must be >= 1")
	}
	if len(plans) < k {
		return nil, fmt.Errorf("cluster: %d plans cannot form %d clusters", len(plans), k)
	}
	points := make([][]float64, len(plans))
	for i, p := range plans {
		points[i] = Features(p)
	}
	standardize(points)
	// The paper asks for *cost based* clustering: after standardization,
	// weight the cost and size dimensions above the noisier operator-mix
	// fractions.
	weights := [NumFeatures]float64{2.0, 1.5, 0.5, 0.5, 1.0}
	for i := range points {
		for d := range points[i] {
			points[i][d] *= weights[d]
		}
	}

	var bestAssign []int
	var bestCentroids [][]float64
	bestInertia := math.Inf(1)
	for r := 0; r < restarts; r++ {
		assign, centroids := kmeansOnce(points, k, seed+int64(r))
		inertia := 0.0
		for i, pt := range points {
			inertia += sqDist(pt, centroids[assign[i]])
		}
		if inertia < bestInertia {
			bestInertia = inertia
			bestAssign, bestCentroids = assign, centroids
		}
	}

	res := &Result{assign: make(map[string]int, len(plans))}
	res.Clusters = make([]Cluster, k)
	for c := range res.Clusters {
		res.Clusters[c].Centroid = bestCentroids[c]
	}
	for i, p := range plans {
		c := bestAssign[i]
		res.Clusters[c].PlanIDs = append(res.Clusters[c].PlanIDs, p.ID)
		res.assign[p.ID] = c
	}
	for c := range res.Clusters {
		sort.Strings(res.Clusters[c].PlanIDs)
	}
	return res, nil
}

// kmeansOnce runs one Lloyd iteration loop from a k-means++ seeding.
func kmeansOnce(points [][]float64, k int, seed int64) ([]int, [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	centroids := seedCentroids(points, k, rng)

	assign := make([]int, len(points))
	const maxIter = 100
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for i, pt := range points {
			best := nearest(centroids, pt)
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		// Recompute centroids.
		sums := make([][]float64, k)
		counts := make([]int, k)
		for c := range sums {
			sums[c] = make([]float64, NumFeatures)
		}
		for i, pt := range points {
			c := assign[i]
			counts[c]++
			for d, v := range pt {
				sums[c][d] += v
			}
		}
		for c := range sums {
			if counts[c] == 0 {
				// Re-seed an empty cluster at the point farthest from its
				// centroid to keep k clusters populated.
				far, dist := 0, -1.0
				for i, pt := range points {
					d := sqDist(pt, centroids[assign[i]])
					if d > dist {
						dist, far = d, i
					}
				}
				copy(sums[c], points[far])
				counts[c] = 1
				assign[far] = c
			}
			for d := range sums[c] {
				sums[c][d] /= float64(counts[c])
			}
		}
		centroids = sums
		if !changed && iter > 0 {
			break
		}
	}
	return assign, centroids
}

func standardize(points [][]float64) {
	for d := 0; d < NumFeatures; d++ {
		col := make([]float64, len(points))
		for i := range points {
			col[i] = points[i][d]
		}
		mean, sd := stats.Mean(col), stats.StdDev(col)
		if sd == 0 {
			sd = 1
		}
		for i := range points {
			points[i][d] = (points[i][d] - mean) / sd
		}
	}
}

// seedCentroids picks k initial centroids k-means++ style.
func seedCentroids(points [][]float64, k int, rng *rand.Rand) [][]float64 {
	centroids := make([][]float64, 0, k)
	first := rng.Intn(len(points))
	centroids = append(centroids, append([]float64(nil), points[first]...))
	for len(centroids) < k {
		weights := make([]float64, len(points))
		total := 0.0
		for i, pt := range points {
			d := math.Inf(1)
			for _, c := range centroids {
				if sd := sqDist(pt, c); sd < d {
					d = sd
				}
			}
			weights[i] = d
			total += d
		}
		if total == 0 {
			// All points coincide with centroids; pick uniformly.
			centroids = append(centroids, append([]float64(nil), points[rng.Intn(len(points))]...))
			continue
		}
		r := rng.Float64() * total
		acc := 0.0
		pick := len(points) - 1
		for i, w := range weights {
			acc += w
			if acc >= r {
				pick = i
				break
			}
		}
		centroids = append(centroids, append([]float64(nil), points[pick]...))
	}
	return centroids
}

func nearest(centroids [][]float64, pt []float64) int {
	best, bestDist := 0, math.Inf(1)
	for c, cent := range centroids {
		if d := sqDist(pt, cent); d < bestDist {
			bestDist, best = d, c
		}
	}
	return best
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// PatternCorrelation summarizes how one pattern's matches distribute over
// the clusters.
type PatternCorrelation struct {
	Pattern string
	// Rate[c] is the fraction of cluster c's plans that match the pattern.
	Rate []float64
	// Lift[c] is Rate[c] divided by the overall match rate (1 = no
	// concentration; >1 = the problem concentrates in this cluster).
	Lift []float64
	// Overall is the workload-wide match rate.
	Overall float64
}

// Correlate computes per-cluster match rates and lifts for a pattern given
// the set of plan IDs the pattern matched.
func Correlate(res *Result, patternName string, matched map[string]bool, totalPlans int) PatternCorrelation {
	pc := PatternCorrelation{
		Pattern: patternName,
		Rate:    make([]float64, res.K()),
		Lift:    make([]float64, res.K()),
	}
	if totalPlans > 0 {
		pc.Overall = float64(len(matched)) / float64(totalPlans)
	}
	for c, cl := range res.Clusters {
		if len(cl.PlanIDs) == 0 {
			continue
		}
		hits := 0
		for _, id := range cl.PlanIDs {
			if matched[id] {
				hits++
			}
		}
		pc.Rate[c] = float64(hits) / float64(len(cl.PlanIDs))
		if pc.Overall > 0 {
			pc.Lift[c] = pc.Rate[c] / pc.Overall
		}
	}
	return pc
}
