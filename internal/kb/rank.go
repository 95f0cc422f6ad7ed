package kb

import (
	"math"

	"optimatch/internal/pattern"
	"optimatch/internal/qep"
	"optimatch/internal/stats"
	"optimatch/internal/transform"
)

// NumFeatures is the length of the characteristic vectors used for ranking.
const NumFeatures = 5

// Features computes the characteristic vector of one match occurrence, each
// component normalized to [0, 1]:
//
//	0: cost share     — highest cumulative cost among bound operators,
//	                    relative to the plan's total cost
//	1: cardinality    — log-scaled highest cardinality among bound entities
//	2: self-cost share— highest own (non-cumulative) cost share
//	3: join fraction  — fraction of bound operators that are joins
//	4: scan fraction  — fraction of bound operators that are scans
//
// These are the "cardinality and cost estimates" context the paper's
// statistical correlation analysis compares against the expert profile.
func Features(m transform.Match) []float64 {
	var maxCost, maxCard, maxSelf float64
	var ops, joins, scans int
	for c := range m.Cells {
		if op := m.Operator(c); op != nil {
			ops++
			if op.TotalCost > maxCost {
				maxCost = op.TotalCost
			}
			if op.Cardinality > maxCard {
				maxCard = op.Cardinality
			}
			if sc := op.SelfCost(); sc > maxSelf {
				maxSelf = sc
			}
			if op.IsJoin() {
				joins++
			}
			if op.Class() == "SCAN" {
				scans++
			}
			continue
		}
		if obj := m.Object(c); obj != nil {
			if obj.Cardinality > maxCard {
				maxCard = obj.Cardinality
			}
		}
	}
	total := m.Plan().TotalCost
	if total <= 0 {
		total = 1
	}
	f := make([]float64, NumFeatures)
	f[0] = stats.Clamp(maxCost/total, 0, 1)
	f[1] = stats.Clamp(math.Log10(1+maxCard)/10, 0, 1)
	f[2] = stats.Clamp(maxSelf/total, 0, 1)
	if ops > 0 {
		f[3] = float64(joins) / float64(ops)
		f[4] = float64(scans) / float64(ops)
	}
	return f
}

// DefaultProfile derives an expert profile from the pattern structure when
// the author did not supply one: expensive (high cost share), mid
// cardinality, and the join/scan fractions the pattern itself prescribes.
func DefaultProfile(p *pattern.Pattern) []float64 {
	var joins, scans, ops int
	for _, pop := range p.Pops {
		if pop.Type == pattern.TypeBaseObj {
			continue
		}
		ops++
		switch {
		case pop.Type == pattern.TypeJoin || qep.IsJoinType(pop.Type):
			joins++
		case pop.Type == pattern.TypeScan || qep.IsScanType(pop.Type):
			scans++
		}
	}
	f := []float64{0.8, 0.5, 0.3, 0, 0}
	if ops > 0 {
		f[3] = float64(joins) / float64(ops)
		f[4] = float64(scans) / float64(ops)
	}
	return f
}

// Confidence scores one occurrence against an entry profile: the Pearson
// correlation of the two characteristic vectors, mapped into [0, 1] and
// scaled by the recommendation's expert weight. A zero-information
// correlation (0) yields the midpoint weight*0.55.
func Confidence(profile, features []float64, weight float64) float64 {
	if weight == 0 {
		weight = 1
	}
	r := stats.Pearson(profile, features)
	return stats.Clamp(weight*(0.55+0.45*r), 0, 1)
}
