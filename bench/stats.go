package main

import (
	"math"
	"sort"
)

// sample is one reported metric: the headline value, the quartiles of the
// per-repetition (or per-cycle) values it was taken from, and how many raw
// observations stand behind it.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// spread is the interquartile range as a share of the headline value.
func (s sample) spread() float64 {
	if s.Value == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Value)
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile is the linearly interpolated q-quantile (0 <= q <= 1) of xs;
// 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// ratio is a/b, and 0 when b is 0 (a layer that did no work reports 0, not
// NaN, so the results document stays valid JSON).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medianOf reports the median of per-repetition values with their
// quartiles as the spread.
func medianOf(unit string, reps []float64) sample {
	return sample{Value: median(reps), Unit: unit, Q1: quantile(reps, 0.25), Q3: quantile(reps, 0.75), N: len(reps)}
}

// beyond counts the samples strictly above the q-quantile position: the
// tail the quantile is estimated from.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - int(math.Floor(q*float64(n-1)))
}

// tailOK is the "ten samples beyond" rule: a percentile is only as good as
// the number of observations above it.
func tailOK(n int, q float64) bool { return beyond(n, q) >= 10 }

// pooledQuantile reports the q-quantile over the pooled samples of every
// repetition; the quartiles are those of the same quantile taken per
// repetition, and N is the pooled count.
func pooledQuantile(unit string, q float64, reps [][]float64) sample {
	var pool, per []float64
	for _, r := range reps {
		pool = append(pool, r...)
		if len(r) > 0 {
			per = append(per, quantile(r, q))
		}
	}
	return sample{Value: quantile(pool, q), Unit: unit, Q1: quantile(per, 0.25), Q3: quantile(per, 0.75), N: len(pool)}
}
