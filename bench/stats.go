package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of v; 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// minTailSamples is how many samples must lie beyond a reported tail
// percentile (choosing-metrics guide, section 1).
const minTailSamples = 10

// tailPercentile returns the want-th percentile (nearest rank) of v, lowered
// to the highest percentile that still has minTailSamples samples beyond it,
// and never below the median. used is the percentile actually reported.
func tailPercentile(v []float64, want float64) (value, used float64) {
	n := len(v)
	if n == 0 {
		return 0, 0
	}
	s := sorted(v)
	rank := int(math.Ceil(want * float64(n)))
	if max := n - minTailSamples; rank > max {
		rank = max
	}
	if mid := (n + 1) / 2; rank < mid {
		rank = mid
	}
	return s[rank-1], float64(rank) / float64(n)
}

// quartiles reproduces Python's statistics.quantiles(v, n=4) (the default
// exclusive method), which is what the driver computes spreads with.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance of v as a share of its median.
func spread(v []float64) float64 {
	q1, _, q3 := quartiles(v)
	m := median(v)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}
