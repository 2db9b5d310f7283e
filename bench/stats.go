package main

import (
	"fmt"
	"math"
	"slices"
)

// fastest returns the smallest of xs. Time-based metrics use it across a
// run's repetitions: the repetitions do identical seeded work, so on a
// shared box anything above the minimum is interference, which only ever
// adds time.
func fastest(xs []float64) float64 { return slices.Min(xs) }

// minBeyond is the number of samples that must lie beyond a reported
// percentile: with fewer, the value is an order statistic of the tail's
// noise, not a percentile.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank method. It refuses a percentile with fewer than minBeyond
// samples above it.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v out of (0,100)", p)
	}
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%v of %d samples has %d beyond it, need %d", p, n, n-rank, minBeyond)
	}
	s := append([]float64(nil), xs...)
	slices.Sort(s)
	return s[rank-1], nil
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (its default "exclusive" method),
// so the noise study computes exactly the spread the acceptance pipeline
// computes.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 samples, got %d", n)
	}
	s := append([]float64(nil), xs...)
	slices.Sort(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3), nil
}

// median is the middle cut point of quartiles.
func median(xs []float64) float64 {
	if len(xs) == 1 {
		return xs[0]
	}
	_, m, _, err := quartiles(xs)
	if err != nil {
		return math.NaN()
	}
	return m
}

// quartileSpread is the distance between the first and third quartile as
// a share of the median.
func quartileSpread(xs []float64) float64 {
	q1, m, q3, err := quartiles(xs)
	if err != nil || m == 0 {
		return math.NaN()
	}
	return (q3 - q1) / math.Abs(m)
}
