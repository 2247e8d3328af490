// Package stats provides the small statistical toolkit the evaluation
// harness needs: summary statistics, Pearson correlation (Fig. 5 of the
// paper plots CPI↔miss correlation per application), normalisation
// helpers for the per-thread figures, and series utilities.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by reductions over empty inputs.
var ErrEmpty = errors.New("stats: empty input")

// Mean returns the arithmetic mean of xs, or 0 if xs is empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// Sum returns the sum of xs using Kahan compensation so that long
// interval series do not accumulate drift.
func Sum(xs []float64) float64 {
	var sum, comp float64
	for _, x := range xs {
		y := x - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum
}

// Variance returns the population variance of xs, or 0 for fewer than
// two samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var acc float64
	for _, x := range xs {
		d := x - m
		acc += d * d
	}
	return acc / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the minimum of xs.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the maximum of xs.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// ArgMin returns the index of the smallest element of xs, with ties
// resolved to the lowest index.
func ArgMin(xs []float64) (int, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	idx := 0
	for i, x := range xs {
		if x < xs[idx] {
			idx = i
		}
	}
	return idx, nil
}

// ArgMax returns the index of the largest element of xs, with ties
// resolved to the lowest index.
func ArgMax(xs []float64) (int, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	idx := 0
	for i, x := range xs {
		if x > xs[idx] {
			idx = i
		}
	}
	return idx, nil
}

// Pearson returns the Pearson correlation coefficient between xs and ys.
// The slices must have equal length >= 2. If either series is constant
// the correlation is undefined and Pearson returns 0.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: Pearson requires equal-length series")
	}
	if len(xs) < 2 {
		return 0, errors.New("stats: Pearson requires at least 2 samples")
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// NormalizeToMax scales xs so the largest element becomes 1. A zero or
// empty series is returned as an all-zero copy of the same length.
func NormalizeToMax(xs []float64) []float64 {
	out := make([]float64, len(xs))
	m, err := Max(xs)
	if err != nil || m == 0 {
		return out
	}
	for i, x := range xs {
		out[i] = x / m
	}
	return out
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between order statistics.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, errors.New("stats: percentile out of [0,100]")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Improvement returns the relative improvement of `candidate` over
// `baseline` when both are "time-like" quantities (lower is better):
// a positive result means the candidate is faster. Expressed as a
// fraction (0.10 == 10%).
func Improvement(baselineTime, candidateTime float64) float64 {
	if baselineTime == 0 {
		return 0
	}
	return (baselineTime - candidateTime) / baselineTime
}
