// Package stats provides the small statistical toolkit used throughout the
// measurement pipeline: summary statistics, correlation coefficients and
// simple linear regression.
//
// The package is intentionally dependency-free and operates on float64
// slices. All functions treat an empty input as a degenerate case and return
// zero values rather than panicking, because the analysis layer frequently
// aggregates over filtered subsets that may be empty (e.g. "News-card noise
// for brand queries" is legitimately an empty set).
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (divisor n-1).
// Slices with fewer than two elements have zero variance by convention.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Min returns the smallest element of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Median returns the median of xs without mutating the input.
func Median(xs []float64) float64 {
	return Percentile(xs, 50)
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. The input is not mutated.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Summary bundles the descriptive statistics reported for every bar and
// error bar in the paper's figures.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		Min:    Min(xs),
		Max:    Max(xs),
		Median: Median(xs),
	}
}

// Pearson returns the Pearson product-moment correlation coefficient between
// xs and ys. It returns 0 when the inputs differ in length, are shorter than
// two elements, or either input has zero variance (the coefficient is
// undefined in those cases; 0 is the conservative "no correlation" answer the
// demographics analysis wants).
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Spearman returns Spearman's rank correlation coefficient, i.e. the Pearson
// correlation of the rank-transformed inputs. Ties receive fractional
// (mid) ranks.
func Spearman(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	return Pearson(Ranks(xs), Ranks(ys))
}

// Ranks returns the fractional ranks of xs (1-based; ties get the mean of
// the ranks they span).
func Ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// Elements i..j (in sorted order) are tied; assign the mid rank.
		mid := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = mid
		}
		i = j + 1
	}
	return ranks
}

// Linear holds the result of a simple least-squares linear regression
// y = Slope*x + Intercept.
type Linear struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// LinearFit performs an ordinary least-squares fit of ys against xs.
// Degenerate inputs (mismatched lengths, fewer than two points, zero x
// variance) yield a zero-valued Linear.
func LinearFit(xs, ys []float64) Linear {
	if len(xs) != len(ys) || len(xs) < 2 {
		return Linear{}
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 {
		return Linear{}
	}
	slope := sxy / sxx
	fit := Linear{Slope: slope, Intercept: my - slope*mx}
	if syy > 0 {
		fit.R2 = (sxy * sxy) / (sxx * syy)
	}
	return fit
}
