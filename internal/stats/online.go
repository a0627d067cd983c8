package stats

import "math"

// Accumulator computes running mean and variance using Welford's online
// algorithm, so the analysis layer can fold millions of pairwise comparisons
// without retaining every sample.
//
// The zero value is ready to use.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds x into the accumulator.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// N returns the number of samples folded so far.
func (a *Accumulator) N() int { return a.n }

// Mean returns the running mean (0 before any samples).
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the running unbiased sample variance.
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the running sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Min returns the smallest sample seen (0 before any samples).
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest sample seen (0 before any samples).
func (a *Accumulator) Max() float64 { return a.max }

// Summary converts the accumulator into a Summary. Median is approximated by
// the mean, since the online form does not retain samples; call sites that
// need exact medians should use Summarize instead.
func (a *Accumulator) Summary() Summary {
	return Summary{
		N:      a.n,
		Mean:   a.mean,
		StdDev: a.StdDev(),
		Min:    a.min,
		Max:    a.max,
		Median: a.mean,
	}
}
