package main

import (
	"math"
	"sort"
	"time"
)

// fold summarizes one sample of measurements: the median, the p90, and
// how many samples back each figure. A percentile is only as good as the
// samples beyond it, so the fold keeps that count too.
type fold struct {
	n         int
	p50, p90  float64
	beyondP90 int // samples strictly above the p90 rank
}

// foldOf folds xs by nearest rank (the smallest sample with at least p of
// the mass at or below it). xs is not modified. An empty sample folds to
// zeros.
func foldOf(xs []float64) fold {
	if len(xs) == 0 {
		return fold{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i90 := rank(len(s), 0.90)
	return fold{
		n:         len(s),
		p50:       s[rank(len(s), 0.50)],
		p90:       s[i90],
		beyondP90: len(s) - 1 - i90,
	}
}

// rank is the 0-based nearest-rank index of quantile p in n samples.
func rank(n int, p float64) int {
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		return 0
	}
	return i
}

// slice is one timed stretch of a measurement window: the operations it
// completed, its length, their latencies in ms, and the host speed factor
// sampled around it (see hostspeed.go).
type slice struct {
	ok    int
	dur   time.Duration
	lat   []float64
	speed float64
}

// sliced summarizes a window at nominal host speed: rate is the median
// over slices of each slice's rate divided by its speed factor, and
// adjusted folds every latency multiplied by its slice's factor. raw folds
// the latencies as measured, rawRate is the window's measured rate, and
// speed is the median factor.
type sliced struct {
	slices         int
	rate           float64
	adjusted, raw  fold
	rawRate, speed float64
}

func summarize(ss []slice) sliced {
	var rates, speeds, lat, raw []float64
	var ok int
	var dur time.Duration
	for _, s := range ss {
		rates = append(rates, s.rate()/s.speed)
		speeds = append(speeds, s.speed)
		for _, l := range s.lat {
			lat = append(lat, l*s.speed)
		}
		raw = append(raw, s.lat...)
		ok += s.ok
		dur += s.dur
	}
	return sliced{slices: len(ss), rate: median(rates), adjusted: foldOf(lat), raw: foldOf(raw),
		rawRate: ratio(float64(ok), dur.Seconds()), speed: median(speeds)}
}

func (s slice) rate() float64 { return ratio(float64(s.ok), s.dur.Seconds()) }

// median is foldOf(xs).p50.
func median(xs []float64) float64 { return foldOf(xs).p50 }

// micros converts durations to float microseconds.
func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// ratio is num/den, or 0 when den is 0 (a layer the workload never used).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
