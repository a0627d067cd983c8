package stats

import "testing"

func TestAccumulatorMatchesBatch(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var a Accumulator
	for _, x := range xs {
		a.Add(x)
	}
	if a.N() != len(xs) {
		t.Fatalf("N = %d, want %d", a.N(), len(xs))
	}
	approx(t, a.Mean(), Mean(xs), 1e-12, "online mean")
	approx(t, a.Variance(), Variance(xs), 1e-12, "online variance")
	approx(t, a.StdDev(), StdDev(xs), 1e-12, "online stddev")
	approx(t, a.Min(), 2, 0, "online min")
	approx(t, a.Max(), 9, 0, "online max")
}

func TestAccumulatorEmpty(t *testing.T) {
	var a Accumulator
	if a.N() != 0 || a.Mean() != 0 || a.Variance() != 0 {
		t.Fatalf("zero-value accumulator is not empty: %+v", a)
	}
}
