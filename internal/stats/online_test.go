package stats

import (
	"math"
	"strings"
	"testing"
)

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

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	for _, x := range []float64{0, 0.1, 0.3, 0.55, 0.9, 1.0} {
		h.Add(x)
	}
	if h.Total() != 6 {
		t.Fatalf("Total = %d, want 6", h.Total())
	}
	if h.Count(0) != 2 { // 0 and 0.1
		t.Fatalf("bin 0 = %d, want 2", h.Count(0))
	}
	if h.Count(3) != 2 { // 0.9 and 1.0 (closed last bin)
		t.Fatalf("bin 3 = %d, want 2", h.Count(3))
	}
}

func TestHistogramOverUnderflow(t *testing.T) {
	h := NewHistogram(0, 1, 2)
	h.Add(-0.5)
	h.Add(1.5)
	h.Add(0.5)
	if h.Total() != 3 {
		t.Fatalf("Total = %d, want 3", h.Total())
	}
	if got := h.FractionAtLeast(0.5); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Fatalf("FractionAtLeast(0.5) = %v, want 2/3", got)
	}
}

func TestHistogramBinRange(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	lo, hi := h.BinRange(2)
	approx(t, lo, 4, 1e-12, "bin lo")
	approx(t, hi, 6, 1e-12, "bin hi")
	if h.Bins() != 5 {
		t.Fatalf("Bins = %d, want 5", h.Bins())
	}
}

func TestHistogramPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("zero bins", func() { NewHistogram(0, 1, 0) })
	mustPanic("empty interval", func() { NewHistogram(1, 1, 4) })
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram(0, 1, 2)
	h.Add(0.25)
	h.Add(2)
	s := h.String()
	if s == "" {
		t.Fatal("String() returned empty")
	}
	if want := "overflow=1"; !strings.Contains(s, want) {
		t.Fatalf("String() missing %q:\n%s", want, s)
	}
}
