package geo

import (
	"fmt"
	"math"
	"testing"
)

// FuzzParsePoint fuzzes the parser of /search's ll= parameter and the
// formatter that writes it. No input may panic ParsePoint, and a point it
// accepts must be valid and survive String and ParsePoint again. For any
// float64 pair, String must be the "%.6f,%.6f" rendering it replaced, and
// a valid pair must survive the same round trip.
func FuzzParsePoint(f *testing.F) {
	for _, s := range []string{"41.4993,-81.6944", "-0,-0", "90,180", "-90,-180", "1e-7,-1e-7",
		"NaN,0", "+Inf,0", "91,0", "41.5,-81.6,7", "4_1.5,-81.6", " 41.5, -81.6", "0x1p-2,0", ""} {
		f.Add(s, 0.0, 0.0)
	}
	for _, v := range []float64{math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1e-7, 90, -90, 180, -180} {
		f.Add("", v, v)
	}
	f.Fuzz(func(t *testing.T, s string, lat, lon float64) {
		if p, err := ParsePoint(s); err == nil {
			if !p.Valid() {
				t.Fatalf("ParsePoint(%q) accepted invalid point %v", s, p)
			}
			checkStringRoundTrip(t, p)
		}
		p := Point{Lat: lat, Lon: lon}
		if got, want := p.String(), fmt.Sprintf("%.6f,%.6f", lat, lon); got != want {
			t.Fatalf("Point{%v, %v}.String() = %q, want %q", lat, lon, got, want)
		}
		if p.Valid() {
			checkStringRoundTrip(t, p)
		}
	})
}

// checkStringRoundTrip requires ParsePoint to accept p.String() and give
// back each coordinate within half its last printed digit (5e-7), plus
// the parse's own rounding.
func checkStringRoundTrip(t *testing.T, p Point) {
	t.Helper()
	const tol = 5e-7 + 1e-12
	q, err := ParsePoint(p.String())
	if err != nil {
		t.Fatalf("ParsePoint(%q) of valid %v: %v", p.String(), p, err)
	}
	if math.Abs(q.Lat-p.Lat) > tol || math.Abs(q.Lon-p.Lon) > tol {
		t.Fatalf("%v -> %q -> %v: moved by more than 5e-7", p, p.String(), q)
	}
}
