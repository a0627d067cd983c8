package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, eps float64, name string) {
	t.Helper()
	if math.Abs(got-want) > eps {
		t.Fatalf("%s = %v, want %v (±%v)", name, got, want, eps)
	}
}

var (
	cleveland = Point{41.4993, -81.6944}
	columbus  = Point{39.9612, -82.9988}
	nyc       = Point{40.7128, -74.0060}
	la        = Point{34.0522, -118.2437}
)

func TestDistanceKnownPairs(t *testing.T) {
	// Cleveland–Columbus is about 142 km (great circle).
	approx(t, DistanceKm(cleveland, columbus), 204, 80, "CLE-CMH rough")
	// NYC–LA is about 3936 km.
	approx(t, DistanceKm(nyc, la), 3936, 40, "NYC-LA")
	// Same point: zero.
	approx(t, DistanceKm(nyc, nyc), 0, 1e-9, "identity")
}

func TestDistanceSymmetry(t *testing.T) {
	f := func(a, b Point) bool {
		a = clampPoint(a)
		b = clampPoint(b)
		d1 := DistanceKm(a, b)
		d2 := DistanceKm(b, a)
		return math.Abs(d1-d2) < 1e-9 && d1 >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceTriangleInequality(t *testing.T) {
	f := func(a, b, c Point) bool {
		a, b, c = clampPoint(a), clampPoint(b), clampPoint(c)
		return DistanceKm(a, c) <= DistanceKm(a, b)+DistanceKm(b, c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func clampPoint(p Point) Point {
	lat := math.Mod(math.Abs(p.Lat), 90)
	lon := math.Mod(math.Abs(p.Lon), 180)
	if math.IsNaN(lat) {
		lat = 0
	}
	if math.IsNaN(lon) {
		lon = 0
	}
	return Point{Lat: lat, Lon: lon}
}

func TestDistanceMiles(t *testing.T) {
	km := DistanceKm(nyc, la)
	approx(t, DistanceMiles(nyc, la), km/KmPerMile, 1e-9, "miles conversion")
}

func TestBearing(t *testing.T) {
	// Due north.
	b := Bearing(Point{40, -80}, Point{41, -80})
	approx(t, b, 0, 0.01, "north bearing")
	// Due south.
	b = Bearing(Point{41, -80}, Point{40, -80})
	approx(t, b, 180, 0.01, "south bearing")
	// Eastward (roughly 90 at the equator).
	b = Bearing(Point{0, 0}, Point{0, 1})
	approx(t, b, 90, 0.01, "east bearing")
	if b < 0 || b >= 360 {
		t.Fatalf("bearing %v outside [0,360)", b)
	}
}

func TestDestinationRoundTrip(t *testing.T) {
	f := func(latSeed, lonSeed, brngSeed, distSeed float64) bool {
		if anyBad(latSeed, lonSeed, brngSeed, distSeed) {
			return true
		}
		start := Point{
			Lat: math.Mod(math.Abs(latSeed), 60), // stay away from poles
			Lon: math.Mod(math.Abs(lonSeed), 170),
		}
		brng := math.Mod(math.Abs(brngSeed), 360)
		dist := math.Mod(math.Abs(distSeed), 2000) // up to 2000 km
		end := Destination(start, brng, dist)
		if !end.Valid() {
			return false
		}
		// Travelling distance dist must land dist away (great circle).
		return math.Abs(DistanceKm(start, end)-dist) < 0.5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func anyBad(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
	}
	return false
}

func TestDestinationKnown(t *testing.T) {
	// 111.195 km due north is almost exactly 1 degree of latitude.
	p := Destination(Point{40, -80}, 0, 111.195)
	approx(t, p.Lat, 41, 0.01, "north dest lat")
	approx(t, p.Lon, -80, 0.01, "north dest lon")
}

func TestMidpoint(t *testing.T) {
	mid := Midpoint(Point{0, 0}, Point{0, 10})
	approx(t, mid.Lat, 0, 1e-9, "mid lat")
	approx(t, mid.Lon, 5, 1e-9, "mid lon")
	// Midpoint is equidistant.
	a, b := nyc, la
	m := Midpoint(a, b)
	approx(t, DistanceKm(a, m), DistanceKm(b, m), 0.5, "mid equidistant")
}

func TestCentroid(t *testing.T) {
	if c := Centroid(nil); c != (Point{}) {
		t.Fatalf("Centroid(nil) = %v, want zero", c)
	}
	pts := []Point{{10, 20}, {10, 20}}
	c := Centroid(pts)
	approx(t, c.Lat, 10, 1e-9, "degenerate centroid lat")
	approx(t, c.Lon, 20, 1e-9, "degenerate centroid lon")
	// Symmetric points around equator.
	c = Centroid([]Point{{10, 0}, {-10, 0}})
	approx(t, c.Lat, 0, 1e-9, "symmetric centroid lat")
}

func TestBounds(t *testing.T) {
	if _, ok := Bounds(nil); ok {
		t.Fatal("Bounds(nil) ok")
	}
	bb, ok := Bounds([]Point{{1, 2}, {-3, 7}, {5, -4}})
	if !ok {
		t.Fatal("Bounds not ok")
	}
	if bb.MinLat != -3 || bb.MaxLat != 5 || bb.MinLon != -4 || bb.MaxLon != 7 {
		t.Fatalf("Bounds = %+v", bb)
	}
	if !bb.Contains(Point{0, 0}) || bb.Contains(Point{10, 0}) {
		t.Fatal("Contains incorrect")
	}
}

func TestPointStringParseRoundTrip(t *testing.T) {
	p := Point{41.499321, -81.694412}
	got, err := ParsePoint(p.String())
	if err != nil {
		t.Fatal(err)
	}
	approx(t, got.Lat, p.Lat, 1e-6, "round-trip lat")
	approx(t, got.Lon, p.Lon, 1e-6, "round-trip lon")
}

func TestParsePointErrors(t *testing.T) {
	for _, s := range []string{"", "abc", "1.0", "91.0,0.0", "0.0,181.0",
		// Trailing input, a third field, digit separators, spaces, hex.
		"41.5,-81.6xyz", "41.5,-81.6,7", "4_1.5,-81.6", " 41.5, -81.6", "0x1p-2,0"} {
		if _, err := ParsePoint(s); err == nil {
			t.Fatalf("ParsePoint(%q) succeeded, want error", s)
		}
	}
}

func TestPointValid(t *testing.T) {
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{0, 0}, true},
		{Point{90, 180}, true},
		{Point{-90, -180}, true},
		{Point{90.1, 0}, false},
		{Point{0, -180.1}, false},
		{Point{math.NaN(), 0}, false},
	}
	for _, c := range cases {
		if got := c.p.Valid(); got != c.want {
			t.Fatalf("Valid(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}
