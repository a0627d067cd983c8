package webcorpus

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"geoserp/internal/detrand"
	"geoserp/internal/geo"
)

// raceEnabled is set by race_test.go in builds with the race detector.
var raceEnabled bool

// referenceNear is Near without cell pruning or the store: it scans the
// whole padded rectangle with cellBusinesses, keeps every business within
// radiusKm and sorts them by (distance, ID). For a valid point Near must
// return exactly its result.
func referenceNear(p *Places, pt geo.Point, kindKey string, radiusKm float64) []Nearby {
	ki, ok := p.kinds[kindKey]
	if !ok || radiusKm <= 0 {
		return nil
	}
	center := p.cellOf(pt)
	latKmPerCell := p.cellLatDeg * 111.32
	lonKmPerCell := p.cellLonDeg * 111.32 * math.Cos(pt.Lat*math.Pi/180)
	if lonKmPerCell < 0.5 {
		lonKmPerCell = 0.5
	}
	di := int32(math.Ceil(radiusKm/latKmPerCell)) + 1
	dj := int32(math.Ceil(radiusKm/lonKmPerCell)) + 1
	var out []Nearby
	for i := center.i - di; i <= center.i+di; i++ {
		for j := center.j - dj; j <= center.j+dj; j++ {
			for _, b := range p.cellBusinesses(cell{i, j}, p.kindList[ki]) {
				if d := geo.DistanceKm(pt, b.Point); d <= radiusKm {
					out = append(out, Nearby{Business: b, DistKm: d})
				}
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].DistKm != out[b].DistKm {
			return out[a].DistKm < out[b].DistKm
		}
		return out[a].ID < out[b].ID
	})
	return out
}

// cellBusinesses is the generator Places used before it stored records:
// it builds the establishments of one kind within one grid cell with fmt.
// Places.appendCell must draw the same stream in the same order.
func (p *Places) cellBusinesses(c cell, kind PlaceKind) []Business {
	rng := p.cellRNG(c, kind.Key)
	// Sample a count with mean kind.Density: floor + Bernoulli remainder.
	n := int(kind.Density)
	if rng.Bool(kind.Density - float64(n)) {
		n++
	}
	if n == 0 {
		return nil
	}
	out := make([]Business, 0, n)
	for k := 0; k < n; k++ {
		lat := (float64(c.i) + rng.Float64()) * p.cellLatDeg
		lon := (float64(c.j) + rng.Float64()) * p.cellLonDeg
		id := fmt.Sprintf("%s-%d-%d-%d", kind.Key, c.i, c.j, k)
		var name, url string
		if kind.Brand {
			display := brandDisplay[kind.Key]
			if display == "" {
				display = TitleCase(kind.Key)
			}
			hood := detrand.Pick(&rng, neighborhoodNames)
			name = fmt.Sprintf("%s — %s", display, hood)
			url = fmt.Sprintf("https://locations.%s.example/store/%d-%d-%d", kind.Key, c.i, c.j, k)
		} else {
			hood := detrand.Pick(&rng, neighborhoodNames)
			suffix := detrand.Pick(&rng, kind.NameSuffixes)
			name = fmt.Sprintf("%s %s", hood, suffix)
			url = fmt.Sprintf("https://%s.%s.example/", slug(name), kind.Key)
		}
		out = append(out, Business{
			ID:         id,
			Name:       name,
			Kind:       kind.Key,
			Point:      geo.Point{Lat: lat, Lon: lon},
			Rating:     math.Round(rng.Range(2.5, 5.0)*10) / 10,
			Popularity: rng.Float64(),
			URL:        url,
		})
	}
	return out
}

// referencePoints returns the 59 study points followed by seeded points
// where the scan rectangle is unusual: |lat| >= 80 (its width is clamped
// and rows can pass the pole) and lon within half a degree of ±180 (it
// does not wrap the antimeridian). The first extra point is both.
//
// Under the race detector, which slows cell generation about sixfold and
// has nothing to check in this single-goroutine test, it returns every
// fourth study point and the first extra point.
func referencePoints() []geo.Point {
	var pts []geo.Point
	for n, loc := range geo.StudyLocations() {
		if !raceEnabled || n%4 == 0 {
			pts = append(pts, loc.Point)
		}
	}
	rng := detrand.NewKeyed(1, "near-reference")
	sign := func() float64 {
		if rng.Bool(0.5) {
			return -1
		}
		return 1
	}
	polar := func() float64 { return sign() * rng.Range(80, 89.99) }
	antimeridian := func() float64 { return sign() * rng.Range(179.5, 180) }
	pts = append(pts, geo.Point{Lat: polar(), Lon: antimeridian()})
	if raceEnabled {
		return pts
	}
	for k := 0; k < 2; k++ {
		pts = append(pts, geo.Point{Lat: polar(), Lon: rng.Range(-180, 180)})
		pts = append(pts, geo.Point{Lat: rng.Range(-70, 70), Lon: antimeridian()})
	}
	return pts
}

// TestNearMatchesFullRectangleScan checks the pruned Near against
// referenceNear for every kind at radii from 0.5 to 80 km, distances
// included.
func TestNearMatchesFullRectangleScan(t *testing.T) {
	radii := []float64{80, 40, 20, 10, 3, 0.5} // widest first, so narrower scans find their cells stored
	p := NewPlaces(1)
	compared := 0
	for _, pt := range referencePoints() {
		for _, kind := range p.Kinds() {
			// A fresh Places whenever its stores pass 10k blocks (160k
			// cells) bounds the test's memory: one 80 km rectangle near
			// a pole holds over 500k cells across the 33 kinds.
			if p.storedBlocks() > 10_000 {
				p = NewPlaces(1)
			}
			for _, r := range radii {
				got, want := p.Near(pt, kind, r), referenceNear(p, pt, kind, r)
				if len(got) != len(want) {
					t.Fatalf("%v %s r=%v: Near returned %d businesses, full scan %d", pt, kind, r, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%v %s r=%v rank %d: Near %s at %v km, full scan %s at %v km",
							pt, kind, r, i, got[i].ID, got[i].DistKm, want[i].ID, want[i].DistKm)
					}
				}
				compared += len(want)
			}
		}
	}
	if compared == 0 {
		t.Fatal("no businesses compared")
	}
	t.Logf("%d businesses compared", compared)
}

// storedBlocks returns the number of row blocks in p's stores.
func (p *Places) storedBlocks() int {
	n := 0
	for k := range p.stores {
		st := &p.stores[k]
		st.mu.RLock()
		n += len(st.blocks)
		st.mu.RUnlock()
	}
	return n
}

// TestPlacesNearConcurrent runs the study's local mix — every kind at
// every study location — on one fresh Places from 8 goroutines at once.
// Their results must equal a sequential instance's. Run it with -race.
func TestPlacesNearConcurrent(t *testing.T) {
	type call struct {
		pt   geo.Point
		kind string
	}
	seq := NewPlaces(1)
	var calls []call
	var want [][]Nearby
	for _, loc := range geo.StudyLocations() {
		for _, kind := range seq.Kinds() {
			calls = append(calls, call{loc.Point, kind})
			want = append(want, seq.Near(loc.Point, kind, 10))
		}
	}
	shared := NewPlaces(1)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, c := range calls {
				if got := shared.Near(c.pt, c.kind, 10); !slices.Equal(got, want[i]) {
					errs[g] = fmt.Errorf("goroutine %d: Near(%v, %s) differs from the sequential instance", g, c.pt, c.kind)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// FuzzPlacesNear checks Near at any coordinate, for a radius in (0, 25] km
// and any kind: it never panics, it returns nil for a point that fails
// geo.Point.Valid, and otherwise it returns exactly referenceNear, both
// when it generates the cells and when they are already stored.
func FuzzPlacesNear(f *testing.F) {
	for n, loc := range geo.StudyLocations() {
		f.Add(loc.Point.Lat, loc.Point.Lon, 10.0, uint8(n))
	}
	for n, pt := range []geo.Point{{Lat: 90}, {Lat: -90}, {Lon: 180}, {Lon: -180}, {Lat: 90, Lon: 180}, {Lat: -90, Lon: -180}} {
		f.Add(pt.Lat, pt.Lon, 25.0, uint8(n))
	}
	kinds := NewPlaces(1).Kinds()
	f.Fuzz(func(t *testing.T, lat, lon, radiusKm float64, kind uint8) {
		r := math.Mod(math.Abs(radiusKm), 25)
		if !(r > 0) { // 0, or NaN from an infinite or NaN radiusKm
			r = 25
		}
		pt, k := geo.Point{Lat: lat, Lon: lon}, kinds[int(kind)%len(kinds)]
		p := NewPlaces(1)
		if !pt.Valid() {
			if got := p.Near(pt, k, r); got != nil {
				t.Fatalf("invalid point %v: Near returned %d businesses", pt, len(got))
			}
			return
		}
		want := referenceNear(p, pt, k, r)
		for _, pass := range []string{"cold", "warm"} {
			if got := p.Near(pt, k, r); !slices.Equal(got, want) {
				t.Fatalf("%s Near(%v, %s, %v km): %d businesses, full scan %d", pass, pt, k, r, len(got), len(want))
			}
		}
	})
}
