package webcorpus

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"geoserp/internal/detrand"
	"geoserp/internal/geo"
)

// Business is an establishment in the Places vertical.
type Business struct {
	// ID is globally unique and stable across replicas.
	ID string
	// Name is the establishment's display name.
	Name string
	// Kind is the place-kind key (a local query's ID, e.g. "coffee",
	// "starbucks", "high-school").
	Kind string
	// Point is the establishment's coordinate.
	Point geo.Point
	// Rating is a review score in [2.5, 5.0].
	Rating float64
	// Popularity is a query-independent prominence prior in [0, 1];
	// prominent places rank well even when slightly farther away, the
	// way real map search prefers a well-known airport over a close
	// airstrip.
	Popularity float64
	// URL is the establishment's web page.
	URL string
}

// PlaceKind describes how densely a kind of establishment occurs and how it
// is named.
type PlaceKind struct {
	// Key is the kind identifier (matches local query IDs).
	Key string
	// Density is the expected number of establishments per grid cell
	// (one cell is roughly 2 × 2.5 miles).
	Density float64
	// Brand marks chain brands: all establishments share the brand name
	// and a store-locator-style URL. The paper finds brands do not yield
	// Maps cards and show little noise.
	Brand bool
	// NameSuffixes are generic-name templates ("X High School").
	NameSuffixes []string
}

// placeKinds enumerates the place kinds for all 33 local study terms.
// Densities are tuned so that sparse civic kinds (airport, hospital,
// college) have few nearby candidates — making their rankings the most
// sensitive to the query coordinate, as Figures 3 and 6 show.
var placeKinds = []PlaceKind{
	// Brand chains.
	{Key: "chipotle", Density: 0.22, Brand: true},
	{Key: "starbucks", Density: 0.85, Brand: true},
	{Key: "dairy-queen", Density: 0.25, Brand: true},
	{Key: "mcdonalds", Density: 0.70, Brand: true},
	{Key: "subway", Density: 0.80, Brand: true},
	{Key: "burger-king", Density: 0.45, Brand: true},
	{Key: "kfc", Density: 0.35, Brand: true},
	{Key: "wendy-s", Density: 0.45, Brand: true},
	{Key: "chick-fil-a", Density: 0.20, Brand: true},
	// Dense generic establishments.
	{Key: "restaurant", Density: 2.6, NameSuffixes: []string{"Family Restaurant", "Grill", "Diner", "Bistro", "Kitchen"}},
	{Key: "fast-food", Density: 1.9, NameSuffixes: []string{"Express Burgers", "Quick Eats", "Drive-Thru", "Snack Shack"}},
	{Key: "coffee", Density: 1.5, NameSuffixes: []string{"Coffee House", "Espresso Bar", "Roasters", "Cafe"}},
	{Key: "bank", Density: 1.4, NameSuffixes: []string{"Savings Bank", "Credit Union", "National Bank", "Trust"}},
	{Key: "burger", Density: 1.1, NameSuffixes: []string{"Burger Joint", "Burgers", "Burger Bar"}},
	{Key: "sushi", Density: 0.55, NameSuffixes: []string{"Sushi Bar", "Sushi House", "Japanese Restaurant"}},
	{Key: "park", Density: 1.8, NameSuffixes: []string{"Park", "Memorial Park", "Community Park", "Playground"}},
	{Key: "school", Density: 1.7, NameSuffixes: []string{"School", "Community School", "Academy"}},
	{Key: "elementary-school", Density: 1.0, NameSuffixes: []string{"Elementary School"}},
	{Key: "middle-school", Density: 0.6, NameSuffixes: []string{"Middle School"}},
	{Key: "high-school", Density: 0.6, NameSuffixes: []string{"High School"}},
	{Key: "bus", Density: 1.9, NameSuffixes: []string{"Bus Terminal", "Transit Center", "Bus Stop"}},
	// Medium-density civic establishments.
	{Key: "post-office", Density: 0.50, NameSuffixes: []string{"Post Office"}},
	{Key: "polling-place", Density: 0.85, NameSuffixes: []string{"Polling Station", "Community Center", "Precinct Hall"}},
	{Key: "police-station", Density: 0.40, NameSuffixes: []string{"Police Department", "Police Station"}},
	{Key: "fire-station", Density: 0.55, NameSuffixes: []string{"Fire Station", "Fire Department"}},
	{Key: "station", Density: 0.65, NameSuffixes: []string{"Station", "Transit Station", "Central Station"}},
	{Key: "train", Density: 0.35, NameSuffixes: []string{"Train Station", "Rail Depot"}},
	{Key: "rail", Density: 0.30, NameSuffixes: []string{"Rail Station", "Light Rail Stop"}},
	{Key: "football", Density: 0.50, NameSuffixes: []string{"Football Field", "Stadium", "Athletic Complex"}},
	// Sparse institutions: few candidates near any point, so ranking is
	// highly coordinate-sensitive.
	{Key: "hospital", Density: 0.22, NameSuffixes: []string{"General Hospital", "Medical Center", "Regional Hospital"}},
	{Key: "college", Density: 0.18, NameSuffixes: []string{"College", "Community College"}},
	{Key: "university", Density: 0.14, NameSuffixes: []string{"University", "State University"}},
	{Key: "airport", Density: 0.05, NameSuffixes: []string{"Regional Airport", "Municipal Airport", "International Airport"}},
}

// brandDisplay maps brand kind keys to display names.
var brandDisplay = map[string]string{
	"chipotle":    "Chipotle Mexican Grill",
	"starbucks":   "Starbucks",
	"dairy-queen": "Dairy Queen",
	"mcdonalds":   "McDonald's",
	"subway":      "Subway",
	"burger-king": "Burger King",
	"kfc":         "KFC",
	"wendy-s":     "Wendy's",
	"chick-fil-a": "Chick-fil-A",
}

// neighborhoodNames seed generic establishment names.
var neighborhoodNames = []string{
	"Riverside", "Oakwood", "Lakeview", "Maplewood", "Hillcrest",
	"Brookside", "Fairview", "Parkdale", "Westgate", "Eastmoor",
	"Northfield", "Southpoint", "Cedar Hills", "Willow Creek", "Birchwood",
	"Stonebridge", "Meadowbrook", "Highland", "Glenville", "Summit Ridge",
}

// Places is the geo-generative business directory. Establishments are
// generated per grid cell, deterministically from the root seed, so any two
// queries — from any replica — agree exactly on which businesses exist.
//
// The grid uses cells of cellLatDeg × cellLonDeg degrees (~2 × ~2.5 miles at
// Ohio latitudes). Nearby coordinates therefore share almost all of their
// candidate businesses, coordinates ~100 miles apart share none — the
// geometric root of the paper's "personalization grows with distance".
//
// Cells are generated lazily, on the first Near that visits them, and
// memoized per (kind, cell). Near visits only the cells of its scan
// rectangle whose great-circle lower bound (see cellBound) is within the
// radius, so a query generates and probes about half the rectangle.
type Places struct {
	seed       uint64
	kinds      map[string]int // kind key -> index into kindList
	kindList   []PlaceKind
	cellLatDeg float64
	cellLonDeg float64

	// cache memoizes generated cells: a crawl queries the same vantage
	// points tens of thousands of times, and generation is deterministic,
	// so the cache is a pure win. Guarded by mu.
	mu    sync.RWMutex
	cache map[cellKey][]Business
}

// cellKey identifies one kind's establishments in one grid cell.
type cellKey struct {
	kind int // index into Places.kindList
	c    cell
}

// NewPlaces creates the Places vertical with the given root seed and the
// study's 33 place kinds.
func NewPlaces(seed uint64) *Places {
	return NewPlacesCustom(seed, placeKinds)
}

// NewPlacesCustom creates a Places vertical with caller-supplied kinds —
// the extension point for studies of other countries or term sets. Kinds
// with empty keys or non-positive densities are skipped; a non-brand kind
// without name suffixes gets a generic one. A repeated key replaces the
// earlier kind.
func NewPlacesCustom(seed uint64, kinds []PlaceKind) *Places {
	p := &Places{
		seed:       seed,
		kinds:      make(map[string]int, len(kinds)),
		cellLatDeg: 0.030,
		cellLonDeg: 0.038,
		cache:      make(map[cellKey][]Business),
	}
	for _, k := range kinds {
		if k.Key == "" || k.Density <= 0 {
			continue
		}
		if !k.Brand && len(k.NameSuffixes) == 0 {
			k.NameSuffixes = []string{TitleCase(k.Key)}
		}
		if ix, ok := p.kinds[k.Key]; ok {
			p.kindList[ix] = k
			continue
		}
		p.kinds[k.Key] = len(p.kindList)
		p.kindList = append(p.kindList, k)
	}
	return p
}

// DefaultPlaceKinds returns a copy of the study's 33 place kinds, usable
// as a starting point for custom corpora.
func DefaultPlaceKinds() []PlaceKind {
	out := make([]PlaceKind, len(placeKinds))
	copy(out, placeKinds)
	return out
}

// Kind returns the PlaceKind for key, if it exists.
func (p *Places) Kind(key string) (PlaceKind, bool) {
	ix, ok := p.kinds[key]
	if !ok {
		return PlaceKind{}, false
	}
	return p.kindList[ix], true
}

// Kinds returns all kind keys, sorted.
func (p *Places) Kinds() []string {
	out := make([]string, 0, len(p.kinds))
	for k := range p.kinds {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// cell identifies one grid cell.
type cell struct{ i, j int }

// cellOf returns the cell containing pt.
func (p *Places) cellOf(pt geo.Point) cell {
	return cell{
		i: int(math.Floor(pt.Lat / p.cellLatDeg)),
		j: int(math.Floor(pt.Lon / p.cellLonDeg)),
	}
}

// Nearby is an establishment Near found, with its distance from Near's
// query point.
type Nearby struct {
	Business
	// DistKm is geo.DistanceKm(pt, Point) for Near's query point pt.
	DistKm float64
}

// nearKey is one sort key of Near: a match's distance and a pointer to
// the memoized (never mutated) Business.
type nearKey struct {
	d float64
	b *Business
}

// Near returns every establishment of the given kind within radiusKm of pt,
// sorted by distance from pt (ties broken by ID for determinism), each with
// that distance. Each candidate's distance is computed exactly once, by
// geo.DistanceKm, and that one value both decides membership (DistKm <=
// radiusKm) and orders the result; callers reuse DistKm instead of
// recomputing it.
//
// The candidates come from a scan rectangle of cells around pt, padded by
// one cell. Within it Near skips every cell whose great-circle lower bound
// exceeds the radius (see cellBound), which never drops a business the
// full rectangle would return. The rectangle does not wrap the
// antimeridian, and its column count treats a cell as at least 0.5 km wide
// (so it is clamped above ~83° latitude).
func (p *Places) Near(pt geo.Point, kindKey string, radiusKm float64) []Nearby {
	ki, ok := p.kinds[kindKey]
	if !ok || radiusKm <= 0 {
		return nil
	}
	kind := p.kindList[ki]
	center := p.cellOf(pt)
	// Conservative cell radius: one cell is ~3.3 km tall and ~3.2 km wide
	// at 41°N; pad by one cell to avoid boundary misses.
	latKmPerCell := p.cellLatDeg * 111.32
	lonKmPerCell := p.cellLonDeg * 111.32 * math.Cos(pt.Lat*math.Pi/180)
	if lonKmPerCell < 0.5 {
		lonKmPerCell = 0.5
	}
	di := int(math.Ceil(radiusKm/latKmPerCell)) + 1
	dj := int(math.Ceil(radiusKm/lonKmPerCell)) + 1

	bound := newCellBound(pt, radiusKm, p.cellLonDeg, dj)
	var keys []nearKey
	for i := center.i - di; i <= center.i+di; i++ {
		j0, j1 := bound.cols(float64(i)*p.cellLatDeg, float64(i+1)*p.cellLatDeg, center.j-dj, center.j+dj)
		for j := j0; j <= j1; j++ {
			bs := p.cellBusinessesCached(cellKey{kind: ki, c: cell{i, j}}, kind)
			for k := range bs {
				if d := geo.DistanceKm(pt, bs[k].Point); d <= radiusKm {
					keys = append(keys, nearKey{d: d, b: &bs[k]})
				}
			}
		}
	}
	if len(keys) == 0 {
		return nil
	}
	slices.SortFunc(keys, func(a, b nearKey) int {
		if c := cmp.Compare(a.d, b.d); c != 0 {
			return c
		}
		return strings.Compare(a.b.ID, b.b.ID)
	})
	out := make([]Nearby, len(keys))
	for n, k := range keys {
		out[n] = Nearby{Business: *k.b, DistKm: k.d}
	}
	return out
}

// nearSlackKm pads the radius in cellBound so that float rounding in the
// bound (angles, sin, asin: errors near 1e-12 km at the radii and
// latitudes Near serves) can never skip a cell holding a business whose
// computed distance is within the radius.
const nearSlackKm = 1e-6

// cellBound is Near's exact great-circle lower bound on the distance from
// the query point to any point of a grid cell. For points 1 (the query)
// and 2 the haversine formula gives
//
//	hav(d/R) = hav(Δφ) + cos φ₁·cos φ₂·hav(Δλ)
//
// and for every point of a cell inside the band φ₂ ∈ [lat0, lat1] each
// term is at least its value at the cell's nearest latitude (Δφ), its
// nearest longitude (Δλ) and the band edge farthest from the equator
// (cos φ₂). A cell whose bound exceeds hav((r+nearSlackKm)/R) holds no
// business within r. The bound is used only where hav is increasing over
// every Δφ and Δλ in the rectangle and every cosine is non-negative: a
// valid query point, rows inside [-90°, 90°], a rectangle narrower than
// 360° of longitude, and a padded radius under a quarter of the Earth's
// circumference. Elsewhere cols returns the whole rectangle row.
type cellBound struct {
	lat, lon float64 // query point, degrees
	cosLat   float64
	hLim     float64 // hav of the padded radius, as an angle
	cellLon  float64 // cell width, degrees
	prune    bool
}

func newCellBound(pt geo.Point, radiusKm, cellLonDeg float64, dj int) cellBound {
	ang := (radiusKm + nearSlackKm) / geo.EarthRadiusKm
	return cellBound{
		lat:     pt.Lat,
		lon:     pt.Lon,
		cosLat:  math.Cos(pt.Lat * math.Pi / 180),
		hLim:    hav(ang),
		cellLon: cellLonDeg,
		prune:   pt.Valid() && float64(dj+1)*cellLonDeg <= 180 && ang < math.Pi/2,
	}
}

// hav is the haversine function, sin²(x/2).
func hav(x float64) float64 {
	s := math.Sin(x / 2)
	return s * s
}

// cols returns the columns [j0, j1] of the rectangle row [jlo, jhi], whose
// cells span latitudes [lat0, lat1], that can hold a business within the
// radius; j0 > j1 when none can.
func (b cellBound) cols(lat0, lat1 float64, jlo, jhi int) (int, int) {
	if !b.prune || lat0 < -90 || lat1 > 90 {
		return jlo, jhi
	}
	var dLat float64
	switch {
	case b.lat < lat0:
		dLat = lat0 - b.lat
	case b.lat > lat1:
		dLat = b.lat - lat1
	}
	hLat := hav(dLat * math.Pi / 180)
	if hLat > b.hLim {
		return jlo, jlo - 1
	}
	c := b.cosLat * math.Min(math.Cos(lat0*math.Pi/180), math.Cos(lat1*math.Pi/180))
	if c <= 0 {
		return jlo, jhi
	}
	s := (b.hLim - hLat) / c
	if s >= 1 {
		return jlo, jhi
	}
	dLon := 2 * math.Asin(math.Sqrt(s)) * 180 / math.Pi
	return max(jlo, int(math.Floor((b.lon-dLon)/b.cellLon))),
		min(jhi, int(math.Floor((b.lon+dLon)/b.cellLon)))
}

// cellBusinessesCached returns the memoized establishments of one kind in
// one cell, generating them on first access. Goroutines that miss the same
// cell together may each generate it, but all of them return the slice
// stored first.
func (p *Places) cellBusinessesCached(key cellKey, kind PlaceKind) []Business {
	p.mu.RLock()
	bs, ok := p.cache[key]
	p.mu.RUnlock()
	if ok {
		return bs
	}
	bs = p.cellBusinesses(key.c, kind)
	p.mu.Lock()
	defer p.mu.Unlock()
	if stored, ok := p.cache[key]; ok {
		return stored
	}
	p.cache[key] = bs
	return bs
}

// cellBusinesses deterministically generates the establishments of one kind
// within one grid cell.
func (p *Places) cellBusinesses(c cell, kind PlaceKind) []Business {
	rng := detrand.NewKeyed(p.seed, "places", kind.Key, fmt.Sprintf("%d:%d", c.i, c.j))
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
			hood := detrand.Pick(rng, neighborhoodNames)
			name = fmt.Sprintf("%s — %s", display, hood)
			url = fmt.Sprintf("https://locations.%s.example/store/%d-%d-%d", kind.Key, c.i, c.j, k)
		} else {
			hood := detrand.Pick(rng, neighborhoodNames)
			suffix := detrand.Pick(rng, kind.NameSuffixes)
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
