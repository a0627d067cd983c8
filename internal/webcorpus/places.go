package webcorpus

import (
	"bytes"
	"cmp"
	"math"
	"slices"
	"sort"
	"strconv"
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
// Cells are generated lazily, on the first Near that visits them, into one
// store per kind (see placeStore). A store keeps each business as a
// pointer-free record and the cells of one grid row in blocks of blockCols,
// so a warm Near takes one read lock and one index lookup per block its
// rows touch, and the garbage collector never scans the store. Near visits
// only the cells of its scan rectangle whose great-circle lower bound (see
// cellBound) is within the radius, so a query generates and probes about
// half the rectangle.
type Places struct {
	seed       uint64
	kinds      map[string]int // kind key -> index into kindList and stores
	kindList   []PlaceKind
	stores     []placeStore // one per kind, indexed like kindList
	cellLatDeg float64
	cellLonDeg float64
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
	p.stores = make([]placeStore, len(p.kindList))
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

// cell identifies one grid cell. A valid point's cell has |i| ≤ 3000 and
// |j| ≤ 4737; Near's rectangle pads that by its radius in cells.
type cell struct{ i, j int32 }

// cellOf returns the cell containing pt, a valid point.
func (p *Places) cellOf(pt geo.Point) cell {
	return cell{
		i: int32(math.Floor(pt.Lat / p.cellLatDeg)),
		j: int32(math.Floor(pt.Lon / p.cellLonDeg)),
	}
}

// The spans of blockCols adjacent cells of one grid row, the columns j with
// one value of j>>blockShift, form a block.
const (
	blockShift = 4
	blockCols  = 1 << blockShift
)

// placeStore holds the generated cells of one place kind: a crawl queries
// the same vantage points tens of thousands of times, and generation is
// deterministic, so a cell is generated once and kept. Each business is
// a placeRec in recs, and each generated cell is a span of recs. The spans
// of one row block sit in a block, and index maps the block's (row,
// column>>blockShift) to its position in blocks. None of index, blocks and
// recs holds a pointer, so the garbage collector never scans them.
//
// mu guards every field. A store only appends, and a stored record or
// generated span never changes, so the records and name tables a reader
// copies out under mu stay valid after it unlocks.
type placeStore struct {
	mu     sync.RWMutex
	index  map[blockKey]int32
	blocks []block
	recs   []placeRec
	// names[r.name] is record r's Name and, for a generic kind, urls[r.name]
	// its URL. Both are built with the kind's first generated cells.
	names, urls []string
}

// blockKey identifies the row block of row i and columns jb<<blockShift to
// jb<<blockShift + blockCols-1.
type blockKey struct{ i, jb int32 }

// block holds the spans of one row block's cells, by column j&(blockCols-1).
type block [blockCols]span

// span puts one cell's businesses at recs[off : off+n]; n < 0 marks a cell
// not generated yet.
type span struct{ off, n int32 }

// emptyBlock is a block none of whose cells is generated.
var emptyBlock = func() (b block) {
	for c := range b {
		b[c].n = -1
	}
	return b
}()

// placeRec is a generated business without its strings: Near formats its
// ID, and a brand's store URL, from the cell and ordinal, and looks up its
// Name, and a generic kind's URL, in the store's name tables.
type placeRec struct {
	pt                 geo.Point
	rating, popularity float64
	i, j, k            int32 // cell (i, j) and ordinal k: the ID is "<kind>-<i>-<j>-<k>"
	name               int32 // index into placeStore.names and urls
}

// nameTables returns the names, and for a generic kind the URLs, that a
// record's name index selects: entry hood*len(NameSuffixes)+suffix of a
// generic kind, and entry hood of a brand.
func (k *PlaceKind) nameTables() (names, urls []string) {
	if k.Brand {
		display := brandDisplay[k.Key]
		if display == "" {
			display = TitleCase(k.Key)
		}
		names = make([]string, len(neighborhoodNames))
		for h, hood := range neighborhoodNames {
			names[h] = display + " — " + hood
		}
		return names, nil
	}
	for _, hood := range neighborhoodNames {
		for _, suffix := range k.NameSuffixes {
			name := hood + " " + suffix
			names = append(names, name)
			urls = append(urls, "https://"+slug(name)+"."+k.Key+".example/")
		}
	}
	return names, urls
}

// Brand store URLs are brandURLPrefix + kind + brandURLMid + the ID's tail.
const (
	brandURLPrefix = "https://locations."
	brandURLMid    = ".example/store/"
)

// idTailMax bounds the length of an ID's tail: three int32s, two dashes.
const idTailMax = 3*len("-2147483648") + 2

// appendIDTail appends the part of r's ID after "<kind>-", "<i>-<j>-<k>".
func (r *placeRec) appendIDTail(b []byte) []byte {
	b = strconv.AppendInt(b, int64(r.i), 10)
	b = append(b, '-')
	b = strconv.AppendInt(b, int64(r.j), 10)
	b = append(b, '-')
	return strconv.AppendInt(b, int64(r.k), 10)
}

// idTailLen returns len(r.appendIDTail(nil)).
func (r *placeRec) idTailLen() int {
	return 2 + decimalLen(r.i) + decimalLen(r.j) + decimalLen(r.k)
}

// decimalLen returns the length of v in decimal.
func decimalLen(v int32) int {
	n, u := 1, int64(v)
	if u < 0 {
		n, u = 2, -u
	}
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}

// Nearby is an establishment Near found, with its distance from Near's
// query point.
type Nearby struct {
	Business
	// DistKm is geo.DistanceKm(pt, Point) for Near's query point pt.
	DistKm float64
}

// nearKey is one sort key of Near: a match's distance and the index of its
// record in the kind's store.
type nearKey struct {
	d float64
	r int32
}

// Near returns every establishment of the given kind within radiusKm of pt,
// sorted by distance from pt (ties broken by ID for determinism), each with
// that distance. It returns nil for an unknown kind, a radius that is not
// positive, or a point that fails geo.Point.Valid. Each candidate's distance
// is computed exactly once, by geo.DistanceKm, and that one value both
// decides membership (DistKm <= radiusKm) and orders the result; callers
// reuse DistKm instead of recomputing it.
//
// The candidates come from a scan rectangle of cells around pt, padded by
// one cell. Within it Near skips every cell whose great-circle lower bound
// exceeds the radius (see cellBound), which never drops a business the
// full rectangle would return. The rectangle does not wrap the
// antimeridian, and its column count treats a cell as at least 0.5 km wide
// (so it is clamped above ~83° latitude).
//
// Near scans the kind's store under one read lock. Cells not generated yet
// are generated outside the lock and stored under the write lock, where
// the first stored copy of a cell wins; then Near scans again.
func (p *Places) Near(pt geo.Point, kindKey string, radiusKm float64) []Nearby {
	ki, ok := p.kinds[kindKey]
	if !ok || radiusKm <= 0 || !pt.Valid() {
		return nil
	}
	kind, st := &p.kindList[ki], &p.stores[ki]
	s := p.scan(st, pt, radiusKm)
	if len(s.missing) > 0 {
		var gen []placeRec
		for _, c := range s.missing {
			gen = p.appendCell(gen, c, kind)
		}
		st.insert(kind, s.missing, gen)
		// A store never drops a cell, so this scan finds every one.
		s = p.scan(st, pt, radiusKm)
	}
	if len(s.keys) == 0 {
		return nil
	}
	return s.materialize(kind)
}

// nearScan is what one scan of a store found: the sort keys of the
// businesses within the radius, the store's records and name tables they
// index, and the cells not generated yet.
type nearScan struct {
	keys        []nearKey
	recs        []placeRec
	names, urls []string
	missing     []cell
}

// scan visits Near's candidate cells in st under one read lock.
func (p *Places) scan(st *placeStore, pt geo.Point, radiusKm float64) nearScan {
	center := p.cellOf(pt)
	ci, cj := int(center.i), int(center.j)
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

	st.mu.RLock()
	defer st.mu.RUnlock()
	s := nearScan{recs: st.recs, names: st.names, urls: st.urls}
	for i := ci - di; i <= ci+di; i++ {
		j0, j1 := bound.cols(float64(i)*p.cellLatDeg, float64(i+1)*p.cellLatDeg, cj-dj, cj+dj)
		if j0 > j1 {
			continue
		}
		for jb := j0 >> blockShift; jb <= j1>>blockShift; jb++ {
			blk := &emptyBlock
			if b, ok := st.index[blockKey{int32(i), int32(jb)}]; ok {
				blk = &st.blocks[b]
			}
			for j := max(j0, jb<<blockShift); j <= min(j1, jb<<blockShift+blockCols-1); j++ {
				sp := blk[j&(blockCols-1)]
				if sp.n < 0 {
					s.missing = append(s.missing, cell{int32(i), int32(j)})
					continue
				}
				for r := sp.off; r < sp.off+sp.n; r++ {
					if d := geo.DistanceKm(pt, s.recs[r].pt); d <= radiusKm {
						s.keys = append(s.keys, nearKey{d: d, r: r})
					}
				}
			}
		}
	}
	return s
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
// valid query point (Near admits no other), rows inside [-90°, 90°], a
// rectangle narrower than 360° of longitude, and a padded radius under a
// quarter of the Earth's circumference. Elsewhere cols returns the whole
// rectangle row.
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
		prune:   float64(dj+1)*cellLonDeg <= 180 && ang < math.Pi/2,
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

// materialize sorts the keys by (distance, ID) and returns their
// businesses. It formats every ID, and every brand store URL, into one
// string, so it allocates the same number of times for any result count.
func (s *nearScan) materialize(kind *PlaceKind) []Nearby {
	recs := s.recs
	slices.SortFunc(s.keys, func(a, b nearKey) int {
		if c := cmp.Compare(a.d, b.d); c != 0 {
			return c
		}
		// Every ID starts "<kind>-", so the tails order them.
		var x, y [idTailMax]byte
		return bytes.Compare(recs[a.r].appendIDTail(x[:0]), recs[b.r].appendIDTail(y[:0]))
	})
	urlLen := len(brandURLPrefix) + len(kind.Key) + len(brandURLMid)
	size := 0
	for _, k := range s.keys {
		tl := recs[k.r].idTailLen()
		size += len(kind.Key) + 1 + tl
		if kind.Brand {
			size += urlLen + tl
		}
	}
	var sb strings.Builder
	sb.Grow(size)
	var tail [idTailMax]byte
	for _, k := range s.keys {
		t := recs[k.r].appendIDTail(tail[:0])
		sb.WriteString(kind.Key)
		sb.WriteByte('-')
		sb.Write(t)
		if kind.Brand {
			sb.WriteString(brandURLPrefix)
			sb.WriteString(kind.Key)
			sb.WriteString(brandURLMid)
			sb.Write(t)
		}
	}
	buf := sb.String()
	out := make([]Nearby, len(s.keys))
	for n, k := range s.keys {
		r := &recs[k.r]
		tl := r.idTailLen()
		b := Business{
			ID:         buf[:len(kind.Key)+1+tl],
			Name:       s.names[r.name],
			Kind:       kind.Key,
			Point:      r.pt,
			Rating:     r.rating,
			Popularity: r.popularity,
		}
		buf = buf[len(b.ID):]
		if kind.Brand {
			b.URL, buf = buf[:urlLen+tl], buf[urlLen+tl:]
		} else {
			b.URL = s.urls[r.name]
		}
		out[n] = Nearby{Business: b, DistKm: k.d}
	}
	return out
}

// insert stores the records gen of the given cells, which hold each cell's
// businesses in cell order. A cell another Near stored first keeps that
// copy: generation is deterministic, so the two are equal.
func (st *placeStore) insert(kind *PlaceKind, cells []cell, gen []placeRec) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.index == nil {
		st.index = make(map[blockKey]int32)
		st.names, st.urls = kind.nameTables()
	}
	for _, c := range cells {
		n := 0
		for n < len(gen) && gen[n].i == c.i && gen[n].j == c.j {
			n++
		}
		rs := gen[:n]
		gen = gen[n:]
		key := blockKey{c.i, c.j >> blockShift}
		b, ok := st.index[key]
		if !ok {
			b = int32(len(st.blocks))
			st.blocks = append(st.blocks, emptyBlock)
			st.index[key] = b
		}
		if sp := &st.blocks[b][c.j&(blockCols-1)]; sp.n < 0 {
			*sp = span{off: int32(len(st.recs)), n: int32(n)}
			st.recs = append(st.recs, rs...)
		}
	}
}

// cellRNG opens the stream that generates one kind's businesses in cell c.
// Its key ends in "<i>:<j>". It returns the generator by value, as the news
// wire's regionalRNG does: it is too large to inline, and a returned
// pointer would put one generator per generated cell on the heap.
func (p *Places) cellRNG(c cell, kindKey string) detrand.RNG {
	var key [2*len("-2147483648") + 1]byte
	b := strconv.AppendInt(key[:0], int64(c.i), 10)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(c.j), 10)
	return *detrand.NewKeyed(p.seed, "places", kindKey, string(b))
}

// appendCell deterministically generates the businesses of one kind in
// cell c and appends them to dst. Per cell it draws the count, then per
// business the latitude, longitude, neighbourhood, a generic kind's name
// suffix, rating and popularity.
func (p *Places) appendCell(dst []placeRec, c cell, kind *PlaceKind) []placeRec {
	rng := p.cellRNG(c, kind.Key)
	// Sample a count with mean kind.Density: floor + Bernoulli remainder.
	n := int(kind.Density)
	if rng.Bool(kind.Density - float64(n)) {
		n++
	}
	for k := 0; k < n; k++ {
		lat := (float64(c.i) + rng.Float64()) * p.cellLatDeg
		lon := (float64(c.j) + rng.Float64()) * p.cellLonDeg
		name := rng.Intn(len(neighborhoodNames))
		if !kind.Brand {
			name = name*len(kind.NameSuffixes) + rng.Intn(len(kind.NameSuffixes))
		}
		dst = append(dst, placeRec{
			pt:         geo.Point{Lat: lat, Lon: lon},
			rating:     math.Round(rng.Range(2.5, 5.0)*10) / 10,
			popularity: rng.Float64(),
			i:          c.i,
			j:          c.j,
			k:          int32(k),
			name:       int32(name),
		})
	}
	return dst
}
