package webcorpus

import (
	"math"
	"reflect"
	"testing"

	"geoserp/internal/geo"
)

var cleveland = geo.Point{Lat: 41.4993, Lon: -81.6944}

func TestPlacesDeterministicAcrossInstances(t *testing.T) {
	a := NewPlaces(1)
	b := NewPlaces(1)
	ba := a.Near(cleveland, "coffee", 8)
	bb := b.Near(cleveland, "coffee", 8)
	if len(ba) == 0 {
		t.Fatal("no coffee shops near Cleveland")
	}
	if len(ba) != len(bb) {
		t.Fatalf("replicas disagree on count: %d vs %d", len(ba), len(bb))
	}
	for i := range ba {
		if ba[i] != bb[i] {
			t.Fatalf("replicas disagree at %d: %+v vs %+v", i, ba[i], bb[i])
		}
	}
}

func TestPlacesSeedChangesWorld(t *testing.T) {
	a := NewPlaces(1).Near(cleveland, "coffee", 8)
	b := NewPlaces(2).Near(cleveland, "coffee", 8)
	if len(a) == len(b) {
		same := true
		for i := range a {
			if a[i].ID != b[i].ID || a[i].Point != b[i].Point {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical world")
		}
	}
}

func TestPlacesNearSortedByDistance(t *testing.T) {
	p := NewPlaces(1)
	bs := p.Near(cleveland, "restaurant", 10)
	if len(bs) < 5 {
		t.Fatalf("only %d restaurants within 10km, want several", len(bs))
	}
	prev := -1.0
	for _, b := range bs {
		d := geo.DistanceKm(cleveland, b.Point)
		if d < prev-1e-9 {
			t.Fatalf("results not sorted by distance: %v after %v", d, prev)
		}
		if d > 10+1e-9 {
			t.Fatalf("business %s at %.2fkm exceeds radius", b.ID, d)
		}
		prev = d
	}
}

func TestPlacesRadiusMonotone(t *testing.T) {
	p := NewPlaces(1)
	small := len(p.Near(cleveland, "bank", 4))
	large := len(p.Near(cleveland, "bank", 12))
	if small > large {
		t.Fatalf("count at 4km (%d) exceeds count at 12km (%d)", small, large)
	}
	// The small set must be a prefix-subset of the large set.
	smallSet := map[string]bool{}
	for _, b := range p.Near(cleveland, "bank", 4) {
		smallSet[b.ID] = true
	}
	largeSet := map[string]bool{}
	for _, b := range p.Near(cleveland, "bank", 12) {
		largeSet[b.ID] = true
	}
	for id := range smallSet {
		if !largeSet[id] {
			t.Fatalf("business %s in 4km set but not 12km set", id)
		}
	}
}

func TestPlacesDensityOrdering(t *testing.T) {
	p := NewPlaces(1)
	// Dense kinds must typically outnumber sparse kinds over a sizeable
	// radius. Airports are the sparsest kind in the corpus.
	restaurants := len(p.Near(cleveland, "restaurant", 15))
	airports := len(p.Near(cleveland, "airport", 15))
	if restaurants <= airports {
		t.Fatalf("restaurants (%d) should outnumber airports (%d)", restaurants, airports)
	}
	if airports == 0 {
		// Widen until we find at least one airport: sparse, not absent.
		if len(p.Near(cleveland, "airport", 60)) == 0 {
			t.Fatal("no airport within 60km — density too low")
		}
	}
}

func TestPlacesNearbyPointsShareWorld(t *testing.T) {
	p := NewPlaces(1)
	// Two points one mile apart (the paper's county granularity) must see
	// mostly the same businesses within an 8km radius.
	a := cleveland
	b := geo.Destination(cleveland, 90, geo.KmPerMile) // 1 mile east
	setA := map[string]bool{}
	for _, x := range p.Near(a, "school", 8) {
		setA[x.ID] = true
	}
	shared, total := 0, 0
	for _, x := range p.Near(b, "school", 8) {
		total++
		if setA[x.ID] {
			shared++
		}
	}
	if total == 0 {
		t.Fatal("no schools near point B")
	}
	if frac := float64(shared) / float64(total); frac < 0.7 {
		t.Fatalf("1-mile-apart points share only %.0f%% of schools", frac*100)
	}
}

func TestPlacesDistantPointsShareNothing(t *testing.T) {
	p := NewPlaces(1)
	columbus := geo.Point{Lat: 39.9612, Lon: -82.9988}
	setA := map[string]bool{}
	for _, x := range p.Near(cleveland, "school", 8) {
		setA[x.ID] = true
	}
	for _, x := range p.Near(columbus, "school", 8) {
		if setA[x.ID] {
			t.Fatalf("Cleveland and Columbus share school %s", x.ID)
		}
	}
}

func TestPlacesBrandNaming(t *testing.T) {
	p := NewPlaces(1)
	bs := p.Near(cleveland, "starbucks", 15)
	if len(bs) == 0 {
		t.Fatal("no Starbucks within 15km of Cleveland")
	}
	for _, b := range bs {
		if got := b.Kind; got != "starbucks" {
			t.Fatalf("kind = %q", got)
		}
		if want := "Starbucks"; len(b.Name) < len(want) || b.Name[:len(want)] != want {
			t.Fatalf("brand name = %q, want %q prefix", b.Name, want)
		}
		if b.Rating < 2.5 || b.Rating > 5.0 {
			t.Fatalf("rating = %v", b.Rating)
		}
		if b.Popularity < 0 || b.Popularity >= 1 {
			t.Fatalf("popularity = %v", b.Popularity)
		}
	}
}

func TestPlacesUnknownKindAndBadRadius(t *testing.T) {
	p := NewPlaces(1)
	if got := p.Near(cleveland, "spaceport", 10); got != nil {
		t.Fatalf("unknown kind returned %d businesses", len(got))
	}
	if got := p.Near(cleveland, "coffee", 0); got != nil {
		t.Fatalf("zero radius returned %d businesses", len(got))
	}
	if got := p.Near(cleveland, "coffee", -5); got != nil {
		t.Fatalf("negative radius returned %d businesses", len(got))
	}
	for _, pt := range []geo.Point{
		{Lat: math.NaN(), Lon: cleveland.Lon},
		{Lat: cleveland.Lat, Lon: math.NaN()},
		{Lat: math.Inf(1), Lon: cleveland.Lon},
		{Lat: cleveland.Lat, Lon: math.Inf(-1)},
		{Lat: 91},
		{Lat: -95},
		{Lon: 181},
	} {
		if got := p.Near(pt, "coffee", 10); got != nil {
			t.Fatalf("invalid point %v returned %d businesses", pt, len(got))
		}
	}
}

// TestPlaceStoreHoldsNoPointers walks the types of a store's index, blocks
// and records: none may hold a pointer, or every garbage collection would
// scan the whole store.
func TestPlaceStoreHoldsNoPointers(t *testing.T) {
	if !holdsPointer(reflect.TypeFor[Business]()) {
		t.Fatal("holdsPointer misses the strings of Business")
	}
	store := reflect.TypeFor[placeStore]()
	for _, name := range []string{"index", "blocks", "recs"} {
		f, ok := store.FieldByName(name)
		if !ok {
			t.Fatalf("placeStore has no field %s", name)
		}
		types := []reflect.Type{f.Type.Elem()}
		if f.Type.Kind() == reflect.Map {
			types = append(types, f.Type.Key())
		}
		for _, typ := range types {
			if holdsPointer(typ) {
				t.Errorf("placeStore.%s: %v holds a pointer", name, typ)
			}
		}
	}
}

// holdsPointer reports whether a value of type t holds a pointer the
// garbage collector must follow.
func holdsPointer(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return holdsPointer(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if holdsPointer(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	default: // pointers, slices, maps, strings, interfaces, channels, funcs
		return true
	}
}

func TestPlacesKindsCoverAllLocalTerms(t *testing.T) {
	p := NewPlaces(1)
	kinds := p.Kinds()
	if len(kinds) != 33 {
		t.Fatalf("places has %d kinds, want 33 (one per local term)", len(kinds))
	}
	if _, ok := p.Kind("airport"); !ok {
		t.Fatal("missing kind airport")
	}
	if _, ok := p.Kind("nope"); ok {
		t.Fatal("Kind returned ok for unknown key")
	}
	brand, _ := p.Kind("kfc")
	if !brand.Brand {
		t.Fatal("kfc not marked as brand")
	}
	generic, _ := p.Kind("hospital")
	if generic.Brand {
		t.Fatal("hospital marked as brand")
	}
}

func TestPlacesUniqueIDs(t *testing.T) {
	p := NewPlaces(1)
	seen := map[string]bool{}
	for _, kind := range []string{"coffee", "bank", "school"} {
		for _, b := range p.Near(cleveland, kind, 12) {
			if seen[b.ID] {
				t.Fatalf("duplicate business ID %s", b.ID)
			}
			seen[b.ID] = true
		}
	}
}

var nearSink []Nearby

// BenchmarkPlacesNear measures one warm Near at the engine's initial
// 10 km radius, cycling through the study's local mix: the 33 place kinds
// at each of the 59 study locations.
func BenchmarkPlacesNear(b *testing.B) {
	p := NewPlaces(1)
	kinds := p.Kinds()
	locs := geo.StudyLocations()
	for _, loc := range locs {
		for _, kind := range kinds {
			p.Near(loc.Point, kind, 10)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := i % (len(kinds) * len(locs))
		nearSink = p.Near(locs[n/len(kinds)].Point, kinds[n%len(kinds)], 10)
	}
}

// BenchmarkPlacesNearCold measures one Near on a fresh Places, cycling
// through the study's local mix at 10 km: the cell generation and storing
// that the first request for a kind at a location pays for.
func BenchmarkPlacesNearCold(b *testing.B) {
	kinds := NewPlaces(1).Kinds()
	locs := geo.StudyLocations()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := i % (len(kinds) * len(locs))
		nearSink = NewPlaces(1).Near(locs[n/len(kinds)].Point, kinds[n%len(kinds)], 10)
	}
}
