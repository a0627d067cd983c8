package engine

import (
	"testing"
	"time"

	"geoserp/internal/geo"
	"geoserp/internal/queries"
	"geoserp/internal/serp"
	"geoserp/internal/simclock"
	"geoserp/internal/webcorpus"
)

// ukCorpus builds a small non-US world: UK-flavoured local terms and
// regions, exercising the "extend to other countries" path from the
// paper's future work.
func ukWorld(t *testing.T) (*Engine, geo.Point, geo.Point) {
	t.Helper()
	corpus, err := queries.NewCorpus([]queries.Query{
		{Term: "Chemist", Category: queries.Local},
		{Term: "Greggs", Category: queries.Local, Brand: true},
		{Term: "Scottish Independence", Category: queries.Controversial},
		{Term: "Prime Minister", Category: queries.Politician, Scope: queries.ScopeNationalFigure},
	})
	if err != nil {
		t.Fatal(err)
	}
	london := geo.Point{Lat: 51.5074, Lon: -0.1278}
	edinburgh := geo.Point{Lat: 55.9533, Lon: -3.1883}
	regions := []RegionInfo{
		{Region: webcorpus.Region{Slug: "england", Name: "England"}, Centroid: london},
		{Region: webcorpus.Region{Slug: "scotland", Name: "Scotland"}, Centroid: edinburgh},
	}
	kinds := []webcorpus.PlaceKind{
		{Key: "chemist", Density: 1.2},
		{Key: "greggs", Density: 0.6, Brand: true},
	}
	clk := simclock.NewManual(time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC))
	cfg := quietConfig()
	e := New(cfg, clk, WithCorpus(corpus), WithRegions(regions), WithPlaceKinds(kinds))
	return e, london, edinburgh
}

func TestNewCustomWorld(t *testing.T) {
	e, london, edinburgh := ukWorld(t)

	// Local generic term gets a maps card with local chemists.
	r, err := e.Search(Request{Query: "Chemist", GPS: &london, ClientIP: "1.2.3.4"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Page.CardCount(serp.Maps) == 0 {
		t.Fatal("custom local term got no maps card")
	}
	if n := r.Page.LinkCount(); n < 8 {
		t.Fatalf("page has only %d links", n)
	}

	// Brand term gets no maps card, like the study's brands.
	r, err = e.Search(Request{Query: "Greggs", GPS: &london, ClientIP: "1.2.3.4"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Page.CardCount(serp.Maps) != 0 {
		t.Fatal("custom brand term got a maps card")
	}

	// Regions resolve to the custom geography.
	if got := e.region(london); got != "england" {
		t.Fatalf("region(london) = %q", got)
	}
	if got := e.region(edinburgh); got != "scotland" {
		t.Fatalf("region(edinburgh) = %q", got)
	}

	// Location personalization holds in the custom world too.
	rl, err := e.Search(Request{Query: "Chemist", GPS: &london, ClientIP: "1.2.3.4"})
	if err != nil {
		t.Fatal(err)
	}
	re, err := e.Search(Request{Query: "Chemist", GPS: &edinburgh, ClientIP: "1.2.3.4"})
	if err != nil {
		t.Fatal(err)
	}
	if equalStrings(rl.Page.Links(), re.Page.Links()) {
		t.Fatal("London and Edinburgh saw identical local results")
	}
}

// TestNewCustomDefaultsMatchNew: New without options serves the same
// pages as New given the study world explicitly.
func TestNewCustomDefaultsMatchNew(t *testing.T) {
	clk1 := simclock.NewManual(time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC))
	clk2 := simclock.NewManual(time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC))
	a := New(quietConfig(), clk1)
	b := New(quietConfig(), clk2, WithCorpus(queries.StudyCorpus()),
		WithRegions(StudyRegions()), WithPlaceKinds(webcorpus.DefaultPlaceKinds()))
	pt := geo.Point{Lat: 41.4993, Lon: -81.6944}
	for _, term := range []string{"Coffee", "Gay Marriage", "Barack Obama"} {
		ra, err := a.Search(Request{Query: term, GPS: &pt, ClientIP: "1.2.3.4"})
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.Search(Request{Query: term, GPS: &pt, ClientIP: "1.2.3.4"})
		if err != nil {
			t.Fatal(err)
		}
		if !equalStrings(ra.Page.Links(), rb.Page.Links()) {
			t.Fatalf("New's defaults and the explicit study world diverge for %q", term)
		}
	}
}

func TestStudyRegions(t *testing.T) {
	rs := StudyRegions()
	if len(rs) != 22 {
		t.Fatalf("regions = %d, want 22", len(rs))
	}
	for _, r := range rs {
		if r.Region.Slug == "" || !r.Centroid.Valid() || r.Centroid == (geo.Point{}) {
			t.Fatalf("bad region info: %+v", r)
		}
	}
}

func TestNewPlacesCustomDefaultsAndRepairs(t *testing.T) {
	p := webcorpus.NewPlacesCustom(1, []webcorpus.PlaceKind{
		{Key: "", Density: 1},                      // skipped: empty key
		{Key: "ghost", Density: 0},                 // skipped: zero density
		{Key: "pub", Density: 1.0},                 // suffix auto-filled
		{Key: "nandos", Density: 0.4, Brand: true}, // brand display auto-derived
	})
	if len(p.Kinds()) != 2 {
		t.Fatalf("kinds = %v", p.Kinds())
	}
	london := geo.Point{Lat: 51.5074, Lon: -0.1278}
	pubs := p.Near(london, "pub", 10)
	if len(pubs) == 0 {
		t.Fatal("no pubs generated")
	}
	for _, b := range pubs {
		if b.Name == "" {
			t.Fatal("pub with empty name")
		}
	}
	brands := p.Near(london, "nandos", 20)
	if len(brands) == 0 {
		t.Fatal("no brand outlets generated")
	}
	if got := brands[0].Name; len(got) < len("Nandos") || got[:6] != "Nandos" {
		t.Fatalf("brand display = %q", got)
	}
}

// TestRegionTieTakesCallerOrder is the regression test for reverse
// geocoding by map order: two regions sharing one centroid are at the
// same distance from every point, and the engine answered whichever its
// region map happened to yield first. The first region in the caller's
// order must win, every call.
func TestRegionTieTakesCallerOrder(t *testing.T) {
	corpus, err := queries.NewCorpus([]queries.Query{{Term: "Chemist", Category: queries.Local}})
	if err != nil {
		t.Fatal(err)
	}
	centroid := geo.Point{Lat: 40, Lon: -80}
	east := RegionInfo{Region: webcorpus.Region{Slug: "east", Name: "East"}, Centroid: centroid}
	west := RegionInfo{Region: webcorpus.Region{Slug: "west", Name: "West"}, Centroid: centroid}
	pt := geo.Point{Lat: 41, Lon: -81}
	clk := simclock.NewManual(time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC))
	for _, order := range [][]RegionInfo{{east, west}, {west, east}} {
		e := New(quietConfig(), clk, WithCorpus(corpus), WithRegions(order))
		want := order[0].Region.Slug
		for i := 0; i < 200; i++ {
			if got := e.region(pt); got != want {
				t.Fatalf("call %d: region = %q, want %q, the first of the tied regions", i, got, want)
			}
		}
	}
}
