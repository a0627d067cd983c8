package analysis

import (
	"math"
	"testing"
	"time"

	"geoserp/internal/serp"
	"geoserp/internal/storage"
)

// page builds a tiny organic-only page from link names.
func page(links ...string) *serp.Page {
	p := &serp.Page{Query: "q", Location: "0.000000,0.000000"}
	for _, l := range links {
		p.Cards = append(p.Cards, serp.Card{
			Type:    serp.Organic,
			Results: []serp.Result{{URL: l, Title: l}},
		})
	}
	return p
}

// mapsPage builds a page with one maps card followed by organic links.
func mapsPage(mapsLinks []string, organic ...string) *serp.Page {
	p := &serp.Page{Query: "q", Location: "0.000000,0.000000"}
	card := serp.Card{Type: serp.Maps}
	for _, l := range mapsLinks {
		card.Results = append(card.Results, serp.Result{URL: l, Title: l})
	}
	p.Cards = append(p.Cards, card)
	for _, l := range organic {
		p.Cards = append(p.Cards, serp.Card{
			Type:    serp.Organic,
			Results: []serp.Result{{URL: l, Title: l}},
		})
	}
	return p
}

func obs(term, cat, g, loc string, role storage.Role, day int, p *serp.Page) storage.Observation {
	cp := *p
	cp.Query = term
	return storage.Observation{
		Term:        term,
		Category:    cat,
		Granularity: g,
		LocationID:  loc,
		Role:        role,
		Day:         day,
		MachineIP:   "10.0.0.1",
		FetchedAt:   time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(day) * 24 * time.Hour),
		Page:        &cp,
	}
}

func approx(t *testing.T, got, want, eps float64, name string) {
	t.Helper()
	if math.Abs(got-want) > eps {
		t.Fatalf("%s = %v, want %v", name, got, want)
	}
}

func TestNewDatasetIndexing(t *testing.T) {
	data := []storage.Observation{
		obs("Coffee", "local", "county", "d/1", storage.Treatment, 0, page("a", "b")),
		obs("Coffee", "local", "county", "d/1", storage.Control, 0, page("a", "b")),
		obs("Coffee", "local", "county", "d/2", storage.Treatment, 0, page("a", "c")),
		obs("Health", "controversial", "county", "d/1", storage.Treatment, 0, page("x")),
	}
	d, err := NewDataset(data)
	if err != nil {
		t.Fatal(err)
	}
	if d.Pairs() != 3 {
		t.Fatalf("pairs = %d, want 3", d.Pairs())
	}
	if got := d.Terms("local"); len(got) != 1 || got[0] != "Coffee" {
		t.Fatalf("local terms = %v", got)
	}
	if got := d.Locations("county"); len(got) != 2 {
		t.Fatalf("county locations = %v", got)
	}
	if got := d.Categories(); len(got) != 2 {
		t.Fatalf("categories = %v", got)
	}
	if got := d.Days(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("days = %v", got)
	}
}

func TestNewDatasetRejectsDuplicates(t *testing.T) {
	data := []storage.Observation{
		obs("Coffee", "local", "county", "d/1", storage.Treatment, 0, page("a")),
		obs("Coffee", "local", "county", "d/1", storage.Treatment, 0, page("b")),
	}
	if _, err := NewDataset(data); err == nil {
		t.Fatal("duplicate treatment accepted")
	}
	data = []storage.Observation{
		obs("Coffee", "local", "county", "d/1", storage.Control, 0, page("a")),
		obs("Coffee", "local", "county", "d/1", storage.Control, 0, page("b")),
	}
	if _, err := NewDataset(data); err == nil {
		t.Fatal("duplicate control accepted")
	}
}

func TestNewDatasetSkipsFailedObservations(t *testing.T) {
	failed := obs("Coffee", "local", "county", "d/2", storage.Control, 0, page("a"))
	failed.Page = nil
	failed.Failed = true
	failed.Err = "browser: fetch: connection reset"
	data := []storage.Observation{
		obs("Coffee", "local", "county", "d/1", storage.Treatment, 0, page("a", "b")),
		obs("Coffee", "local", "county", "d/1", storage.Control, 0, page("a", "b")),
		failed,
	}
	d, err := NewDataset(data)
	if err != nil {
		t.Fatal(err)
	}
	if d.Pairs() != 1 {
		t.Fatalf("pairs = %d, want 1 (failed slot must not be indexed)", d.Pairs())
	}
	if d.Failed() != 1 {
		t.Fatalf("failed = %d, want 1", d.Failed())
	}
	if got := d.Locations("county"); len(got) != 1 || got[0] != "d/1" {
		t.Fatalf("locations = %v, want [d/1]", got)
	}
}

func TestNewDatasetRejectsInvalidObservation(t *testing.T) {
	bad := obs("Coffee", "local", "county", "d/1", storage.Treatment, 0, page("a"))
	bad.Page = nil
	if _, err := NewDataset([]storage.Observation{bad}); err == nil {
		t.Fatal("invalid observation accepted")
	}
}

func TestNoiseByGranularityExactValues(t *testing.T) {
	// d/1: treatment == control → jaccard 1, edit 0.
	// d/2: one substitution in 2 links → jaccard 1/3, edit 1.
	data := []storage.Observation{
		obs("Coffee", "local", "county", "d/1", storage.Treatment, 0, page("a", "b")),
		obs("Coffee", "local", "county", "d/1", storage.Control, 0, page("a", "b")),
		obs("Coffee", "local", "county", "d/2", storage.Treatment, 0, page("a", "b")),
		obs("Coffee", "local", "county", "d/2", storage.Control, 0, page("a", "c")),
	}
	d, err := NewDataset(data)
	if err != nil {
		t.Fatal(err)
	}
	cells := d.NoiseByGranularity()
	if len(cells) != 1 {
		t.Fatalf("cells = %+v", cells)
	}
	c := cells[0]
	if c.Granularity != "county" || c.Category != "local" {
		t.Fatalf("cell = %+v", c)
	}
	approx(t, c.Edit.Mean, 0.5, 1e-12, "noise edit mean")
	approx(t, c.Jaccard.Mean, (1.0+1.0/3.0)/2, 1e-12, "noise jaccard mean")
	if c.Edit.N != 2 {
		t.Fatalf("samples = %d", c.Edit.N)
	}
}

func TestPersonalizationByGranularityExactValues(t *testing.T) {
	// Three locations with pages ab, ab, cd:
	// pairs: (ab,ab)=J1,E0; (ab,cd)=J0,E2; (ab,cd)=J0,E2.
	data := []storage.Observation{
		obs("Coffee", "local", "state", "c/1", storage.Treatment, 0, page("a", "b")),
		obs("Coffee", "local", "state", "c/1", storage.Control, 0, page("a", "b")),
		obs("Coffee", "local", "state", "c/2", storage.Treatment, 0, page("a", "b")),
		obs("Coffee", "local", "state", "c/2", storage.Control, 0, page("a", "b")),
		obs("Coffee", "local", "state", "c/3", storage.Treatment, 0, page("c", "d")),
		obs("Coffee", "local", "state", "c/3", storage.Control, 0, page("c", "d")),
	}
	d, err := NewDataset(data)
	if err != nil {
		t.Fatal(err)
	}
	cells := d.PersonalizationByGranularity()
	if len(cells) != 1 {
		t.Fatalf("cells = %+v", cells)
	}
	c := cells[0]
	approx(t, c.Edit.Mean, 4.0/3.0, 1e-12, "pers edit mean")
	approx(t, c.Jaccard.Mean, 1.0/3.0, 1e-12, "pers jaccard mean")
	approx(t, c.NoiseEdit, 0, 1e-12, "noise floor edit")
	approx(t, c.NoiseJaccard, 1, 1e-12, "noise floor jaccard")
}

func TestNoisePerTermSortedByNational(t *testing.T) {
	data := []storage.Observation{
		// "Quiet" term: identical pair at national.
		obs("Quiet", "local", "national", "s/1", storage.Treatment, 0, page("a", "b")),
		obs("Quiet", "local", "national", "s/1", storage.Control, 0, page("a", "b")),
		// "Loud" term: fully different pair at national.
		obs("Loud", "local", "national", "s/1", storage.Treatment, 0, page("a", "b")),
		obs("Loud", "local", "national", "s/1", storage.Control, 0, page("c", "d")),
	}
	d, err := NewDataset(data)
	if err != nil {
		t.Fatal(err)
	}
	terms := d.NoisePerTerm("local")
	if len(terms) != 2 {
		t.Fatalf("terms = %+v", terms)
	}
	if terms[0].Term != "Quiet" || terms[1].Term != "Loud" {
		t.Fatalf("sort order wrong: %s, %s", terms[0].Term, terms[1].Term)
	}
	approx(t, terms[1].EditByGranularity["national"], 2, 1e-12, "loud national noise")
}

func TestNoiseByResultTypeAttribution(t *testing.T) {
	// Treatment and control differ only in the maps card.
	tp := mapsPage([]string{"m1", "m2"}, "a", "b")
	cp := mapsPage([]string{"m3", "m4"}, "a", "b")
	data := []storage.Observation{
		obs("School", "local", "county", "d/1", storage.Treatment, 0, tp),
		obs("School", "local", "county", "d/1", storage.Control, 0, cp),
	}
	d, err := NewDataset(data)
	if err != nil {
		t.Fatal(err)
	}
	attr := d.NoiseByResultType("local", "county")
	if len(attr) != 1 {
		t.Fatalf("attr = %+v", attr)
	}
	approx(t, attr[0].Maps, 2, 1e-12, "maps noise")
	approx(t, attr[0].News, 0, 1e-12, "news noise")
	approx(t, attr[0].All, 2, 1e-12, "all noise")
}

func TestPersonalizationByResultTypeShares(t *testing.T) {
	// Two locations differing in maps (2 changes) and organic (1 change).
	p1 := mapsPage([]string{"m1", "m2"}, "a", "b")
	p2 := mapsPage([]string{"m3", "m4"}, "a", "c")
	data := []storage.Observation{
		obs("School", "local", "state", "c/1", storage.Treatment, 0, p1),
		obs("School", "local", "state", "c/1", storage.Control, 0, p1),
		obs("School", "local", "state", "c/2", storage.Treatment, 0, p2),
		obs("School", "local", "state", "c/2", storage.Control, 0, p2),
	}
	d, err := NewDataset(data)
	if err != nil {
		t.Fatal(err)
	}
	cells := d.PersonalizationByResultType()
	if len(cells) != 1 {
		t.Fatalf("cells = %+v", cells)
	}
	c := cells[0]
	approx(t, c.Maps, 2, 1e-12, "maps component")
	approx(t, c.Other, 1, 1e-12, "other component")
	approx(t, c.News, 0, 1e-12, "news component")
	approx(t, c.MapsShare(), 2.0/3.0, 1e-12, "maps share")
	approx(t, c.NewsShare(), 0, 1e-12, "news share")
}

func TestConsistencyOverTime(t *testing.T) {
	// Baseline c/1; location c/2 identical on day 0, different on day 1.
	data := []storage.Observation{
		obs("Coffee", "local", "county", "c/1", storage.Treatment, 0, page("a", "b")),
		obs("Coffee", "local", "county", "c/1", storage.Control, 0, page("a", "b")),
		obs("Coffee", "local", "county", "c/2", storage.Treatment, 0, page("a", "b")),
		obs("Coffee", "local", "county", "c/2", storage.Control, 0, page("a", "b")),
		obs("Coffee", "local", "county", "c/1", storage.Treatment, 1, page("a", "b")),
		obs("Coffee", "local", "county", "c/1", storage.Control, 1, page("a", "x")),
		obs("Coffee", "local", "county", "c/2", storage.Treatment, 1, page("c", "d")),
		obs("Coffee", "local", "county", "c/2", storage.Control, 1, page("c", "d")),
	}
	d, err := NewDataset(data)
	if err != nil {
		t.Fatal(err)
	}
	series := d.ConsistencyOverTime("local")
	if len(series) != 1 {
		t.Fatalf("series = %+v", series)
	}
	s := series[0]
	if s.Baseline != "c/1" {
		t.Fatalf("baseline = %s", s.Baseline)
	}
	if len(s.Days) != 2 || len(s.NoiseFloor) != 2 {
		t.Fatalf("days/noise = %v %v", s.Days, s.NoiseFloor)
	}
	approx(t, s.NoiseFloor[0], 0, 1e-12, "day-0 noise")
	approx(t, s.NoiseFloor[1], 1, 1e-12, "day-1 noise")
	line := s.PerLocation["c/2"]
	approx(t, line[0], 0, 1e-12, "day-0 vs baseline")
	approx(t, line[1], 2, 1e-12, "day-1 vs baseline")
}

func TestValidateGPSOverIP(t *testing.T) {
	pages := map[string][]*serp.Page{
		"Health": {page("a", "b"), page("a", "b"), page("a", "c")},
		"Tiny":   {page("x")},
	}
	res := ValidateGPSOverIP(pages)
	if res.Terms != 1 {
		t.Fatalf("terms = %d (single-page groups must not count)", res.Terms)
	}
	if res.Comparisons != 3 {
		t.Fatalf("comparisons = %d", res.Comparisons)
	}
	// Overlaps: 1, 1/3, 1/3.
	approx(t, res.MeanResultOverlap, (1+1.0/3+1.0/3)/3, 1e-12, "mean overlap")
	approx(t, res.FractionIdenticalPages, 1.0/3, 1e-12, "identical fraction")
}

func TestValidateEmpty(t *testing.T) {
	res := ValidateGPSOverIP(nil)
	if res.Terms != 0 || res.Comparisons != 0 || res.MeanResultOverlap != 0 {
		t.Fatalf("empty validation = %+v", res)
	}
}

func TestOrderedCategoriesAndGranularities(t *testing.T) {
	data := []storage.Observation{
		obs("Coffee", "local", "national", "s/1", storage.Treatment, 0, page("a")),
		obs("Health", "controversial", "county", "d/1", storage.Treatment, 0, page("b")),
		obs("Obama", "politician", "state", "c/1", storage.Treatment, 0, page("c")),
	}
	d, err := NewDataset(data)
	if err != nil {
		t.Fatal(err)
	}
	cats := d.orderedCategories()
	if cats[0] != "politician" || cats[1] != "controversial" || cats[2] != "local" {
		t.Fatalf("category order = %v", cats)
	}
	gs := d.orderedGranularities()
	if gs[0] != "county" || gs[1] != "state" || gs[2] != "national" {
		t.Fatalf("granularity order = %v", gs)
	}
}
