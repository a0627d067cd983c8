package geo

import (
	"strings"
	"testing"
)

func TestStudyDatasetShape(t *testing.T) {
	d := StudyDataset()
	// The paper's abstract reports 59 vantage points:
	// 22 national + 22 state + 15 county.
	if got := d.Len(); got != 59 {
		t.Fatalf("dataset has %d locations, want 59", got)
	}
	if got := len(d.At(National)); got != 22 {
		t.Fatalf("national locations = %d, want 22", got)
	}
	if got := len(d.At(State)); got != 22 {
		t.Fatalf("state locations = %d, want 22", got)
	}
	if got := len(d.At(County)); got != 15 {
		t.Fatalf("county locations = %d, want 15", got)
	}
}

// meanPairwiseDistanceKm returns the average great-circle distance over
// all unordered pairs of locations at granularity g, 0 for fewer than two:
// the paper reports ~1 mile for the voting districts and ~100 miles for
// the Ohio counties.
func meanPairwiseDistanceKm(d *Dataset, g Granularity) float64 {
	locs := d.At(g)
	if len(locs) < 2 {
		return 0
	}
	var sum float64
	var n int
	for i := range locs {
		for j := i + 1; j < len(locs); j++ {
			sum += DistanceKm(locs[i].Point, locs[j].Point)
			n++
		}
	}
	return sum / float64(n)
}

func TestStudyDatasetSpacingMatchesPaper(t *testing.T) {
	d := StudyDataset()
	// Ohio counties: "on average, these counties [are] 100 miles apart".
	stateMiles := meanPairwiseDistanceKm(d, State) / KmPerMile
	if stateMiles < 50 || stateMiles > 200 {
		t.Fatalf("mean state-level spacing = %.1f miles, want ~100", stateMiles)
	}
	// Voting districts: "on average, these voting districts are 1 mile apart".
	countyMiles := meanPairwiseDistanceKm(d, County) / KmPerMile
	if countyMiles < 0.3 || countyMiles > 3 {
		t.Fatalf("mean county-level spacing = %.2f miles, want ~1", countyMiles)
	}
	// National spacing must dominate state spacing which dominates county.
	natMiles := meanPairwiseDistanceKm(d, National) / KmPerMile
	if !(natMiles > stateMiles && stateMiles > countyMiles) {
		t.Fatalf("spacing not monotone: national=%.1f state=%.1f county=%.2f",
			natMiles, stateMiles, countyMiles)
	}
}

func TestStudyDatasetIDsAndPoints(t *testing.T) {
	d := StudyDataset()
	for _, l := range d.All() {
		if !l.Point.Valid() {
			t.Fatalf("%s has invalid point %v", l.ID, l.Point)
		}
		if err := l.Demographics.Validate(); err != nil {
			t.Fatalf("%s demographics: %v", l.ID, err)
		}
		wantPrefix := map[Granularity]string{
			National: "state/", State: "county/", County: "district/",
		}[l.Granularity]
		if !strings.HasPrefix(l.ID, wantPrefix) {
			t.Fatalf("%s has granularity %v but prefix mismatch", l.ID, l.Granularity)
		}
	}
	// Ohio must be a national location; Cuyahoga a state location.
	if _, ok := d.ByID("state/ohio"); !ok {
		t.Fatal("missing state/ohio")
	}
	if _, ok := d.ByID("county/cuyahoga"); !ok {
		t.Fatal("missing county/cuyahoga")
	}
}

func TestCuyahogaDistrictsInsideCounty(t *testing.T) {
	d := StudyDataset()
	cuy, _ := d.ByID("county/cuyahoga")
	for _, l := range d.At(County) {
		if miles := DistanceMiles(l.Point, cuy.Point); miles > 30 {
			t.Fatalf("%s is %.1f miles from the Cuyahoga centroid", l.ID, miles)
		}
	}
}

func TestOhioCountiesNearOhio(t *testing.T) {
	d := StudyDataset()
	ohio, _ := d.ByID("state/ohio")
	for _, l := range d.At(State) {
		if miles := DistanceMiles(l.Point, ohio.Point); miles > 200 {
			t.Fatalf("%s is %.1f miles from the Ohio centroid", l.ID, miles)
		}
	}
}

func TestNewDatasetRejectsDuplicates(t *testing.T) {
	locs := []Location{
		{ID: "x", Name: "X", Point: Point{1, 1}},
		{ID: "x", Name: "X2", Point: Point{2, 2}},
	}
	if _, err := NewDataset(locs); err == nil {
		t.Fatal("duplicate IDs accepted")
	}
}

func TestNewDatasetRejectsInvalid(t *testing.T) {
	if _, err := NewDataset([]Location{{ID: "", Name: "anon", Point: Point{1, 1}}}); err == nil {
		t.Fatal("empty ID accepted")
	}
	if _, err := NewDataset([]Location{{ID: "bad", Name: "Bad", Point: Point{999, 0}}}); err == nil {
		t.Fatal("invalid point accepted")
	}
}

func TestDatasetLookupsAndOrdering(t *testing.T) {
	d := StudyDataset()
	if _, ok := d.ByID("nope/nope"); ok {
		t.Fatal("ByID returned ok for missing location")
	}
	all := d.All()
	for i := 1; i < len(all); i++ {
		if all[i-1].ID >= all[i].ID {
			t.Fatalf("All() not sorted: %s >= %s", all[i-1].ID, all[i].ID)
		}
	}
	at := d.At(State)
	for i := 1; i < len(at); i++ {
		if at[i-1].ID >= at[i].ID {
			t.Fatalf("At(State) not sorted: %s >= %s", at[i-1].ID, at[i].ID)
		}
	}
}

func TestGranularityStrings(t *testing.T) {
	cases := map[Granularity][2]string{
		County:   {"County (Cuyahoga)", "county"},
		State:    {"State (Ohio)", "state"},
		National: {"National (USA)", "national"},
	}
	for g, want := range cases {
		if g.String() != want[0] {
			t.Fatalf("String(%d) = %q, want %q", g, g.String(), want[0])
		}
		if g.Short() != want[1] {
			t.Fatalf("Short(%d) = %q, want %q", g, g.Short(), want[1])
		}
	}
	if Granularity(99).String() == "" || Granularity(99).Short() == "" {
		t.Fatal("unknown granularity has empty labels")
	}
}

func TestSynthesizeDemographicsDeterministic(t *testing.T) {
	a := SynthesizeDemographics("district/cuyahoga-01")
	b := SynthesizeDemographics("district/cuyahoga-01")
	for _, f := range FeatureNames {
		if a[f] != b[f] {
			t.Fatalf("demographics not deterministic for %q", f)
		}
	}
	c := SynthesizeDemographics("district/cuyahoga-02")
	same := 0
	for _, f := range FeatureNames {
		if a[f] == c[f] {
			same++
		}
	}
	if same == len(FeatureNames) {
		t.Fatal("distinct IDs produced identical demographics")
	}
}

func TestDemographicsValidateCatchesCorruption(t *testing.T) {
	d := SynthesizeDemographics("x")
	if err := d.Validate(); err != nil {
		t.Fatalf("fresh demographics invalid: %v", err)
	}
	d["median_income"] = -1
	if err := d.Validate(); err == nil {
		t.Fatal("out-of-range value accepted")
	}
	delete(d, "median_income")
	if err := d.Validate(); err == nil {
		t.Fatal("missing feature accepted")
	}
}

func TestDemographicsDelta(t *testing.T) {
	a := SynthesizeDemographics("a")
	b := SynthesizeDemographics("b")
	delta := a.Delta(b)
	if len(delta) != len(FeatureNames) {
		t.Fatalf("delta has %d features, want %d", len(delta), len(FeatureNames))
	}
	for f, v := range delta {
		if v < 0 {
			t.Fatalf("delta[%q] = %v < 0", f, v)
		}
	}
	self := a.Delta(a)
	for f, v := range self {
		if v != 0 {
			t.Fatalf("self-delta[%q] = %v, want 0", f, v)
		}
	}
}

func TestDemographicsFeatures(t *testing.T) {
	d := SynthesizeDemographics("x")
	fs := d.Features()
	if len(fs) != len(FeatureNames) {
		t.Fatalf("Features() has %d entries, want %d", len(fs), len(FeatureNames))
	}
	for i := 1; i < len(fs); i++ {
		if fs[i-1] >= fs[i] {
			t.Fatal("Features() not sorted")
		}
	}
}

func TestMeanPairwiseDistanceDegenerate(t *testing.T) {
	d, err := NewDataset([]Location{{ID: "solo", Name: "Solo", Granularity: County, Point: Point{1, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := meanPairwiseDistanceKm(d, County); got != 0 {
		t.Fatalf("single-location mean distance = %v, want 0", got)
	}
}
