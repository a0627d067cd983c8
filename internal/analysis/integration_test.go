package analysis_test

// End-to-end integration: a real campaign (engine → HTTP server → browser
// pool → crawler) feeds the analysis layer, and the figure reproductions
// are checked against the paper's qualitative findings.

import (
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"geoserp/internal/analysis"
	"geoserp/internal/crawler"
	"geoserp/internal/engine"
	"geoserp/internal/geo"
	"geoserp/internal/metrics"
	"geoserp/internal/queries"
	"geoserp/internal/serp"
	"geoserp/internal/serpserver"
	"geoserp/internal/simclock"
	"geoserp/internal/storage"
)

// runSmallCampaign crawls a reduced study (a handful of terms per
// category, all granularities, 2 days) against an in-process engine.
func runSmallCampaign(t *testing.T) []storage.Observation {
	t.Helper()
	clk := simclock.NewManual(time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC))
	eng := engine.New(engine.DefaultConfig(), clk)
	srv := httptest.NewServer(serpserver.NewHandler(eng))
	t.Cleanup(srv.Close)

	corpus := queries.StudyCorpus()
	cr, err := crawler.New(crawler.DefaultConfig(), clk, srv.URL, geo.StudyDataset(), corpus)
	if err != nil {
		t.Fatal(err)
	}
	var terms []queries.Query
	terms = append(terms, corpus.Category(queries.Local)[:8]...)
	terms = append(terms, corpus.Category(queries.Controversial)[:6]...)
	terms = append(terms, corpus.Category(queries.Politician)[:6]...)
	phase := crawler.Phase{
		Name:          "integration",
		Terms:         terms,
		Granularities: geo.Granularities,
		Days:          2,
	}
	obs, err := cr.RunCampaignVirtual(clk, []crawler.Phase{phase})
	if err != nil {
		t.Fatal(err)
	}
	return obs
}

var campaignCache []storage.Observation

func campaign(t *testing.T) []storage.Observation {
	t.Helper()
	if campaignCache == nil {
		campaignCache = runSmallCampaign(t)
	}
	return campaignCache
}

func TestEndToEndFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("integration campaign is slow")
	}
	obs := campaign(t)
	// 20 terms × (15+22+22 locations) × 2 roles × 2 days.
	want := 20 * (15 + 22 + 22) * 2 * 2
	if len(obs) != want {
		t.Fatalf("observations = %d, want %d", len(obs), want)
	}
	d, err := analysis.NewDataset(obs)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("Figure2Noise", func(t *testing.T) {
		cells := d.NoiseByGranularity()
		if len(cells) != 9 {
			t.Fatalf("cells = %d, want 3 granularities x 3 categories", len(cells))
		}
		byKey := map[[2]string]analysis.NoiseCell{}
		for _, c := range cells {
			byKey[[2]string{c.Granularity, c.Category}] = c
		}
		for _, g := range []string{"county", "state", "national"} {
			local := byKey[[2]string{g, "local"}]
			for _, cat := range []string{"controversial", "politician"} {
				other := byKey[[2]string{g, cat}]
				if other.Edit.Mean >= local.Edit.Mean {
					t.Errorf("%s: %s noise (%.2f) >= local noise (%.2f)",
						g, cat, other.Edit.Mean, local.Edit.Mean)
				}
			}
			if local.Jaccard.Mean > 0.99 {
				t.Errorf("%s: local queries show no noise at all", g)
			}
		}
	})

	t.Run("Figure5Personalization", func(t *testing.T) {
		cells := d.PersonalizationByGranularity()
		byKey := map[[2]string]analysis.PersonalizationCell{}
		for _, c := range cells {
			byKey[[2]string{c.Granularity, c.Category}] = c
		}
		county := byKey[[2]string{"county", "local"}]
		state := byKey[[2]string{"state", "local"}]
		national := byKey[[2]string{"national", "local"}]
		if !(county.Edit.Mean < state.Edit.Mean) {
			t.Errorf("local personalization not growing county→state: %.2f vs %.2f",
				county.Edit.Mean, state.Edit.Mean)
		}
		if !(county.Jaccard.Mean > national.Jaccard.Mean) {
			t.Errorf("local jaccard not shrinking with distance: %.2f vs %.2f",
				county.Jaccard.Mean, national.Jaccard.Mean)
		}
		if state.Edit.Mean < state.NoiseEdit {
			t.Errorf("state local personalization (%.2f) below noise floor (%.2f)",
				state.Edit.Mean, state.NoiseEdit)
		}
		// Politicians stay near their noise floor.
		pol := byKey[[2]string{"county", "politician"}]
		if pol.Edit.Mean > pol.NoiseEdit+1.5 {
			t.Errorf("county politician personalization (%.2f) far above noise (%.2f)",
				pol.Edit.Mean, pol.NoiseEdit)
		}
	})

	t.Run("Figure3And6PerTerm", func(t *testing.T) {
		noise := d.NoisePerTerm("local")
		pers := d.PersonalizationPerTerm("local")
		if len(noise) != 8 || len(pers) != 8 {
			t.Fatalf("per-term series = %d/%d, want 8", len(noise), len(pers))
		}
		// Sorted ascending by national value.
		for i := 1; i < len(pers); i++ {
			if pers[i-1].EditByGranularity["national"] > pers[i].EditByGranularity["national"]+1e-9 {
				t.Fatal("per-term series not sorted by national values")
			}
		}
	})

	t.Run("Figure4NoiseTypes", func(t *testing.T) {
		attr := d.NoiseByResultType("local", "county")
		if len(attr) == 0 {
			t.Fatal("no attribution rows")
		}
		var all, news float64
		for _, a := range attr {
			all += a.All
			news += a.News
		}
		if all == 0 {
			t.Fatal("no local noise at county level")
		}
		if news > 0.02*all {
			t.Errorf("news noise for local queries = %.2f of %.2f, want ~0", news, all)
		}
	})

	t.Run("Figure7TypeBreakdown", func(t *testing.T) {
		cells := d.PersonalizationByResultType()
		byKey := map[[2]string]analysis.BreakdownCell{}
		for _, c := range cells {
			byKey[[2]string{c.Category, c.Granularity}] = c
		}
		local := byKey[[2]string{"local", "state"}]
		if s := local.MapsShare(); s < 0.05 || s > 0.6 {
			t.Errorf("maps share of local personalization = %.2f", s)
		}
		if local.Other <= 0 {
			t.Error("no 'typical result' personalization for local queries")
		}
		contr := byKey[[2]string{"controversial", "national"}]
		if contr.Maps != 0 {
			t.Errorf("controversial queries have maps differences: %.2f", contr.Maps)
		}
	})

	t.Run("Figure8Consistency", func(t *testing.T) {
		series := d.ConsistencyOverTime("local")
		if len(series) != 3 {
			t.Fatalf("series = %d, want 3 granularities", len(series))
		}
		for _, s := range series {
			if len(s.Days) != 2 {
				t.Fatalf("%s: days = %v", s.Granularity, s.Days)
			}
			if len(s.PerLocation) < 2 {
				t.Fatalf("%s: only %d comparison locations", s.Granularity, len(s.PerLocation))
			}
			// Values must be finite and day-to-day stable within a loose
			// factor (the paper: "the amount of personalization is stable
			// over time").
			for loc, line := range s.PerLocation {
				for i, v := range line {
					if math.IsNaN(v) || v < 0 {
						t.Fatalf("%s %s day %d: bad value %v", s.Granularity, loc, i, v)
					}
				}
			}
		}
	})

	t.Run("Demographics", func(t *testing.T) {
		rows := d.DemographicCorrelations(geo.StudyDataset(), "local")
		if len(rows) != 26 { // distance + 25 features
			t.Fatalf("rows = %d, want 26", len(rows))
		}
		// The paper's finding: no demographic feature explains result
		// differences. Synthetic demographics are independent of the
		// engine, so correlations must be small.
		for _, r := range rows[1:] {
			if math.Abs(r.Pearson) > 0.6 {
				t.Errorf("feature %s has |r| = %.2f, expected no correlation", r.Feature, r.Pearson)
			}
			if r.N == 0 {
				t.Errorf("feature %s has no samples", r.Feature)
			}
		}
	})
}

// TestComparerMatchesStringReference holds the kernel the stream ingests
// with to the list metrics: over every sweep of a real campaign, one
// Comparer reused sweep after sweep must give every noise pair and every
// treatment pair the Comparison and TypeBreakdown that Jaccard and
// EditDistance give on the pages' Links and LinksOfType.
func TestComparerMatchesStringReference(t *testing.T) {
	if testing.Short() {
		t.Skip("integration campaign is slow")
	}
	type sweepKey struct {
		granularity, term string
		day               int
	}
	sweeps := map[sweepKey][]storage.Observation{}
	var order []sweepKey
	for _, o := range campaign(t) {
		k := sweepKey{o.Granularity, o.Term, o.Day}
		if sweeps[k] == nil {
			order = append(order, k)
		}
		sweeps[k] = append(sweeps[k], o)
	}
	var c metrics.Comparer
	check := func(a, b *serp.Page, pa, pb *metrics.PageLinks) {
		t.Helper()
		la, lb := a.Links(), b.Links()
		want := metrics.Comparison{Jaccard: metrics.Jaccard(la, lb), EditDistance: metrics.EditDistance(la, lb)}
		wantBD := metrics.TypeBreakdown{
			All:   want.EditDistance,
			Maps:  metrics.EditDistance(a.LinksOfType(serp.Maps), b.LinksOfType(serp.Maps)),
			News:  metrics.EditDistance(a.LinksOfType(serp.News), b.LinksOfType(serp.News)),
			Other: metrics.EditDistance(a.LinksOfType(serp.Organic), b.LinksOfType(serp.Organic)),
		}
		got, gotBD := c.CompareWithBreakdown(pa, pb)
		if cmp := c.Compare(pa, pb); cmp != want || got != want || gotBD != wantBD {
			t.Fatalf("%s vs %s: Compare %+v, CompareWithBreakdown %+v %+v; want %+v %+v",
				a.Location, b.Location, cmp, got, gotBD, want, wantBD)
		}
	}
	noise, treatment := 0, 0
	for _, k := range order {
		c.Reset()
		var treatments []*serp.Page
		var prepared []*metrics.PageLinks
		controls := map[string]*serp.Page{}
		for _, o := range sweeps[k] {
			if !o.Failed && o.Role == storage.Control {
				controls[o.LocationID] = o.Page
			}
		}
		for _, o := range sweeps[k] {
			if o.Failed || o.Role != storage.Treatment {
				continue
			}
			pt := c.Prepare(o.Page)
			if ctl := controls[o.LocationID]; ctl != nil {
				check(o.Page, ctl, pt, c.Prepare(ctl))
				noise++
			}
			treatments = append(treatments, o.Page)
			prepared = append(prepared, pt)
		}
		for i := range treatments {
			for j := i + 1; j < len(treatments); j++ {
				check(treatments[i], treatments[j], prepared[i], prepared[j])
				treatment++
			}
		}
	}
	// 20 terms × 2 days × 59 vantages, and as many days × terms ×
	// (C(15,2) + 2·C(22,2)) treatment pairs.
	if noise != 20*2*59 || treatment != 20*2*(105+231+231) {
		t.Fatalf("checked %d noise and %d treatment pairs", noise, treatment)
	}
}

func TestCampaignJSONLRoundTripAndReanalysis(t *testing.T) {
	if testing.Short() {
		t.Skip("integration campaign is slow")
	}
	obs := campaign(t)
	path := t.TempDir() + "/campaign.jsonl"
	if err := storage.SaveJSONL(path, obs); err != nil {
		t.Fatal(err)
	}
	back, err := storage.LoadJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(obs) {
		t.Fatalf("round-trip lost observations: %d vs %d", len(back), len(obs))
	}
	d1, err := analysis.NewDataset(obs)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := analysis.NewDataset(back)
	if err != nil {
		t.Fatal(err)
	}
	c1 := d1.NoiseByGranularity()
	c2 := d2.NoiseByGranularity()
	if len(c1) != len(c2) {
		t.Fatal("re-analysis differs in shape")
	}
	for i := range c1 {
		if math.Abs(c1[i].Edit.Mean-c2[i].Edit.Mean) > 1e-12 {
			t.Fatal("re-analysis of persisted data differs")
		}
	}
}

// TestScopeAnalysisEndToEnd runs politician terms from multiple scopes
// through the real engine and verifies the paper-motivated ordering:
// Ohio-anchored officials are more location-sensitive at national scale
// than national figures, and common names are the most personalized.
func TestScopeAnalysisEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end sweep is slow")
	}
	clk := simclock.NewManual(time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC))
	eng := engine.New(engine.DefaultConfig(), clk)
	srv := httptest.NewServer(serpserver.NewHandler(eng))
	t.Cleanup(srv.Close)
	corpus := queries.StudyCorpus()
	cr, err := crawler.New(crawler.DefaultConfig(), clk, srv.URL, geo.StudyDataset(), corpus)
	if err != nil {
		t.Fatal(err)
	}
	var terms []queries.Query
	for _, name := range []string{
		"Barack Obama", "Joe Biden", // national figures
		"Sherrod Brown", "Tim Ryan", "Bill Johnson", "Marcy Kaptur", // US congress (OH)
		"Nancy Pelosi", "Bernie Sanders", // US congress (other)
		"Margaret Kowalski", "Alan Pruitt", // county board / state legislature
	} {
		q, ok := corpus.ByTerm(name)
		if !ok {
			t.Fatalf("missing politician %q", name)
		}
		terms = append(terms, q)
	}
	phase := crawler.Phase{
		Name:          "scopes",
		Terms:         terms,
		Granularities: []geo.Granularity{geo.National},
		Days:          2,
	}
	obs, err := cr.RunCampaignVirtual(clk, []crawler.Phase{phase})
	if err != nil {
		t.Fatal(err)
	}
	d, err := analysis.NewDataset(obs)
	if err != nil {
		t.Fatal(err)
	}

	cells := d.PoliticianScopeBreakdown(corpus)
	byKey := map[[2]string]analysis.ScopeCell{}
	for _, c := range cells {
		byKey[[2]string{c.Scope, c.Granularity}] = c
	}
	natFig := byKey[[2]string{"national-figure", "national"}]
	ohCongress := byKey[[2]string{"us-congress-ohio", "national"}]
	if ohCongress.Edit.Mean <= natFig.Edit.Mean {
		t.Errorf("Ohio congress (%.2f) should be more location-sensitive than national figures (%.2f)",
			ohCongress.Edit.Mean, natFig.Edit.Mean)
	}

	for _, c := range d.CommonNameAmbiguity(corpus) {
		if c.Granularity == "national" && c.CommonEdit <= c.OtherEdit {
			t.Errorf("common names (%.2f) should exceed other politicians (%.2f) at national scale",
				c.CommonEdit, c.OtherEdit)
		}
	}
}
