package analysis_test

import (
	"cmp"
	"reflect"
	"slices"
	"strings"
	"testing"

	"geoserp/internal/analysis"
	"geoserp/internal/geo"
	"geoserp/internal/metrics"
	"geoserp/internal/queries"
	"geoserp/internal/serp"
	"geoserp/internal/stats"
	"geoserp/internal/storage"
)

// TestFoldsMatchPageOracle holds the analyses that read the stream's folds
// (Figures 3 and 4, the location-similarity matrix, the demographics study,
// the politician noise floors and the common-name means) to a brute force
// over the stored pages: every pair compared with metrics.ComparePages or
// metrics.BreakdownPages and every mean an integer sum over a count. Each
// must match with ==, on the integration campaign whole and with every 7th
// observation failed.
func TestFoldsMatchPageOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("integration campaign is slow")
	}
	for name, obs := range map[string][]storage.Observation{
		"all":     campaign(t),
		"failed7": everySeventhFailed(campaign(t)),
	} {
		t.Run(name, func(t *testing.T) { checkFoldsAgainstOracle(t, obs) })
	}
}

// TestDemographicsUseExactPairMeans pins the demographics study to exact
// pair means on a campaign built so that a running (Welford) mean misses
// them. Over three days the pair district-1–district-2 sees edit distances
// 0, 1, 0 and the pair district-1–district-3 sees 0, 0, 1: both have the
// exact mean 1/3, so Spearman must rank them as a tie, but a running mean
// of 0, 1, 0 ends one ulp above 1/3.
func TestDemographicsUseExactPairMeans(t *testing.T) {
	var w stats.Accumulator
	for _, e := range []float64{0, 1, 0} {
		w.Add(e)
	}
	if w.Mean() == 1.0/3 {
		t.Fatal("the running mean of 0, 1, 0 is exact; the campaign below no longer tells the two apart")
	}
	var obs []storage.Observation
	for day, changed := range []string{"", "district/district-2", "district/district-3"} {
		for _, loc := range []string{"district/district-1", "district/district-2", "district/district-3"} {
			links := []string{"a", "b", "c"}
			if loc == changed {
				links[2] = "x"
			}
			pg := &serp.Page{Query: "Coffee", Location: loc, Day: day}
			for _, l := range links {
				pg.Cards = append(pg.Cards, serp.Card{Type: serp.Organic, Results: []serp.Result{{URL: "https://" + l + ".example/", Title: l}}})
			}
			for _, role := range []storage.Role{storage.Treatment, storage.Control} {
				obs = append(obs, storage.Observation{Term: "Coffee", Category: "local", Granularity: "county",
					LocationID: loc, Role: role, Day: day, Page: pg})
			}
		}
	}
	checkFoldsAgainstOracle(t, obs)
}

// everySeventhFailed copies obs with every 7th observation turned into a
// failed fetch, so the skip-failed path is covered as well.
func everySeventhFailed(obs []storage.Observation) []storage.Observation {
	out := append([]storage.Observation(nil), obs...)
	for i := 6; i < len(out); i += 7 {
		out[i].Page = nil
		out[i].Failed = true
		out[i].Err = "browser: fetch: synthetic fault"
	}
	return out
}

// exactMean is an integer sum over a count, as the stream keeps them.
type exactMean struct{ n, sum int }

func (m *exactMean) add(v int) { m.n++; m.sum += v }

func (m exactMean) mean() float64 {
	if m.n == 0 {
		return 0
	}
	return float64(m.sum) / float64(m.n)
}

type cellKey struct{ granularity, category, term string }

type pairKey struct{ granularity, category, a, b string }

// pageOracle is the brute force: every noise and treatment pair of the
// successful observations compared from the pages.
type pageOracle struct {
	noise      map[cellKey]*exactMean
	noiseTypes map[cellKey]*[3]exactMean // all, Maps, News
	pers       map[cellKey]*exactMean
	pairs      map[pairKey]*exactMean
}

func newPageOracle(obs []storage.Observation) *pageOracle {
	type sweepKey struct {
		granularity, category, term string
		day                         int
	}
	type slot struct{ treatment, control *serp.Page }
	sweeps := map[sweepKey]map[string]*slot{}
	for _, o := range obs {
		if o.Failed {
			continue
		}
		k := sweepKey{o.Granularity, o.Category, o.Term, o.Day}
		if sweeps[k] == nil {
			sweeps[k] = map[string]*slot{}
		}
		sl := sweeps[k][o.LocationID]
		if sl == nil {
			sl = &slot{}
			sweeps[k][o.LocationID] = sl
		}
		if o.Role == storage.Treatment {
			sl.treatment = o.Page
		} else {
			sl.control = o.Page
		}
	}
	or := &pageOracle{
		noise:      map[cellKey]*exactMean{},
		noiseTypes: map[cellKey]*[3]exactMean{},
		pers:       map[cellKey]*exactMean{},
		pairs:      map[pairKey]*exactMean{},
	}
	for k, slots := range sweeps {
		ck := cellKey{k.granularity, k.category, k.term}
		var locs []string
		for loc, sl := range slots {
			if sl.treatment != nil && sl.control != nil {
				getOrNew(or.noise, ck).add(metrics.ComparePages(sl.treatment, sl.control).EditDistance)
				bd := metrics.BreakdownPages(sl.treatment, sl.control)
				types := getOrNew(or.noiseTypes, ck)
				types[0].add(bd.All)
				types[1].add(bd.Maps)
				types[2].add(bd.News)
			}
			if sl.treatment != nil {
				locs = append(locs, loc)
			}
		}
		slices.Sort(locs)
		for i, a := range locs {
			for _, b := range locs[i+1:] {
				e := metrics.ComparePages(slots[a].treatment, slots[b].treatment).EditDistance
				getOrNew(or.pers, ck).add(e)
				getOrNew(or.pairs, pairKey{k.granularity, k.category, a, b}).add(e)
			}
		}
	}
	return or
}

func getOrNew[K comparable, V any](m map[K]*V, k K) *V {
	if m[k] == nil {
		m[k] = new(V)
	}
	return m[k]
}

// pooled adds the per-term cells of (granularity, category) whose term
// keep accepts.
func pooled(cells map[cellKey]*exactMean, granularity, category string, keep func(string) bool) exactMean {
	var p exactMean
	for k, m := range cells {
		if k.granularity == granularity && k.category == category && keep(k.term) {
			p.n += m.n
			p.sum += m.sum
		}
	}
	return p
}

// pairMean is a location pair's pooled treatment edit distance; a and b
// may come in either order.
func (or *pageOracle) pairMean(granularity, category, a, b string) exactMean {
	if m := or.pairs[pairKey{granularity, category, min(a, b), max(a, b)}]; m != nil {
		return *m
	}
	return exactMean{}
}

func checkFoldsAgainstOracle(t *testing.T, obs []storage.Observation) {
	t.Helper()
	d, err := analysis.NewDataset(obs)
	if err != nil {
		t.Fatal(err)
	}
	or := newPageOracle(obs)

	for _, cat := range d.Categories() {
		// Figure 3: every term's edit mean at every granularity.
		got, want := map[string]map[string]float64{}, map[string]map[string]float64{}
		for _, ts := range d.NoisePerTerm(cat) {
			got[ts.Term] = ts.EditByGranularity
		}
		for _, term := range d.Terms(cat) {
			want[term] = map[string]float64{}
			for _, g := range d.Granularities() {
				if m := or.noise[cellKey{g, cat, term}]; m != nil {
					want[term][g] = m.mean()
				}
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("NoisePerTerm(%s) = %v, oracle %v", cat, got, want)
		}

		for _, g := range d.Granularities() {
			// Figure 4: every term's card-type means.
			rows := map[string]analysis.TypeAttribution{}
			for _, r := range d.NoiseByResultType(cat, g) {
				rows[r.Term] = r
			}
			wantRows := map[string]analysis.TypeAttribution{}
			for _, term := range d.Terms(cat) {
				if m := or.noiseTypes[cellKey{g, cat, term}]; m != nil {
					wantRows[term] = analysis.TypeAttribution{Term: term, All: m[0].mean(), Maps: m[1].mean(), News: m[2].mean()}
				}
			}
			if !reflect.DeepEqual(rows, wantRows) {
				t.Errorf("NoiseByResultType(%s, %s) = %v, oracle %v", cat, g, rows, wantRows)
			}

			// The similarity matrix: every location pair's mean.
			m := d.LocationSimilarity(g, cat)
			if !slices.Equal(m.Locations, d.Locations(g)) {
				t.Fatalf("LocationSimilarity(%s, %s) locations %v, dataset %v", g, cat, m.Locations, d.Locations(g))
			}
			dist := make([][]float64, len(m.Locations))
			for i, a := range m.Locations {
				dist[i] = make([]float64, len(m.Locations))
				for j, b := range m.Locations {
					if i != j {
						dist[i][j] = or.pairMean(g, cat, a, b).mean()
					}
				}
			}
			if !reflect.DeepEqual(m.Dist, dist) {
				t.Errorf("LocationSimilarity(%s, %s).Dist =\n%v\noracle\n%v", g, cat, m.Dist, dist)
			}
		}

		if got, want := d.DemographicCorrelations(geo.StudyDataset(), cat), demographicsOracle(or, cat); !reflect.DeepEqual(got, want) {
			t.Errorf("DemographicCorrelations(%s) =\n%v\noracle\n%v", cat, got, want)
		}
	}

	corpus := queries.StudyCorpus()
	common := map[string]bool{}
	for _, q := range corpus.Category(queries.Politician) {
		common[q.Term] = q.CommonName
	}
	gotNames, wantNames := map[string]analysis.CommonNameCell{}, map[string]analysis.CommonNameCell{}
	for _, c := range d.CommonNameAmbiguity(corpus) {
		gotNames[c.Granularity] = c
	}
	for _, g := range d.Granularities() {
		c := pooled(or.pers, g, "politician", func(t string) bool { return common[t] })
		o := pooled(or.pers, g, "politician", func(t string) bool { return !common[t] })
		if c.n > 0 || o.n > 0 {
			wantNames[g] = analysis.CommonNameCell{Granularity: g, CommonEdit: c.mean(), OtherEdit: o.mean(), CommonN: c.n, OtherN: o.n}
		}
	}
	if !reflect.DeepEqual(gotNames, wantNames) {
		t.Errorf("CommonNameAmbiguity = %v, oracle %v", gotNames, wantNames)
	}

	for _, c := range d.PoliticianScopeBreakdown(corpus) {
		inScope := map[string]bool{}
		for _, s := range []queries.PoliticianScope{queries.ScopeCountyBoard, queries.ScopeStateLegislature,
			queries.ScopeUSCongressOhio, queries.ScopeUSCongressOther, queries.ScopeNationalFigure} {
			if s.String() == c.Scope {
				for _, q := range corpus.Scope(s) {
					inScope[q.Term] = true
				}
			}
		}
		if want := pooled(or.noise, c.Granularity, "politician", func(t string) bool { return inScope[t] }).mean(); c.NoiseEdit != want {
			t.Errorf("scope %s at %s: NoiseEdit %v, oracle %v", c.Scope, c.Granularity, c.NoiseEdit, want)
		}
	}
}

// demographicsOracle correlates every county pair's exact mean edit
// distance with the pair's physical distance and demographic deltas.
func demographicsOracle(or *pageOracle, category string) []analysis.FeatureCorrelation {
	var pairs []pairKey
	for k := range or.pairs {
		if k.granularity == "county" && k.category == category {
			pairs = append(pairs, k)
		}
	}
	slices.SortFunc(pairs, func(x, y pairKey) int { return cmp.Or(strings.Compare(x.a, y.a), strings.Compare(x.b, y.b)) })

	locs := geo.StudyDataset()
	features := append([]string{"distance_miles"}, geo.FeatureNames...)
	xs := map[string][]float64{}
	var ys []float64
	for _, p := range pairs {
		la, okA := locs.ByID(p.a)
		lb, okB := locs.ByID(p.b)
		if !okA || !okB {
			continue
		}
		ys = append(ys, or.pairs[p].mean())
		xs["distance_miles"] = append(xs["distance_miles"], geo.DistanceMiles(la.Point, lb.Point))
		delta := la.Demographics.Delta(lb.Demographics)
		for _, f := range geo.FeatureNames {
			xs[f] = append(xs[f], delta[f])
		}
	}
	out := make([]analysis.FeatureCorrelation, 0, len(features))
	for _, f := range features {
		out = append(out, analysis.FeatureCorrelation{
			Feature: f, Pearson: stats.Pearson(xs[f], ys), Spearman: stats.Spearman(xs[f], ys), N: len(ys),
		})
	}
	return out
}
