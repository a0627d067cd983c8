package analysis

import (
	"cmp"
	"maps"
	"slices"
	"sort"
	"strings"

	"geoserp/internal/geo"
	"geoserp/internal/metrics"
	"geoserp/internal/serp"
	"geoserp/internal/stats"
)

// ValidationResult summarizes the §2.2 validation experiment: identical
// queries, one GPS coordinate, many vantage IPs.
type ValidationResult struct {
	// Terms is the number of distinct query terms compared.
	Terms int
	// Comparisons is the number of vantage-pair comparisons.
	Comparisons int
	// MeanResultOverlap is the average Jaccard index across vantage
	// pairs — the "94% of the search results ... are identical" number.
	MeanResultOverlap float64
	// FractionIdenticalPages is the stricter page-level criterion.
	FractionIdenticalPages float64
}

// ValidateGPSOverIP evaluates the validation experiment's fetched pages
// (grouped by term, one page per vantage machine).
func ValidateGPSOverIP(pages map[string][]*serp.Page) ValidationResult {
	var res ValidationResult
	var overlaps []float64
	identical := 0
	terms := make([]string, 0, len(pages))
	for t := range pages {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	for _, t := range terms {
		ps := pages[t]
		if len(ps) < 2 {
			continue
		}
		res.Terms++
		for i := 0; i < len(ps); i++ {
			for j := i + 1; j < len(ps); j++ {
				ov := metrics.Jaccard(ps[i].Links(), ps[j].Links())
				overlaps = append(overlaps, ov)
				if metrics.Identical(ps[i], ps[j]) {
					identical++
				}
			}
		}
	}
	res.Comparisons = len(overlaps)
	if len(overlaps) > 0 {
		res.MeanResultOverlap = stats.Mean(overlaps)
		res.FractionIdenticalPages = float64(identical) / float64(len(overlaps))
	}
	return res
}

// FeatureCorrelation is one row of the demographics analysis (§3.2): the
// correlation between a demographic feature's pairwise |delta| and the
// pairwise search-result difference across county-level locations.
type FeatureCorrelation struct {
	Feature  string
	Pearson  float64
	Spearman float64
	N        int
}

// DemographicCorrelations reproduces the §3.2 demographics analysis: for
// every pair of county-level locations, correlate each demographic
// feature's absolute difference (plus physical distance) against the mean
// pairwise edit distance of their search results. The paper's finding — no
// feature explains the result clustering — shows up as uniformly small
// coefficients.
func (d *Dataset) DemographicCorrelations(locs *geo.Dataset, category string) []FeatureCorrelation {
	sums := d.stream.pairSums("county", category)
	pairs := slices.SortedFunc(maps.Keys(sums), func(x, y locPair) int {
		return cmp.Or(strings.Compare(x.a, y.a), strings.Compare(x.b, y.b))
	})

	features := append([]string{"distance_miles"}, geo.FeatureNames...)
	xs := map[string][]float64{}
	var ys []float64
	for _, lp := range pairs {
		la, okA := locs.ByID(lp.a)
		lb, okB := locs.ByID(lp.b)
		if !okA || !okB {
			continue
		}
		ys = append(ys, sums[lp].mean())
		xs["distance_miles"] = append(xs["distance_miles"], geo.DistanceMiles(la.Point, lb.Point))
		delta := la.Demographics.Delta(lb.Demographics)
		for _, f := range geo.FeatureNames {
			xs[f] = append(xs[f], delta[f])
		}
	}

	out := make([]FeatureCorrelation, 0, len(features))
	for _, f := range features {
		out = append(out, FeatureCorrelation{
			Feature:  f,
			Pearson:  stats.Pearson(xs[f], ys),
			Spearman: stats.Spearman(xs[f], ys),
			N:        len(ys),
		})
	}
	return out
}
