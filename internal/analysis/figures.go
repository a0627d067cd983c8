package analysis

import (
	"sort"

	"geoserp/internal/stats"
)

// CategoryOrder is the order the paper's figures plot query categories in.
var CategoryOrder = []string{"politician", "controversial", "local"}

// orderedCategories returns the dataset's categories in figure order, with
// any extras appended alphabetically.
func (d *Dataset) orderedCategories() []string {
	return orderWith(CategoryOrder, d.categories)
}

// GranularityOrder is the fine-to-coarse x-axis order of Figures 2 and 5.
var GranularityOrder = []string{"county", "state", "national"}

// orderedGranularities returns the dataset's granularities in figure
// order.
func (d *Dataset) orderedGranularities() []string {
	return orderWith(GranularityOrder, d.granularities)
}

// orderWith arranges the (sorted, duplicate-free) labels in `have` by the
// figure order `order`, appending labels the order does not mention in
// their original (alphabetical) position.
func orderWith(order, have []string) []string {
	var out []string
	seen := map[string]bool{}
	for _, want := range order {
		for _, h := range have {
			if h == want {
				out = append(out, want)
				seen[want] = true
			}
		}
	}
	for _, h := range have {
		if !seen[h] {
			out = append(out, h)
		}
	}
	return out
}

// NoiseCell is one bar of Figure 2: the average treatment-vs-control
// difference for one (granularity, category) cell, with the standard
// deviations shown as error bars. The summaries are one-pass (Welford), so
// their Median is the mean; no figure reads it.
type NoiseCell struct {
	Granularity string
	Category    string
	Jaccard     stats.Summary
	Edit        stats.Summary
}

// NoiseByGranularity reproduces Figure 2: average noise levels across
// query types and granularities, measured by comparing each treatment to
// its simultaneous control.
func (d *Dataset) NoiseByGranularity() []NoiseCell { return d.stream.NoiseByGranularity() }

// PersonalizationCell is one bar of Figure 5: the all-pairs cross-location
// difference for a (granularity, category) cell, with the matching noise
// floor drawn as the black bar. As in NoiseCell, the summaries' Median is
// the mean.
type PersonalizationCell struct {
	Granularity  string
	Category     string
	Jaccard      stats.Summary
	Edit         stats.Summary
	NoiseJaccard float64
	NoiseEdit    float64
}

// PersonalizationByGranularity reproduces Figure 5: for every term and
// day, all unordered pairs of locations' treatment pages are compared; the
// noise floors from Figure 2 are attached for reference.
func (d *Dataset) PersonalizationByGranularity() []PersonalizationCell {
	return d.stream.PersonalizationByGranularity()
}

// TermSeries is one term's x-position in Figures 3 and 6: its average edit
// distance (noise or personalization) at each granularity.
type TermSeries struct {
	Term string
	// EditByGranularity maps granularity label → mean edit distance.
	EditByGranularity map[string]float64
	// JaccardByGranularity maps granularity label → mean Jaccard.
	JaccardByGranularity map[string]float64
}

// NoisePerTerm reproduces Figure 3 for the given category (the paper plots
// local queries): per-term noise at each granularity, sorted ascending by
// the national-level value as the paper sorts its x-axis.
func (d *Dataset) NoisePerTerm(category string) []TermSeries { return d.stream.NoisePerTerm(category) }

// PersonalizationPerTerm reproduces Figure 6: per-term cross-location
// personalization at each granularity, sorted by the national values.
func (d *Dataset) PersonalizationPerTerm(category string) []TermSeries {
	return d.stream.PersonalizationPerTerm(category)
}

func sortTermSeries(ts []TermSeries, by string) {
	sort.Slice(ts, func(i, j int) bool {
		a, b := ts[i].EditByGranularity[by], ts[j].EditByGranularity[by]
		if a != b {
			return a < b
		}
		return ts[i].Term < ts[j].Term
	})
}

// TypeAttribution is one term's bar group in Figure 4: the edit distance
// attributable to all results, Maps results, and News results.
type TypeAttribution struct {
	Term string
	All  float64
	Maps float64
	News float64
}

// NoiseByResultType reproduces Figure 4: the amount of treatment/control
// noise caused by each card type, per term, at one granularity. The paper
// plots local queries at county granularity and notes the same trends
// elsewhere.
func (d *Dataset) NoiseByResultType(category, granularity string) []TypeAttribution {
	return d.stream.NoiseByResultType(category, granularity)
}

// BreakdownCell is one bar stack of Figure 7: the personalization edit
// distance decomposed into Maps, News, and all other results, for one
// (category, granularity) cell.
type BreakdownCell struct {
	Category    string
	Granularity string
	All         float64
	Maps        float64
	News        float64
	Other       float64
}

// MapsShare returns Maps / (Maps+News+Other), 0 when no changes.
func (b BreakdownCell) MapsShare() float64 {
	if t := b.Maps + b.News + b.Other; t > 0 {
		return b.Maps / t
	}
	return 0
}

// NewsShare returns News / (Maps+News+Other), 0 when no changes.
func (b BreakdownCell) NewsShare() float64 {
	if t := b.Maps + b.News + b.Other; t > 0 {
		return b.News / t
	}
	return 0
}

// PersonalizationByResultType reproduces Figure 7: the cross-location edit
// distance decomposed by card type for every category × granularity.
func (d *Dataset) PersonalizationByResultType() []BreakdownCell {
	return d.stream.PersonalizationByResultType()
}

// ConsistencySeries is one panel of Figure 8: for one granularity, the
// day-by-day average edit distance between a baseline location and every
// other location (black lines), plus the baseline's treatment-vs-control
// noise floor (the red line).
type ConsistencySeries struct {
	Granularity string
	Baseline    string
	// Days lists the campaign days in order.
	Days []int
	// NoiseFloor[i] is the baseline's avg treatment/control edit
	// distance on Days[i].
	NoiseFloor []float64
	// PerLocation maps each non-baseline location to its per-day average
	// edit distance against the baseline.
	PerLocation map[string][]float64
}

// ConsistencyOverTime reproduces Figure 8 for the given category (the
// paper plots local queries). The first location (by ID) with any
// successful observation at each granularity serves as the baseline.
func (d *Dataset) ConsistencyOverTime(category string) []ConsistencySeries {
	return d.stream.ConsistencyOverTime(category)
}
