package analysis

import (
	"geoserp/internal/metrics"
	"geoserp/internal/queries"
	"geoserp/internal/stats"
)

// §2.1 motivates the politician corpus with an open question: "it is not
// clear how Google Search handles queries for state- and county-level
// officials inside and outside their home territories." This file answers
// it for the reproduction: personalization broken down by politician
// scope, and separately for the ambiguous common names.

// ScopeCell summarizes one politician sub-group at one granularity.
type ScopeCell struct {
	// Scope is the sub-group label (queries.PoliticianScope.String()).
	Scope string
	// Granularity is the vantage-point scale.
	Granularity string
	// Edit and Jaccard summarize all-pairs cross-location comparisons.
	Edit    stats.Summary
	Jaccard stats.Summary
	// NoiseEdit is the sub-group's treatment/control floor.
	NoiseEdit float64
}

// PoliticianScopeBreakdown computes cross-location personalization per
// politician scope. The corpus supplies the term→scope mapping; terms not
// present in the dataset are skipped.
func (d *Dataset) PoliticianScopeBreakdown(corpus *queries.Corpus) []ScopeCell {
	scopes := []queries.PoliticianScope{
		queries.ScopeCountyBoard,
		queries.ScopeStateLegislature,
		queries.ScopeUSCongressOhio,
		queries.ScopeUSCongressOther,
		queries.ScopeNationalFigure,
	}
	var out []ScopeCell
	for _, g := range d.orderedGranularities() {
		for _, scope := range scopes {
			inScope := map[string]bool{}
			for _, q := range corpus.Scope(scope) {
				inScope[q.Term] = true
			}
			filter := func(term string) bool { return inScope[term] }
			js, es := d.pairwiseByTerm(g, "politician", filter)
			if len(es) == 0 {
				continue
			}
			noise := d.stream.pooledEdit(d.stream.noiseTerm, g, "politician", filter)
			out = append(out, ScopeCell{
				Scope:       scope.String(),
				Granularity: g,
				Edit:        stats.Summarize(es),
				Jaccard:     stats.Summarize(js),
				NoiseEdit:   noise.mean(),
			})
		}
	}
	return out
}

// pairwiseByTerm collects Jaccard and edit-distance samples over all
// unordered location pairs for every (term, day) of category at
// granularity g whose term keep accepts.
func (d *Dataset) pairwiseByTerm(g, category string, keep func(string) bool) (js, es []float64) {
	locs := d.locationsByGranularity[g]
	// Each treatment page is prepared once per (term, day), as in
	// DistanceDecay.
	var c metrics.Comparer
	var pages []*metrics.PageLinks
	for _, term := range d.termsByCategory[category] {
		if !keep(term) {
			continue
		}
		for _, day := range d.days {
			c.Reset()
			pages = pages[:0]
			for _, loc := range locs {
				if p, ok := d.lookup(g, term, day, loc); ok && p.treatment != nil {
					pages = append(pages, c.Prepare(p.treatment))
				}
			}
			for i := 0; i < len(pages); i++ {
				for j := i + 1; j < len(pages); j++ {
					cmp := c.Compare(pages[i], pages[j])
					js = append(js, cmp.Jaccard)
					es = append(es, float64(cmp.EditDistance))
				}
			}
		}
	}
	return js, es
}

// CommonNameCell contrasts ambiguous politician names against the rest of
// their category — the paper's "Bill Johnson"/"Tim Ryan" observation.
type CommonNameCell struct {
	Granularity string
	// CommonEdit is the mean cross-location edit distance for
	// common-name politicians.
	CommonEdit float64
	// OtherEdit is the same for all other politicians.
	OtherEdit float64
	// CommonN / OtherN count the pairwise samples.
	CommonN, OtherN int
}

// CommonNameAmbiguity compares common-name politicians to the rest.
func (d *Dataset) CommonNameAmbiguity(corpus *queries.Corpus) []CommonNameCell {
	common := map[string]bool{}
	for _, q := range corpus.Category(queries.Politician) {
		if q.CommonName {
			common[q.Term] = true
		}
	}
	var out []CommonNameCell
	for _, g := range d.orderedGranularities() {
		c := d.stream.pooledEdit(d.stream.persTerm, g, "politician", func(t string) bool { return common[t] })
		o := d.stream.pooledEdit(d.stream.persTerm, g, "politician", func(t string) bool { return !common[t] })
		if c.n == 0 && o.n == 0 {
			continue
		}
		out = append(out, CommonNameCell{
			Granularity: g,
			CommonEdit:  c.mean(),
			OtherEdit:   o.mean(),
			CommonN:     c.n,
			OtherN:      o.n,
		})
	}
	return out
}
