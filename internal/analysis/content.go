package analysis

import (
	"math"
	"net/url"
	"sort"
	"strings"

	"geoserp/internal/geo"
	"geoserp/internal/metrics"
	"geoserp/internal/stats"
)

// This file implements the paper's proposed follow-up analyses (§5):
// "Additional content analysis on the search results may help us uncover
// the specific instances where personalization algorithms reinforce
// demographic biases", and the distance question ("At what distance do
// users begin to see changes?") as a continuous curve rather than three
// granularity buckets.

// DomainBias describes how unevenly one web domain is served across
// locations.
type DomainBias struct {
	// Domain is the result host name.
	Domain string
	// MeanPresence is the average fraction of pages (per location)
	// containing the domain.
	MeanPresence float64
	// Spread is the max-min presence across locations: 0 means the
	// domain is served uniformly everywhere, 1 means some locations
	// always see it and others never do.
	Spread float64
	// TopLocation is the location with the highest presence.
	TopLocation string
	// TopPresence is that location's presence fraction.
	TopPresence float64
}

// domainOf extracts the host from a result URL ("" if unparseable).
func domainOf(raw string) string {
	u, err := url.Parse(raw)
	if err != nil {
		return ""
	}
	return strings.ToLower(u.Host)
}

// DomainBiasByLocation performs the content analysis: for every domain
// appearing in the category's results at the given granularity, how evenly
// is it served across locations? Domains are returned sorted by Spread
// descending (the most location-biased first), restricted to domains with
// MeanPresence >= minPresence to suppress one-off long-tail hosts.
func (d *Dataset) DomainBiasByLocation(granularity, category string, minPresence float64) []DomainBias {
	locs := d.locationsByGranularity[granularity]
	if len(locs) == 0 {
		return nil
	}
	// pages[loc] = number of pages; hits[domain][loc] = pages containing it.
	pages := map[string]int{}
	hits := map[string]map[string]int{}
	d.eachSlot(granularity, category, func(_ string, _ int, loc string, p *pair) {
		if p.treatment == nil {
			return
		}
		pages[loc]++
		seen := map[string]bool{}
		for _, link := range p.treatment.Links() {
			dom := domainOf(link)
			if dom == "" || seen[dom] {
				continue
			}
			seen[dom] = true
			if hits[dom] == nil {
				hits[dom] = map[string]int{}
			}
			hits[dom][loc]++
		}
	})

	var out []DomainBias
	for dom, byLoc := range hits {
		var presences []float64
		var topLoc string
		topP := -1.0
		for _, loc := range locs {
			if pages[loc] == 0 {
				continue
			}
			p := float64(byLoc[loc]) / float64(pages[loc])
			presences = append(presences, p)
			if p > topP {
				topP, topLoc = p, loc
			}
		}
		if len(presences) == 0 {
			continue
		}
		mean := stats.Mean(presences)
		if mean < minPresence {
			continue
		}
		out = append(out, DomainBias{
			Domain:       dom,
			MeanPresence: mean,
			Spread:       stats.Max(presences) - stats.Min(presences),
			TopLocation:  topLoc,
			TopPresence:  topP,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Spread != out[j].Spread {
			return out[i].Spread > out[j].Spread
		}
		return out[i].Domain < out[j].Domain
	})
	return out
}

// DecayBin is one distance bucket of the personalization-vs-distance
// curve.
type DecayBin struct {
	// LoKm and HiKm bound the bucket (geometric bins).
	LoKm, HiKm float64
	// Edit summarizes the pairwise edit distances in the bucket.
	Edit stats.Summary
	// Jaccard summarizes the pairwise Jaccard indices.
	Jaccard stats.Summary
}

// DistanceDecay answers "at what distance do users begin to see changes?"
// continuously: every unordered location pair (across ALL granularities)
// is binned by physical distance, and each bin summarized. Bins are
// geometric from 1 km; the fit is edit-distance against log10(distance).
func (d *Dataset) DistanceDecay(locs *geo.Dataset, category string) ([]DecayBin, stats.Linear) {
	type sample struct {
		km      float64
		edit    float64
		jaccard float64
	}
	var samples []sample
	// One Comparer per (granularity, term, day): each treatment page is
	// prepared once, then compared with every other location's.
	var c metrics.Comparer
	var pages []*metrics.PageLinks
	var at []geo.Point
	for _, g := range d.orderedGranularities() {
		ids := d.locationsByGranularity[g]
		points := make([]*geo.Point, len(ids)) // nil where locs lacks the ID
		for i, id := range ids {
			if l, ok := locs.ByID(id); ok {
				points[i] = &l.Point
			}
		}
		for _, term := range d.termsByCategory[category] {
			for _, day := range d.days {
				c.Reset()
				pages, at = pages[:0], at[:0]
				for i, id := range ids {
					if p, ok := d.lookup(g, term, day, id); ok && p.treatment != nil && points[i] != nil {
						pages = append(pages, c.Prepare(p.treatment))
						at = append(at, *points[i])
					}
				}
				for i := range pages {
					for j := i + 1; j < len(pages); j++ {
						cmp := c.Compare(pages[i], pages[j])
						samples = append(samples, sample{
							km:      geo.DistanceKm(at[i], at[j]),
							edit:    float64(cmp.EditDistance),
							jaccard: cmp.Jaccard,
						})
					}
				}
			}
		}
	}
	if len(samples) == 0 {
		return nil, stats.Linear{}
	}

	// Geometric bins: [1,2), [2,4), ... covering the observed range.
	maxKm := 1.0
	for _, s := range samples {
		if s.km > maxKm {
			maxKm = s.km
		}
	}
	nBins := int(math.Ceil(math.Log2(maxKm))) + 1
	type acc struct{ edit, jacc []float64 }
	accs := make([]acc, nBins)
	for _, s := range samples {
		km := s.km
		if km < 1 {
			km = 1
		}
		bin := int(math.Floor(math.Log2(km)))
		if bin >= nBins {
			bin = nBins - 1
		}
		accs[bin].edit = append(accs[bin].edit, s.edit)
		accs[bin].jacc = append(accs[bin].jacc, s.jaccard)
	}
	var bins []DecayBin
	for i, a := range accs {
		if len(a.edit) == 0 {
			continue
		}
		bins = append(bins, DecayBin{
			LoKm:    math.Pow(2, float64(i)),
			HiKm:    math.Pow(2, float64(i+1)),
			Edit:    stats.Summarize(a.edit),
			Jaccard: stats.Summarize(a.jacc),
		})
	}

	xs := make([]float64, len(samples))
	ys := make([]float64, len(samples))
	for i, s := range samples {
		km := s.km
		if km < 1 {
			km = 1
		}
		xs[i] = math.Log10(km)
		ys[i] = s.edit
	}
	return bins, stats.LinearFit(xs, ys)
}
