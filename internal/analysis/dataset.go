// Package analysis turns raw crawl observations into the paper's tables
// and figures: noise estimation from treatment/control pairs (§3.1),
// personalization from cross-location comparisons (§3.2), per-card-type
// attribution, day-by-day consistency, the GPS-vs-IP validation metric,
// and the demographics correlation study.
package analysis

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"geoserp/internal/serp"
	"geoserp/internal/storage"
)

// obsKey identifies one measurement slot: a term queried at a location on
// a day within one granularity sweep.
type obsKey struct {
	granularity string
	term        string
	day         int
	location    string
}

// pair holds the simultaneous treatment and control pages for a slot.
type pair struct {
	treatment *serp.Page
	control   *serp.Page
}

// Dataset indexes a crawl's observations for analysis. NewDataset replays
// the crawl's sweeps through a Stream, and Figures 2–8, the scorecard, the
// location-similarity matrix, the demographics study and the politician
// noise floors and common-name means are reads of it: each page pair is
// compared once, at ingest. The page index (pairs) serves the analyses no
// integer fold reproduces:
//   - DomainBiasByLocation parses every link's URL; as a fold it would put
//     a url.Parse per link on the crawl path;
//   - DistanceDecay reports medians and a least-squares fit over per-pair
//     floats;
//   - ReorderingVsComposition summarizes Kendall τ and RBO with medians;
//   - PoliticianScopeBreakdown's Edit and Jaccard summaries carry medians.
type Dataset struct {
	pairs  map[obsKey]*pair
	stream *Stream
	// granularities, categories, days enumerate the distinct values
	// present, sorted.
	granularities []string
	categories    []string
	days          []int
	// termsByCategory maps category → sorted terms.
	termsByCategory map[string][]string
	// locationsByGranularity maps granularity → sorted location IDs.
	locationsByGranularity map[string][]string
}

// NewDataset indexes observations and replays them, sweep by sweep,
// through a Stream. Both roles must be present for a slot to participate
// in noise estimation; treatment-only slots still join the
// personalization comparisons. Failed observations (fail-soft crawls
// record them instead of aborting) carry no page and are skipped; Failed()
// reports how many were dropped.
func NewDataset(obs []storage.Observation) (*Dataset, error) {
	d := &Dataset{
		pairs:                  make(map[obsKey]*pair, len(obs)/2),
		stream:                 NewStream(),
		termsByCategory:        make(map[string][]string),
		locationsByGranularity: make(map[string][]string),
	}
	for i := range obs {
		o := &obs[i]
		if err := o.Validate(); err != nil {
			return nil, fmt.Errorf("analysis: observation %d: %w", i, err)
		}
		if o.Failed {
			continue
		}
		k := obsKey{o.Granularity, o.Term, o.Day, o.LocationID}
		p := d.pairs[k]
		if p == nil {
			p = &pair{}
			d.pairs[k] = p
		}
		switch o.Role {
		case storage.Treatment:
			if p.treatment != nil {
				return nil, fmt.Errorf("analysis: duplicate treatment for %+v", k)
			}
			p.treatment = o.Page
		case storage.Control:
			if p.control != nil {
				return nil, fmt.Errorf("analysis: duplicate control for %+v", k)
			}
			p.control = o.Page
		}
	}
	for _, sweep := range sweepsOf(obs) {
		if err := d.stream.IngestSweep(time.Time{}, sweep); err != nil {
			return nil, err
		}
	}

	s := d.stream
	d.granularities = sortedKeys(s.granularities)
	d.categories = sortedKeys(s.categories)
	d.days = s.sortedDays()
	for cat, ts := range s.terms {
		d.termsByCategory[cat] = sortedKeys(ts)
	}
	for g, ls := range s.locs {
		d.locationsByGranularity[g] = sortedKeys(ls)
	}
	return d, nil
}

// sweepsOf groups observations into lock-step sweeps, one per (category,
// granularity, term, day) with its failed observations kept in it, sorted
// by that key. It is the one order a Dataset replays a campaign in: every
// figure cell then receives its samples term by term and day by day.
func sweepsOf(obs []storage.Observation) [][]storage.Observation {
	type key struct {
		category, granularity, term string
		day                         int
	}
	groups := map[key][]storage.Observation{}
	for _, o := range obs {
		k := key{o.Category, o.Granularity, o.Term, o.Day}
		groups[k] = append(groups[k], o)
	}
	keys := make([]key, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b key) int {
		return cmp.Or(strings.Compare(a.category, b.category), strings.Compare(a.granularity, b.granularity),
			strings.Compare(a.term, b.term), cmp.Compare(a.day, b.day))
	})
	out := make([][]storage.Observation, len(keys))
	for i, k := range keys {
		out[i] = groups[k]
	}
	return out
}

// sortedKeys returns a string-keyed map's keys, sorted.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Granularities returns the granularity labels present, sorted.
func (d *Dataset) Granularities() []string { return d.granularities }

// Categories returns the category labels present, sorted.
func (d *Dataset) Categories() []string { return d.categories }

// Days returns the campaign days present, sorted.
func (d *Dataset) Days() []int { return d.days }

// Terms returns the terms of a category, sorted.
func (d *Dataset) Terms(category string) []string { return d.termsByCategory[category] }

// Locations returns the location IDs of a granularity, sorted.
func (d *Dataset) Locations(granularity string) []string {
	return d.locationsByGranularity[granularity]
}

// Pairs returns the number of indexed slots.
func (d *Dataset) Pairs() int { return len(d.pairs) }

// Failed returns the number of failed observations dropped at indexing.
func (d *Dataset) Failed() int { return d.stream.Failed() }

// lookup returns the slot for a key, if present.
func (d *Dataset) lookup(g, term string, day int, loc string) (*pair, bool) {
	p, ok := d.pairs[obsKey{g, term, day, loc}]
	return p, ok
}

// eachSlot iterates slots matching granularity and (optional) category,
// in deterministic order.
func (d *Dataset) eachSlot(g, category string, fn func(term string, day int, loc string, p *pair)) {
	for _, cat := range d.categories {
		if category != "" && cat != category {
			continue
		}
		for _, term := range d.termsByCategory[cat] {
			for _, day := range d.days {
				for _, loc := range d.locationsByGranularity[g] {
					if p, ok := d.lookup(g, term, day, loc); ok {
						fn(term, day, loc, p)
					}
				}
			}
		}
	}
}
