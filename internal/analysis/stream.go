package analysis

import (
	"fmt"
	"sort"
	"time"

	"geoserp/internal/metrics"
	"geoserp/internal/stats"
	"geoserp/internal/storage"
	"geoserp/internal/telemetry"
)

// Stream folds completed lock-step sweeps into per-scope running
// aggregates, and it is the one implementation of the scorecard figures
// (2, 5, 6, 7 and 8): the crawler feeds it live as a campaign executes,
// and NewDataset replays a stored campaign through it. It never holds a
// page past the sweep that carried it.
//
// Every scorecard claim reads only edit-distance means, and edit distances
// are small integers, so the stream keeps integer sums whose float64 means
// do not depend on ingestion order: a live campaign and a replay of its
// observations agree exactly. Jaccard statistics and standard deviations
// are folded through Welford accumulators (stats.Accumulator); they are
// display statistics, not scorecard inputs.
//
// Figure 8 has one rule. Ingestion folds, per (granularity, category,
// day), each location's treatment-vs-control edit sum and each location
// pair's treatment edit sum; ConsistencyOverTime picks the baseline when it
// is called — the first location, in sorted order, with any successful
// observation — and reads that location's sums. Every sum is independent
// of ingestion order, so the rule holds even when vantages fail.
//
// Memory is bounded by the campaign's grid, not by its observations: the
// largest state is the Figure 8 pair sums, granularities × categories ×
// days × vantage pairs (about 8.5k counters for the study: 3 granularities
// × 3 categories × 5 days × 567 pairs of its 15/22/22 vantages); the
// per-term cells add granularities × categories × terms, and drift
// tracking at most one event per sweep.
//
// A sweep's pages are compared through one metrics.Comparer. Ingest
// prepares each successful page once (its link lists, every URL interned
// as a small ID) and then compares every noise and treatment pair over
// those lists without allocating, so it allocates per page, not per pair.
// The intern table is reset at the start of every sweep and so holds at
// most one sweep's distinct URLs: 44 pages of at most 22 links for the
// study grid.
//
// Stream is not internally synchronized: IngestSweep and the read methods
// must be externally serialized (the statz handler wraps it in a mutex;
// the crawler feeds it from the single scheduling goroutine).
type Stream struct {
	driftThreshold float64
	reg            *telemetry.Registry
	spans          *telemetry.SpanRecorder
	inst           *streamInstruments

	// Seen-value sets: only successful observations register. They are
	// the enumerations a Dataset reports.
	granularities map[string]bool
	categories    map[string]bool
	days          map[int]bool
	terms         map[string]map[string]bool
	locs          map[string]map[string]bool

	sweeps       int
	observations int
	failed       int
	shed         int
	pairs        uint64

	noise     map[scopeKey]*editAgg
	pers      map[scopeKey]*editAgg
	persTerm  map[streamTermKey]*editAgg
	breakdown map[scopeKey]*breakdownAgg
	// consNoise and consPair are the Figure 8 sums: per location, its
	// treatment-vs-control edit distance; per location pair (sorted), the
	// edit distance between their treatments.
	consNoise map[streamLocDayKey]*intAgg
	consPair  map[streamPairDayKey]*intAgg

	anchor map[scopeKey]float64
	drift  []DriftEvent

	// cmp prepares each page of the sweep being ingested once and compares
	// its pairs; IngestSweep resets its intern table per sweep.
	cmp metrics.Comparer
}

// scopeKey addresses one (granularity, category) aggregation cell.
type scopeKey struct {
	granularity string
	category    string
}

type streamTermKey struct {
	granularity string
	category    string
	term        string
}

type streamLocDayKey struct {
	granularity string
	category    string
	day         int
	location    string
}

type streamPairDayKey struct {
	granularity string
	category    string
	day         int
	a, b        string
}

// editAgg folds one scope's pairwise comparisons: an exact integer
// edit-distance sum (the scorecard's input), Welford accumulators for the
// display statistics, and the rank-delta counters (how many pairs were
// identical, merely reordered, or content-changed).
type editAgg struct {
	n         int
	editSum   uint64
	edit      stats.Accumulator
	jaccard   stats.Accumulator
	identical uint64
	reordered uint64
	changed   uint64
}

func (a *editAgg) add(cmp metrics.Comparison) {
	a.n++
	a.editSum += uint64(cmp.EditDistance)
	a.edit.Add(float64(cmp.EditDistance))
	a.jaccard.Add(cmp.Jaccard)
	switch {
	case cmp.EditDistance == 0:
		a.identical++
	case cmp.Jaccard == 1:
		a.reordered++
	default:
		a.changed++
	}
}

// mean is the exact edit-distance mean: a float64 quotient of an integer
// sum, so it does not depend on the order the samples arrived in.
func (a *editAgg) mean() float64 {
	if a == nil || a.n == 0 {
		return 0
	}
	return float64(a.editSum) / float64(a.n)
}

// editSummary renders the aggregate as a stats.Summary. Mean (and hence
// Median, which the online form approximates by the mean) is the exact
// integer-sum mean; StdDev comes from the Welford accumulator.
func (a *editAgg) editSummary() stats.Summary {
	s := a.edit.Summary()
	s.Mean = a.mean()
	s.Median = s.Mean
	return s
}

// breakdownAgg folds BreakdownPages results with integer sums, keeping
// the Figure 7 card-type means exact.
type breakdownAgg struct {
	n     int
	all   uint64
	maps  uint64
	news  uint64
	other uint64
}

// intAgg is an exact running mean over integer samples.
type intAgg struct {
	n   int
	sum uint64
}

func (a *intAgg) add(v int) {
	a.n++
	a.sum += uint64(v)
}

func (a *intAgg) mean() float64 {
	if a == nil || a.n == 0 {
		return 0
	}
	return float64(a.sum) / float64(a.n)
}

// DriftEvent records one sweep-over-sweep drift detection: a scope's
// running personalization mean moved beyond the configured threshold
// since its last anchor.
type DriftEvent struct {
	Granularity string `json:"granularity"`
	Category    string `json:"category"`
	// Sweep is the 0-based campaign sweep index that moved the mean.
	Sweep int `json:"sweep"`
	// At is the campaign-clock instant of the sweep's lock-step slot
	// (never wall time, and never the completion instant — the slot
	// schedule is absolute, so same-seed campaigns drift identically).
	At   time.Time `json:"at"`
	From float64   `json:"from"`
	To   float64   `json:"to"`
}

// StreamOption configures a Stream.
type StreamOption func(*Stream)

// WithDriftThreshold arms the drift tracker: after each sweep, any scope
// whose running personalization edit mean moved more than t away from its
// last anchor records a DriftEvent (plus a metric and a span). 0 disables
// tracking.
func WithDriftThreshold(t float64) StreamOption {
	return func(s *Stream) { s.driftThreshold = t }
}

// WithStreamTelemetry makes the stream report through reg (sweep, pair,
// and drift counters). A nil reg is ignored; a stream without one lazily
// creates its own private registry.
func WithStreamTelemetry(reg *telemetry.Registry) StreamOption {
	return func(s *Stream) {
		if reg != nil {
			s.reg = reg
		}
	}
}

// WithStreamSpans makes drift detections record a "stream.drift" span on
// rec. A nil rec is ignored (no spans).
func WithStreamSpans(rec *telemetry.SpanRecorder) StreamOption {
	return func(s *Stream) {
		if rec != nil {
			s.spans = rec
		}
	}
}

// NewStream builds an empty streaming aggregator.
func NewStream(opts ...StreamOption) *Stream {
	s := &Stream{
		granularities: map[string]bool{},
		categories:    map[string]bool{},
		days:          map[int]bool{},
		terms:         map[string]map[string]bool{},
		locs:          map[string]map[string]bool{},
		noise:         map[scopeKey]*editAgg{},
		pers:          map[scopeKey]*editAgg{},
		persTerm:      map[streamTermKey]*editAgg{},
		breakdown:     map[scopeKey]*breakdownAgg{},
		consNoise:     map[streamLocDayKey]*intAgg{},
		consPair:      map[streamPairDayKey]*intAgg{},
		anchor:        map[scopeKey]float64{},
		drift:         []DriftEvent{},
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// streamInstruments are the stream's registered metrics.
type streamInstruments struct {
	sweeps  *telemetry.Counter    // stream_sweeps_ingested_total
	obs     *telemetry.Counter    // stream_observations_ingested_total
	failed  *telemetry.Counter    // stream_failed_observations_total
	pairs   *telemetry.Counter    // stream_pairs_compared_total
	driftEv *telemetry.CounterVec // stream_drift_events_total{scope}
}

func (s *Stream) instruments() *streamInstruments {
	if s.inst == nil {
		if s.reg == nil {
			s.reg = telemetry.NewRegistry()
		}
		s.inst = &streamInstruments{
			sweeps: s.reg.Counter("stream_sweeps_ingested_total", "Completed term sweeps folded into the streaming aggregator."),
			obs:    s.reg.Counter("stream_observations_ingested_total", "Observations folded into the streaming aggregator."),
			failed: s.reg.Counter("stream_failed_observations_total", "Failed observations skipped by the streaming aggregator."),
			pairs:  s.reg.Counter("stream_pairs_compared_total", "Cross-location page pairs compared by the streaming aggregator."),
			driftEv: s.reg.CounterVec("stream_drift_events_total",
				"Scope running means that moved beyond the drift threshold, by granularity/category scope.", "scope"),
		}
	}
	return s.inst
}

// IngestSweep folds one completed lock-step sweep — every vantage's
// treatment and control for a single (granularity, term, day) — into the
// running aggregates. at is the campaign-clock instant the sweep
// completed; it only stamps drift events.
//
// Observation order within the sweep does not matter: the fold
// canonicalizes to sorted-location order internally, so fetch-arrival
// nondeterminism cannot leak into the aggregates.
func (s *Stream) IngestSweep(at time.Time, obs []storage.Observation) error {
	if len(obs) == 0 {
		return fmt.Errorf("analysis: stream: empty sweep")
	}
	g, term, day, cat := obs[0].Granularity, obs[0].Term, obs[0].Day, obs[0].Category

	s.cmp.Reset()
	type slot struct {
		treatment *metrics.PageLinks
		control   *metrics.PageLinks
	}
	slots := map[string]*slot{}
	for i := range obs {
		o := &obs[i]
		if err := o.Validate(); err != nil {
			return fmt.Errorf("analysis: stream: sweep observation %d: %w", i, err)
		}
		if o.Granularity != g || o.Term != term || o.Day != day || o.Category != cat {
			return fmt.Errorf("analysis: stream: sweep mixes (%s %s %q day %d) with (%s %s %q day %d)",
				g, cat, term, day, o.Granularity, o.Category, o.Term, o.Day)
		}
		if o.Failed {
			s.failed++
			if o.Shed {
				s.shed++
			}
			continue
		}
		sl := slots[o.LocationID]
		if sl == nil {
			sl = &slot{}
			slots[o.LocationID] = sl
		}
		switch o.Role {
		case storage.Treatment:
			if sl.treatment != nil {
				return fmt.Errorf("analysis: stream: duplicate treatment for %s %q day %d at %s", g, term, day, o.LocationID)
			}
			sl.treatment = s.cmp.Prepare(o.Page)
		case storage.Control:
			if sl.control != nil {
				return fmt.Errorf("analysis: stream: duplicate control for %s %q day %d at %s", g, term, day, o.LocationID)
			}
			sl.control = s.cmp.Prepare(o.Page)
		}
		s.granularities[g] = true
		s.categories[cat] = true
		s.days[day] = true
		if s.terms[cat] == nil {
			s.terms[cat] = map[string]bool{}
		}
		s.terms[cat][term] = true
		if s.locs[g] == nil {
			s.locs[g] = map[string]bool{}
		}
		s.locs[g][o.LocationID] = true
	}
	s.observations += len(obs)
	sweep := s.sweeps
	s.sweeps++

	sk := scopeKey{g, cat}
	var withTreatment []string
	var treatments []*metrics.PageLinks
	for _, loc := range sortedKeys(slots) {
		sl := slots[loc]
		if sl.treatment != nil {
			withTreatment = append(withTreatment, loc)
			treatments = append(treatments, sl.treatment)
		}
		if sl.treatment != nil && sl.control != nil {
			cmp := s.cmp.Compare(sl.treatment, sl.control)
			getOrNew(s.noise, sk).add(cmp)
			getOrNew(s.consNoise, streamLocDayKey{g, cat, day, loc}).add(cmp.EditDistance)
		}
	}
	if len(treatments) > 1 {
		pers, persTerm, b := getOrNew(s.pers, sk), getOrNew(s.persTerm, streamTermKey{g, cat, term}), getOrNew(s.breakdown, sk)
		for i := 0; i < len(treatments); i++ {
			for j := i + 1; j < len(treatments); j++ {
				cmp, bd := s.cmp.CompareWithBreakdown(treatments[i], treatments[j])
				pers.add(cmp)
				persTerm.add(cmp)
				b.n++
				b.all += uint64(bd.All)
				b.maps += uint64(bd.Maps)
				b.news += uint64(bd.News)
				b.other += uint64(bd.Other)
				getOrNew(s.consPair, streamPairDayKey{g, cat, day, withTreatment[i], withTreatment[j]}).add(cmp.EditDistance)
				s.pairs++
			}
		}
	}

	s.trackDrift(sk, sweep, at)

	inst := s.instruments()
	inst.sweeps.Inc()
	inst.obs.Add(uint64(len(obs)))
	for i := range obs {
		if obs[i].Failed {
			inst.failed.Inc()
		}
	}
	inst.pairs.Add(uint64(len(withTreatment)) * uint64(len(withTreatment)-1) / 2)
	return nil
}

// getOrNew returns m[k], allocating a zero value on first touch.
func getOrNew[K comparable, V any](m map[K]*V, k K) *V {
	v := m[k]
	if v == nil {
		v = new(V)
		m[k] = v
	}
	return v
}

// trackDrift compares the touched scope's running personalization mean
// against its last anchor and records a drift event — list entry, metric,
// and span — when it moved beyond the threshold.
func (s *Stream) trackDrift(sk scopeKey, sweep int, at time.Time) {
	if s.driftThreshold <= 0 {
		return
	}
	a := s.pers[sk]
	if a == nil || a.n == 0 {
		return
	}
	m := a.mean()
	anchor, ok := s.anchor[sk]
	if !ok {
		s.anchor[sk] = m
		return
	}
	if diff := m - anchor; diff <= s.driftThreshold && -diff <= s.driftThreshold {
		return
	}
	s.anchor[sk] = m
	s.drift = append(s.drift, DriftEvent{
		Granularity: sk.granularity,
		Category:    sk.category,
		Sweep:       sweep,
		At:          at,
		From:        anchor,
		To:          m,
	})
	s.instruments().driftEv.With(sk.granularity + "/" + sk.category).Inc()
	if s.spans != nil {
		sp := s.spans.StartRoot(
			telemetry.MintTraceID(0, "stream", "drift", sk.granularity, sk.category, fmt.Sprint(sweep)),
			"stream.drift")
		sp.SetAttr("granularity", sk.granularity)
		sp.SetAttr("category", sk.category)
		sp.SetAttr("sweep", fmt.Sprint(sweep))
		sp.SetAttr("from", fmt.Sprintf("%.4f", anchor))
		sp.SetAttr("to", fmt.Sprintf("%.4f", m))
		sp.End()
	}
}

// Sweeps returns the number of sweeps ingested.
func (s *Stream) Sweeps() int { return s.sweeps }

// Observations returns the number of observations ingested, failed ones
// included.
func (s *Stream) Observations() int { return s.observations }

// Failed returns the number of failed observations skipped, mirroring
// Dataset.Failed.
func (s *Stream) Failed() int { return s.failed }

// Shed returns how many of the failed observations were server sheds.
func (s *Stream) Shed() int { return s.shed }

// PairsCompared returns the number of cross-location page pairs folded.
func (s *Stream) PairsCompared() uint64 { return s.pairs }

// Drift returns the recorded drift events, oldest first.
func (s *Stream) Drift() []DriftEvent {
	return append([]DriftEvent{}, s.drift...)
}

func (s *Stream) sortedDays() []int {
	days := make([]int, 0, len(s.days))
	for d := range s.days {
		days = append(days, d)
	}
	sort.Ints(days)
	return days
}

func (s *Stream) orderedGranularities() []string {
	return orderWith(GranularityOrder, sortedKeys(s.granularities))
}

func (s *Stream) orderedCategories() []string {
	return orderWith(CategoryOrder, sortedKeys(s.categories))
}

// NoiseByGranularity is Figure 2: one cell per (granularity, category)
// with at least one treatment/control pair. Edit means are exact; Jaccard
// statistics and standard deviations are Welford running values.
func (s *Stream) NoiseByGranularity() []NoiseCell {
	var out []NoiseCell
	for _, g := range s.orderedGranularities() {
		for _, cat := range s.orderedCategories() {
			a := s.noise[scopeKey{g, cat}]
			if a == nil || a.n == 0 {
				continue
			}
			out = append(out, NoiseCell{
				Granularity: g,
				Category:    cat,
				Jaccard:     a.jaccard.Summary(),
				Edit:        a.editSummary(),
			})
		}
	}
	return out
}

// PersonalizationByGranularity is Figure 5, with each cell's Figure 2
// noise floor attached.
func (s *Stream) PersonalizationByGranularity() []PersonalizationCell {
	var out []PersonalizationCell
	for _, g := range s.orderedGranularities() {
		for _, cat := range s.orderedCategories() {
			sk := scopeKey{g, cat}
			a := s.pers[sk]
			if a == nil || a.n == 0 {
				continue
			}
			cell := PersonalizationCell{
				Granularity: g,
				Category:    cat,
				Jaccard:     a.jaccard.Summary(),
				Edit:        a.editSummary(),
			}
			if n := s.noise[sk]; n != nil && n.n > 0 {
				cell.NoiseJaccard = n.jaccard.Mean()
				cell.NoiseEdit = n.mean()
			}
			out = append(out, cell)
		}
	}
	return out
}

// PersonalizationPerTerm is Figure 6, sorted by the national-granularity
// values as the paper sorts its x-axis.
func (s *Stream) PersonalizationPerTerm(category string) []TermSeries {
	var out []TermSeries
	for _, term := range sortedKeys(s.terms[category]) {
		ts := TermSeries{
			Term:                 term,
			EditByGranularity:    map[string]float64{},
			JaccardByGranularity: map[string]float64{},
		}
		for _, g := range s.orderedGranularities() {
			if a := s.persTerm[streamTermKey{g, category, term}]; a != nil && a.n > 0 {
				ts.EditByGranularity[g] = a.mean()
				ts.JaccardByGranularity[g] = a.jaccard.Mean()
			}
		}
		out = append(out, ts)
	}
	sortTermSeries(out, "national")
	return out
}

// PersonalizationByResultType is Figure 7; the card-type means are exact
// integer-sum means.
func (s *Stream) PersonalizationByResultType() []BreakdownCell {
	var out []BreakdownCell
	for _, cat := range s.orderedCategories() {
		for _, g := range s.orderedGranularities() {
			b := s.breakdown[scopeKey{g, cat}]
			if b == nil || b.n == 0 {
				continue
			}
			n := float64(b.n)
			out = append(out, BreakdownCell{
				Category:    cat,
				Granularity: g,
				All:         float64(b.all) / n,
				Maps:        float64(b.maps) / n,
				News:        float64(b.news) / n,
				Other:       float64(b.other) / n,
			})
		}
	}
	return out
}

// ConsistencyOverTime is Figure 8. Each granularity's baseline is picked
// here, at read time: the first location, in sorted order, with any
// successful observation (see the type comment).
func (s *Stream) ConsistencyOverTime(category string) []ConsistencySeries {
	days := s.sortedDays()
	var out []ConsistencySeries
	for _, g := range s.orderedGranularities() {
		locs := sortedKeys(s.locs[g])
		if len(locs) < 2 {
			continue
		}
		baseline := locs[0]
		series := ConsistencySeries{
			Granularity: g,
			Baseline:    baseline,
			Days:        append([]int{}, days...),
			PerLocation: map[string][]float64{},
		}
		for _, day := range days {
			series.NoiseFloor = append(series.NoiseFloor, s.consNoise[streamLocDayKey{g, category, day, baseline}].mean())
			for _, loc := range locs[1:] {
				series.PerLocation[loc] = append(series.PerLocation[loc],
					s.consPair[streamPairDayKey{g, category, day, baseline, loc}].mean())
			}
		}
		out = append(out, series)
	}
	return out
}

// ScopeSummary is one row of the live scorecard's scope table: the
// running aggregates for a (granularity, category) cell.
type ScopeSummary struct {
	Granularity string `json:"granularity"`
	Category    string `json:"category"`
	// Noise statistics (treatment vs simultaneous control).
	NoisePairs       int     `json:"noise_pairs"`
	NoiseEditMean    float64 `json:"noise_edit_mean"`
	NoiseJaccardMean float64 `json:"noise_jaccard_mean"`
	// Personalization statistics (cross-location treatment pairs).
	PersonalizationPairs       int     `json:"personalization_pairs"`
	PersonalizationEditMean    float64 `json:"personalization_edit_mean"`
	PersonalizationEditStdDev  float64 `json:"personalization_edit_stddev"`
	PersonalizationJaccardMean float64 `json:"personalization_jaccard_mean"`
	// Rank-delta counters over the personalization pairs.
	IdenticalPairs      uint64 `json:"identical_pairs"`
	ReorderedPairs      uint64 `json:"reordered_pairs"`
	ContentChangedPairs uint64 `json:"content_changed_pairs"`
}

// StreamSnapshot is the stream's full serializable state summary — the
// "stream" block of a /statz snapshot.
type StreamSnapshot struct {
	Sweeps        int            `json:"sweeps"`
	Observations  int            `json:"observations"`
	Failed        int            `json:"failed"`
	Shed          int            `json:"shed"`
	PairsCompared uint64         `json:"pairs_compared"`
	Scorecard     []Check        `json:"scorecard"`
	Scopes        []ScopeSummary `json:"scopes"`
	Drift         []DriftEvent   `json:"drift"`
}

// Snapshot summarizes the stream's current state. The output is a pure
// function of the ingested sweeps, so same-seed campaigns snapshot
// byte-identically at equivalent virtual times.
func (s *Stream) Snapshot() StreamSnapshot {
	snap := StreamSnapshot{
		Sweeps:        s.sweeps,
		Observations:  s.observations,
		Failed:        s.failed,
		Shed:          s.shed,
		PairsCompared: s.pairs,
		Scorecard:     s.Scorecard(),
		Scopes:        []ScopeSummary{},
		Drift:         s.Drift(),
	}
	if snap.Scorecard == nil {
		snap.Scorecard = []Check{}
	}
	for _, g := range s.orderedGranularities() {
		for _, cat := range s.orderedCategories() {
			sk := scopeKey{g, cat}
			n, p := s.noise[sk], s.pers[sk]
			if (n == nil || n.n == 0) && (p == nil || p.n == 0) {
				continue
			}
			row := ScopeSummary{Granularity: g, Category: cat}
			if n != nil && n.n > 0 {
				row.NoisePairs = n.n
				row.NoiseEditMean = n.mean()
				row.NoiseJaccardMean = n.jaccard.Mean()
			}
			if p != nil && p.n > 0 {
				row.PersonalizationPairs = p.n
				row.PersonalizationEditMean = p.mean()
				row.PersonalizationEditStdDev = p.edit.StdDev()
				row.PersonalizationJaccardMean = p.jaccard.Mean()
				row.IdenticalPairs = p.identical
				row.ReorderedPairs = p.reordered
				row.ContentChangedPairs = p.changed
			}
			snap.Scopes = append(snap.Scopes, row)
		}
	}
	return snap
}
