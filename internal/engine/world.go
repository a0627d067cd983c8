package engine

import (
	"strings"

	"geoserp/internal/geo"
	"geoserp/internal/index"
	"geoserp/internal/queries"
	"geoserp/internal/simclock"
	"geoserp/internal/telemetry"
	"geoserp/internal/webcorpus"
)

// This file is the engine's extension point: the paper notes its
// methodology "can easily be extended to other countries and search
// engines", and New's options make the synthetic target extensible the same
// way — callers supply their own query corpus, regional geography, and
// establishment taxonomy, and get a fully personalized engine over that
// world.

// RegionInfo anchors a content region (regional directories, local news
// outlets, namesake pages) to a centroid for reverse geocoding.
type RegionInfo struct {
	Region   webcorpus.Region
	Centroid geo.Point
}

// StudyRegions returns the paper's 22 US-state regions with their
// centroids.
func StudyRegions() []RegionInfo {
	byName := map[string]geo.Point{}
	for _, l := range geo.StudyDataset().At(geo.National) {
		byName[strings.TrimPrefix(l.ID, "state/")] = l.Point
	}
	regions := webcorpus.DefaultRegions()
	out := make([]RegionInfo, 0, len(regions))
	for _, r := range regions {
		out = append(out, RegionInfo{Region: r, Centroid: byName[r.Slug]})
	}
	return out
}

// Option customizes the world New builds.
type Option func(*worldSpec)

type worldSpec struct {
	corpus     *queries.Corpus
	regions    []RegionInfo
	placeKinds []webcorpus.PlaceKind
	tel        *telemetry.Registry
	retriever  Retriever
}

// WithCorpus substitutes the query corpus (and therefore the static web
// generated for it).
func WithCorpus(c *queries.Corpus) Option {
	return func(w *worldSpec) { w.corpus = c }
}

// WithRegions substitutes the regional geography.
func WithRegions(rs []RegionInfo) Option {
	return func(w *worldSpec) { w.regions = rs }
}

// WithPlaceKinds substitutes the establishment taxonomy backing local
// queries (keys must match local queries' IDs for them to draw places).
func WithPlaceKinds(ks []webcorpus.PlaceKind) Option {
	return func(w *worldSpec) { w.placeKinds = ks }
}

// WithTelemetry registers the engine's metrics on an existing registry so
// one /metricsz endpoint can expose the engine and its HTTP front end
// together. Without it the engine creates a private registry.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(w *worldSpec) { w.tel = reg }
}

// WithRetriever substitutes the web-vertical retrieval backend — the
// cluster router passes its scatter-gather client here, turning the
// engine into the coordinator of a multi-node SERP cluster. A coordinator
// builds neither the static web nor its inverted index (the shards hold
// the postings); Places, News, and all personalization layers stay local.
func WithRetriever(r Retriever) Option {
	return func(w *worldSpec) { w.retriever = r }
}

// New builds an engine over the study's world — the 240-query web, the
// Places grid of the 33 study place kinds, the news wire and the 22 state
// regions — or over the caller-defined parts its options substitute. The
// epoch (day 0) is the clock's time at construction.
func New(cfg Config, clock simclock.Clock, opts ...Option) *Engine {
	cfg.validate()
	spec := &worldSpec{
		corpus:     queries.StudyCorpus(),
		regions:    StudyRegions(),
		placeKinds: webcorpus.DefaultPlaceKinds(),
	}
	for _, o := range opts {
		o(spec)
	}

	regions := make([]webcorpus.Region, len(spec.regions))
	for i, ri := range spec.regions {
		regions[i] = ri.Region
	}

	dcNames := make([]string, cfg.Datacenters)
	for i := range dcNames {
		dcNames[i] = dcName(i)
	}

	tel := spec.tel
	if tel == nil {
		tel = telemetry.NewRegistry()
	}

	retriever := spec.retriever
	if retriever == nil {
		web := webcorpus.NewWeb(cfg.Seed, spec.corpus, regions)
		retriever = localRetriever{idx: index.BuildFromWeb(web)}
	}

	return &Engine{
		cfg:       cfg,
		clock:     clock,
		wall:      simclock.Wall(),
		epoch:     clock.Now(),
		corpus:    spec.corpus,
		places:    webcorpus.NewPlacesCustom(cfg.Seed, spec.placeKinds),
		news:      webcorpus.NewNewsWire(cfg.Seed, regions),
		retriever: retriever,
		regions:   spec.regions,
		history:   newHistoryStore(cfg.HistoryWindow),
		limiter:   newRateLimiter(cfg.RateBurst, cfg.RatePerMinute),
		ipgeo:     newIPGeolocator(cfg.Seed, cfg.IPGeoErrorKm),
		dcNames:   dcNames,
		tel:       tel,
		inst:      newInstruments(tel, dcNames),
	}
}
