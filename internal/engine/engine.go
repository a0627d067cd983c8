// Package engine implements the synthetic personalized search engine that
// stands in for Google Search in this reproduction. It assembles mobile
// result pages from three verticals (Web, Places, News), personalizes them
// on the request's GPS coordinate (falling back to IP geolocation),
// remembers per-session search history for ten minutes, rate-limits client
// IPs, and serves from several datacenter replicas with slight ranking
// skew. Its noise model — A/B buckets plus per-request score jitter — is
// calibrated so that the paper's measurement pipeline reproduces the
// shapes of every figure (see DESIGN.md).
package engine

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"geoserp/internal/detrand"
	"geoserp/internal/geo"
	"geoserp/internal/queries"
	"geoserp/internal/serp"
	"geoserp/internal/simclock"
	"geoserp/internal/telemetry"
	"geoserp/internal/webcorpus"
)

// ErrRateLimited is returned when a client IP exceeds its request budget.
var ErrRateLimited = errors.New("engine: rate limited")

// ErrEmptyQuery is returned for blank queries.
var ErrEmptyQuery = errors.New("engine: empty query")

// ErrDeadlineExceeded is returned when a request's propagated deadline
// (Request.Deadline, from the client's X-Deadline-Ms header) passes before
// the page is assembled. The engine checks between ranking stages so
// doomed work is abandoned mid-flight instead of finishing a page the
// client has already given up on.
var ErrDeadlineExceeded = errors.New("engine: request deadline exceeded")

// Request is one search request as the engine sees it.
type Request struct {
	// Query is the search term.
	Query string
	// GPS is the coordinate reported by the client's Geolocation API,
	// or nil when the client did not grant one. GPS takes priority over
	// IP geolocation (§2.2 validation).
	GPS *geo.Point
	// ClientIP is the request's source address (rate limiting, IP
	// geolocation fallback, datacenter routing).
	ClientIP string
	// SessionID identifies the cookie session ("" = cookieless). Search
	// history personalization applies within a session for ten minutes.
	SessionID string
	// Datacenter pins the request to a named replica, emulating the
	// study's static DNS mapping; "" routes by client IP hash.
	Datacenter string
	// UserAgent is recorded but — matching the paper's finding that
	// browser/OS do not trigger personalization — never affects results.
	UserAgent string
	// TraceID is the client-supplied X-Trace-Id ("" = untraced). When set
	// it keys the request's noise draws, making traced campaigns
	// byte-for-byte reproducible regardless of arrival order; untraced
	// traffic falls back to an arrival-order sequence number.
	TraceID string
	// Span, when non-nil, is the caller's server span; Search hangs one
	// child span per ranking stage off it (parse, noise, history,
	// retrieve, rerank, assemble) so a divergent card can be attributed to
	// the stage that produced it. A nil Span costs only nil checks.
	Span *telemetry.Span
	// Deadline, when non-zero, is the absolute instant (on the engine's
	// clock domain) by which the client needs the page. Search abandons
	// work between stages once it passes, returning ErrDeadlineExceeded.
	// The serpserver handler fills it from X-Deadline-Ms.
	Deadline time.Time
	// Wide, when non-nil, is the request's wide-event record: Search adds
	// one entry per ranking stage (hardware duration, same clock domain as
	// the stage histograms), and a distributed retriever appends its
	// per-shard legs. A nil Wide costs only nil checks.
	Wide *telemetry.WideEvent
}

// Response is a served page plus the serving metadata the study could not
// see but our tests can.
type Response struct {
	Page *serp.Page
	// Bucket is the A/B experiment bucket the request was assigned.
	Bucket int
	// Datacenter is the replica that served the request.
	Datacenter string
	// Location is the coordinate the engine personalized for.
	Location geo.Point
	// LocationSource is "gps" or "ip".
	LocationSource string
	// Partial reports that the web vertical was assembled from an
	// incomplete retrieval backend (some cluster shards unavailable); the
	// HTTP front end surfaces it as the X-Serp-Partial header.
	Partial bool
}

// queryClass is the engine's internal query-intent taxonomy.
type queryClass int

const (
	classGeneral queryClass = iota
	classLocalBrand
	classLocalGeneric
	classControversial
	classPolitician
)

// Engine is the synthetic search service. It is safe for concurrent use.
type Engine struct {
	cfg   Config
	clock simclock.Clock
	// wall times the stage histograms: they measure how long the hardware
	// actually took, independent of whatever virtual schedule clock is
	// simulating. Injected (rather than calling time.Now directly) so all
	// time flows through the simclock API — geoserplint enforces this.
	wall   simclock.Clock
	epoch  time.Time
	corpus *queries.Corpus
	places *webcorpus.Places
	news   *webcorpus.NewsWire
	// retriever answers the web vertical: the local inverted index by
	// default, a scatter-gather client over shard nodes in the cluster
	// router (WithRetriever).
	retriever Retriever
	// regions are the content regions in the caller's order, whose
	// centroids reverse-geocode the query coordinate.
	regions []RegionInfo
	history *historyStore
	limiter *rateLimiter
	ipgeo   *ipGeolocator
	dcNames []string
	// reqCount drives per-request randomness (bucket draw, jitter); it
	// stays an engine-internal atomic so observability can never perturb
	// the noise model.
	reqCount atomic.Uint64
	tel      *telemetry.Registry
	inst     instruments
}

// instruments are the engine's registered metrics, pre-resolved at
// construction so the Search hot path touches only atomics.
type instruments struct {
	served  *telemetry.Counter
	limited *telemetry.Counter
	// dcCounters are the engine_requests_total children, index-aligned
	// with dcNames.
	requestsByDC *telemetry.CounterVec
	dcCounters   []*telemetry.Counter
	ratelimitDur *telemetry.Histogram
	// stages holds the engine_stage_duration_seconds children and
	// stageSpans the engine.<name> span names, indexed like stageNames and
	// resolved once, so Search neither takes the vec's lock nor builds a
	// name.
	stages     [len(stageNames)]*telemetry.Histogram
	stageSpans [len(stageNames)]string
	// deadlineAbandoned counts requests abandoned mid-stage because their
	// propagated deadline passed (engine_deadline_abandoned_total).
	deadlineAbandoned *telemetry.Counter
	// retrievePartial counts pages assembled from an incomplete
	// retrieval backend (engine_retrieve_partial_total).
	retrievePartial *telemetry.Counter
}

// newInstruments registers the engine's metric families on reg.
func newInstruments(reg *telemetry.Registry, dcNames []string) instruments {
	inst := instruments{
		served:       reg.Counter("engine_served_total", "Pages served."),
		limited:      reg.Counter("engine_ratelimited_total", "Requests rejected by the per-IP rate limiter."),
		requestsByDC: reg.CounterVec("engine_requests_total", "Requests served, by datacenter replica.", "datacenter"),
		ratelimitDur: reg.Histogram("engine_ratelimit_check_duration_seconds", "Wall-clock time of the rate-limiter check.", nil),
		deadlineAbandoned: reg.Counter("engine_deadline_abandoned_total",
			"Requests abandoned between ranking stages because their propagated deadline passed."),
		retrievePartial: reg.Counter("engine_retrieve_partial_total",
			"Pages assembled from an incomplete retrieval backend (cluster shards unavailable)."),
	}
	inst.dcCounters = make([]*telemetry.Counter, len(dcNames))
	for i, name := range dcNames {
		inst.dcCounters[i] = inst.requestsByDC.With(name)
	}
	stages := reg.HistogramVec("engine_stage_duration_seconds",
		"Wall-clock time per ranking stage (matches the engine.* span names).", "stage", nil)
	for i, name := range stageNames {
		inst.stages[i] = stages.With(name)
		inst.stageSpans[i] = "engine." + name
	}
	return inst
}

// stageNames is the engine's one stage table: Search's ranking stages in
// the order it runs them. Each stage's engine.<name> span, its
// engine_stage_duration_seconds child and its search.wide entry take
// their name from here, through stageRecorder.
var stageNames = [...]string{"parse", "noise", "history", "retrieve", "rerank", "assemble"}

// stageRecorder records one request's stages in table order, under the
// request's span and wide event: it holds those two, not the Request,
// which then stays on Search's stack. Stage timers read e.wall, not
// e.clock: under virtual time the simulated clock measures campaign
// schedule, while the stage histograms measure how long the hardware
// actually took.
type stageRecorder struct {
	e      *Engine
	parent *telemetry.Span
	wide   *telemetry.WideEvent
	next   int // the stage begin starts
	span   *telemetry.Span
	start  time.Time
}

// begin starts the next stage's span and wall timer, and returns the span.
func (r *stageRecorder) begin() *telemetry.Span {
	r.span = r.parent.StartChild(r.e.inst.stageSpans[r.next])
	r.start = r.e.wall.Now()
	return r.span
}

// end records the open stage in each of its three forms.
func (r *stageRecorder) end() {
	d := r.e.wall.Now().Sub(r.start)
	r.e.inst.stages[r.next].Observe(d.Seconds())
	r.wide.Stage(stageNames[r.next], d)
	r.span.End()
	r.next++
}

// dcName returns the canonical replica name for index i.
func dcName(i int) string { return fmt.Sprintf("dc-%d", i) }

// Datacenters returns the replica names.
func (e *Engine) Datacenters() []string {
	out := make([]string, len(e.dcNames))
	copy(out, e.dcNames)
	return out
}

// Day returns the current simulation day (0-based from the epoch).
func (e *Engine) Day() int {
	return int(e.clock.Now().Sub(e.epoch) / (24 * time.Hour))
}

// Served returns how many pages the engine has served.
func (e *Engine) Served() uint64 { return e.inst.served.Value() }

// RateLimited returns how many requests were rejected by the limiter.
func (e *Engine) RateLimited() uint64 { return e.inst.limited.Value() }

// ServedByDatacenter returns per-replica serve counts.
func (e *Engine) ServedByDatacenter() map[string]uint64 {
	out := make(map[string]uint64, len(e.dcNames))
	for i, name := range e.dcNames {
		out[name] = e.inst.dcCounters[i].Value()
	}
	return out
}

// Telemetry returns the engine's metrics registry. The serpserver handler
// exposes it at /metricsz; callers wanting one registry across engine and
// HTTP front end pass theirs via WithTelemetry.
func (e *Engine) Telemetry() *telemetry.Registry { return e.tel }

// dcIndex returns the index of a replica name (-1 if unknown).
func (e *Engine) dcIndex(name string) int {
	for i, d := range e.dcNames {
		if d == name {
			return i
		}
	}
	return -1
}

// RegisterIPLocation pins an IP prefix to a known geolocation (emulating a
// geolocation database entry for, e.g., a PlanetLab site).
func (e *Engine) RegisterIPLocation(ip string, pt geo.Point) {
	e.ipgeo.register(ip, pt)
}

// classify maps a query term to its intent class and topic ID.
func (e *Engine) classify(term string) (queryClass, string) {
	if q, ok := e.corpus.ByTerm(term); ok {
		switch {
		case q.Category == queries.Local && q.Brand:
			return classLocalBrand, q.ID()
		case q.Category == queries.Local:
			return classLocalGeneric, q.ID()
		case q.Category == queries.Controversial:
			return classControversial, q.ID()
		default:
			return classPolitician, q.ID()
		}
	}
	// Unknown term: local intent if a place kind matches its slug.
	id := (queries.Query{Term: term}).ID()
	if k, ok := e.places.Kind(id); ok {
		if k.Brand {
			return classLocalBrand, id
		}
		return classLocalGeneric, id
	}
	return classGeneral, id
}

// region returns the slug of the region whose centroid is nearest to pt;
// of regions at the same distance, the first in the caller's order.
func (e *Engine) region(pt geo.Point) string {
	best := ""
	bestD := math.Inf(1)
	for _, r := range e.regions {
		if d := geo.DistanceKm(pt, r.Centroid); d < bestD {
			best, bestD = r.Region.Slug, d
		}
	}
	return best
}

// bucketParams are the per-A/B-bucket policy perturbations.
type bucketParams struct {
	placeMult float64
	mapsProb  float64
	mapsSize  int
	newsSize  int
}

func (e *Engine) bucket(i int, baseMapsProb float64) bucketParams {
	rng := detrand.NewKeyed(e.cfg.Seed, "bucket", strconv.Itoa(i))
	bp := bucketParams{
		placeMult: 1 + e.cfg.BucketWeightSpread*(2*rng.Float64()-1),
		mapsProb:  clamp01(baseMapsProb + rng.Range(-0.06, 0.06)),
		mapsSize:  e.cfg.MapsCardSize,
		newsSize:  e.cfg.NewsCardSize,
	}
	if rng.Bool(0.15) {
		bp.mapsSize++
	}
	if rng.Bool(0.10) && bp.newsSize > 2 {
		bp.newsSize--
	}
	return bp
}

// dcSkew returns the replica's ranking-weight multipliers.
func (e *Engine) dcSkew(dc string) (authMult, regionMult float64) {
	rng := detrand.NewKeyed(e.cfg.Seed, "dc", dc)
	s := e.cfg.ReplicaSkew
	return 1 + s*(2*rng.Float64()-1), 1 + s*(2*rng.Float64()-1)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// candidate is a scored organic-result candidate.
type candidate struct {
	res   serp.Result
	score float64
}

// Search executes a request and returns the served page.
func (e *Engine) Search(req Request) (*Response, error) {
	if strings.TrimSpace(req.Query) == "" {
		return nil, ErrEmptyQuery
	}
	now := e.clock.Now()
	rlStart := e.wall.Now()
	allowed := e.limiter.allow(req.ClientIP, now)
	e.inst.ratelimitDur.ObserveSince(rlStart)
	if !allowed {
		e.inst.limited.Inc()
		return nil, ErrRateLimited
	}
	// Deadline checks run between stages — never while a stage span is
	// open — so an abandoned request still leaves a well-formed timeline.
	if e.pastDeadline(req.Deadline) {
		return nil, ErrDeadlineExceeded
	}
	stages := stageRecorder{e: e, parent: req.Span, wide: req.Wide}

	// --- Stage: parse (replica routing, location resolution, intent) ---
	parseSpan := stages.begin()

	// Replica routing: pinned, or hashed from the client IP the way
	// anycast DNS would spread clients.
	dc := req.Datacenter
	if dc == "" || e.dcIndex(dc) < 0 {
		dc = e.dcNames[detrand.Hash(prefix24(req.ClientIP))%uint64(len(e.dcNames))]
	}

	// Location resolution: GPS beats IP.
	var loc geo.Point
	source := "ip"
	if req.GPS != nil && req.GPS.Valid() {
		loc, source = *req.GPS, "gps"
	} else {
		loc = e.ipgeo.locate(req.ClientIP)
	}
	qRegion := e.region(loc)
	day := e.Day()
	dayKey := strconv.Itoa(day) // keys the day's news presence and slot

	class, topic := e.classify(req.Query)
	parseSpan.SetAttr("datacenter", dc)
	parseSpan.SetAttr("location_source", source)
	parseSpan.SetAttr("region", qRegion)
	stages.end()
	if e.pastDeadline(req.Deadline) {
		return nil, ErrDeadlineExceeded
	}

	// --- Stage: noise ---
	// Per-request randomness: bucket assignment and score jitter. Two
	// simultaneous identical requests draw distinct keys — distinct trace
	// IDs when the client traces its traffic (treatment and control mint
	// different roles into theirs), distinct sequence numbers otherwise —
	// which is the engine-side noise the paper measures with
	// treatment/control pairs. Keying on the trace ID rather than the
	// arrival order makes traced campaigns reproducible: concurrent fetch
	// interleaving no longer feeds the noise model.
	noiseSpan := stages.begin()
	seqNo := e.reqCount.Add(1)
	noiseKey := req.TraceID
	if noiseKey == "" {
		noiseKey = strconv.FormatUint(seqNo, 10)
	}
	rrng := detrand.NewKeyed(e.cfg.Seed, "request", noiseKey)
	baseMapsProb, baseNewsProb := 0.0, 0.0
	switch class {
	case classLocalGeneric:
		baseMapsProb = e.cfg.MapsCardProb
	case classControversial:
		baseNewsProb = e.cfg.NewsCardProbControversial
	case classPolitician:
		baseNewsProb = e.cfg.NewsCardProbPolitician
	}
	bucketNo := rrng.Intn(e.cfg.Buckets)
	bp := e.bucket(bucketNo, baseMapsProb)
	authMult, regionMult := e.dcSkew(dc)
	if noiseSpan != nil { // attr formatting allocates; skip it untraced
		noiseSpan.SetAttr("bucket", fmt.Sprint(bucketNo))
	}
	stages.end()

	// --- Stage: history ---
	stages.begin()
	recent := e.history.recent(req.SessionID, now)
	stages.end()
	if e.pastDeadline(req.Deadline) {
		return nil, ErrDeadlineExceeded
	}
	jitter := func(sigma float64) float64 { return rrng.Norm() * sigma }

	// --- Stage: retrieve (the web vertical) ---
	retrieveSpan := stages.begin()
	ret, retErr := e.retriever.Retrieve(RetrieveRequest{
		Query:    req.Query,
		K:        48,
		TraceID:  req.TraceID,
		Deadline: req.Deadline,
		Span:     retrieveSpan,
		Wide:     req.Wide,
	})
	if retrieveSpan != nil {
		retrieveSpan.SetAttr("hits", fmt.Sprint(len(ret.Hits)))
		if ret.Partial {
			retrieveSpan.SetAttr("partial", "true")
		}
		if retErr != nil {
			retrieveSpan.SetAttr("error", retErr.Error())
		}
	}
	stages.end()
	if retErr != nil {
		// A total backend failure is unanswerable; a PARTIAL one was
		// already folded into ret.Hits and degrades the page instead.
		return nil, retErr
	}
	hits := ret.Hits
	if ret.Partial {
		e.inst.retrievePartial.Inc()
	}

	// --- Stage: rerank (the web, Places and News verticals) ---
	rerankSpan := stages.begin()
	cands := make([]candidate, 0, len(hits)+e.cfg.MaxPlaceOrganic)
	maxRel := 0.0
	for _, h := range hits {
		if h.Score > maxRel {
			maxRel = h.Score
		}
	}
	for _, h := range hits {
		rel := 0.0
		if maxRel > 0 {
			rel = h.Score / maxRel
		}
		auth := h.Doc.Authority
		if h.Doc.Region != "" && h.Doc.Region != qRegion {
			// Region-tagged content is demoted outside its region: a
			// Texas local guide is a poor answer in Ohio.
			auth *= e.cfg.OffRegionPenalty
		}
		s := e.cfg.WebRelWeight*rel + e.cfg.AuthWeight*auth*authMult
		if h.Doc.Region != "" && h.Doc.Region == qRegion {
			s += e.cfg.RegionBoost * regionMult
		}
		for _, t := range recent {
			if t == h.Doc.Topic {
				s += e.cfg.HistoryBoost
				break
			}
		}
		s += jitter(e.cfg.WebJitterSigma)
		cands = append(cands, candidate{
			res:   serp.Result{URL: h.Doc.URL, Title: h.Doc.Title},
			score: s,
		})
	}

	// --- Places vertical ---
	var mapsCard *serp.Card
	if class == classLocalBrand || class == classLocalGeneric {
		placeCands := e.placeCandidates(loc, topic, bp.placeMult, jitter)
		// Maps card: generic local intent only, subject to the bucket's
		// probability — the presence flip is the paper's dominant
		// Maps-attributed noise.
		nMaps := 0
		if class == classLocalGeneric && len(placeCands) >= 3 && rrng.Bool(bp.mapsProb) {
			nMaps = bp.mapsSize
			if nMaps > len(placeCands) {
				nMaps = len(placeCands)
			}
			card := serp.Card{Type: serp.Maps}
			for _, pc := range placeCands[:nMaps] {
				card.Results = append(card.Results, pc.res)
			}
			mapsCard = &card
		}
		// Remaining top places compete as organic results.
		rest := placeCands[nMaps:]
		if len(rest) > e.cfg.MaxPlaceOrganic {
			rest = rest[:e.cfg.MaxPlaceOrganic]
		}
		cands = append(cands, rest...)
	}

	// --- News vertical ---
	// Whether a topic has news coverage on a given day is a property of
	// the topic and the day, not of the request: two simultaneous
	// identical queries agree on News-card presence, and the small News
	// noise of §3.1 comes only from article selection within the card.
	var newsCard *serp.Card
	hasNews := baseNewsProb > 0 &&
		detrand.NewKeyed(e.cfg.Seed, "newspresence", topic, dayKey).Bool(baseNewsProb)
	if hasNews {
		arts := e.news.Topical(topic, day)
		type scoredArt struct {
			a webcorpus.Article
			s float64
		}
		scored := make([]scoredArt, 0, len(arts))
		for _, a := range arts {
			s := a.Freshness + jitter(e.cfg.NewsJitterSigma)
			if a.Region != "" && a.Region == qRegion {
				s += e.cfg.NewsRegionBoost
			}
			scored = append(scored, scoredArt{a, s})
		}
		sort.Slice(scored, func(i, j int) bool {
			if scored[i].s != scored[j].s {
				return scored[i].s > scored[j].s
			}
			return scored[i].a.URL < scored[j].a.URL
		})
		n := bp.newsSize
		if n > len(scored) {
			n = len(scored)
		}
		if n >= 2 {
			card := serp.Card{Type: serp.News}
			for _, sa := range scored[:n] {
				card.Results = append(card.Results, serp.Result{URL: sa.a.URL, Title: sa.a.Title})
			}
			newsCard = &card
		}
	}

	if rerankSpan != nil {
		rerankSpan.SetAttr("candidates", fmt.Sprint(len(cands)))
	}
	stages.end()
	if e.pastDeadline(req.Deadline) {
		return nil, ErrDeadlineExceeded
	}

	// --- Stage: assemble ---
	assembleSpan := stages.begin()
	slices.SortFunc(cands, byScore)
	nOrganic := min(e.cfg.OrganicCards, len(cands))
	page := &serp.Page{
		Query:      req.Query,
		Location:   loc.String(),
		Datacenter: dc,
		Day:        day,
		Cards:      make([]serp.Card, 0, nOrganic+2),
	}
	// The organic cards' one-result slices are carved from one array:
	// placed holds the results placed so far, and each card gets a
	// capacity-limited slice of it, so an append to one card cannot
	// overwrite the next card's result.
	placed := make([]serp.Result, 0, nOrganic)
	// The News card's slot is a property of the day's layout, not of the
	// request: randomizing it per request would shift every link below it
	// and register as large phantom noise.
	newsPos := 2 + int(detrand.Hash("newspos", topic, dayKey)%3)
	for _, c := range cands {
		if len(placed) >= nOrganic {
			break
		}
		if len(placed) == 1 && mapsCard != nil {
			page.Cards = append(page.Cards, *mapsCard)
			mapsCard = nil
		}
		if len(placed) == newsPos && newsCard != nil {
			page.Cards = append(page.Cards, *newsCard)
			newsCard = nil
		}
		if slices.ContainsFunc(placed, func(r serp.Result) bool { return r.URL == c.res.URL }) {
			continue // a duplicate of a placed result
		}
		placed = append(placed, c.res)
		n := len(placed)
		page.Cards = append(page.Cards, serp.Card{Type: serp.Organic, Results: placed[n-1 : n : n]})
	}
	// Cards that never found their slot (short pages) go at the end.
	if mapsCard != nil {
		page.Cards = append(page.Cards, *mapsCard)
	}
	if newsCard != nil {
		page.Cards = append(page.Cards, *newsCard)
	}
	if assembleSpan != nil {
		assembleSpan.SetAttr("cards", fmt.Sprint(len(page.Cards)))
	}
	stages.end()

	e.history.record(req.SessionID, topic, now)
	e.inst.served.Inc()
	if i := e.dcIndex(dc); i >= 0 {
		e.inst.dcCounters[i].Inc()
	}
	return &Response{
		Page:           page,
		Bucket:         bucketNo,
		Datacenter:     dc,
		Location:       loc,
		LocationSource: source,
		Partial:        ret.Partial,
	}, nil
}

// pastDeadline reports whether a propagated deadline has passed on the
// engine's clock, counting the abandonment when it has. A zero deadline
// (no X-Deadline-Ms header) never passes.
func (e *Engine) pastDeadline(deadline time.Time) bool {
	if deadline.IsZero() || !e.clock.Now().After(deadline) {
		return false
	}
	e.inst.deadlineAbandoned.Inc()
	return true
}

// placeCandidates returns scored place-backed candidates near loc, best
// first. The radius doubles until enough candidates exist, so sparse kinds
// (airport, college) are ranked over a wide — and therefore highly
// location-sensitive — area.
func (e *Engine) placeCandidates(loc geo.Point, kind string, placeMult float64, jitter func(float64) float64) []candidate {
	radius := e.cfg.PlaceRadiusKm
	var businesses []webcorpus.Nearby
	for {
		businesses = e.places.Near(loc, kind, radius)
		if len(businesses) >= e.cfg.MinPlaces || radius >= e.cfg.PlaceRadiusMaxKm {
			break
		}
		radius *= 2
		if radius > e.cfg.PlaceRadiusMaxKm {
			radius = e.cfg.PlaceRadiusMaxKm
		}
	}
	// Proximity is normalized to the nearest candidate: the closest
	// establishment of a kind is the canonical answer whether it is 500m
	// away (coffee) or 20km away (airport). This keeps sparse kinds on
	// the page while preserving distance-ordered ranking. Near sorts by
	// distance, so the nearest is the first.
	var dmin float64
	if len(businesses) > 0 {
		dmin = businesses[0].DistKm
	}
	out := make([]candidate, 0, len(businesses))
	for _, b := range businesses {
		proximity := math.Exp(-math.Ln2 * (b.DistKm - dmin) / e.cfg.ProximityHalfKm)
		s := e.cfg.PlaceWeight*placeMult*proximity + e.cfg.PopWeight*b.Popularity + jitter(e.cfg.PlaceJitterSigma)
		out = append(out, candidate{
			res:   serp.Result{URL: b.URL, Title: b.Name},
			score: s,
		})
	}
	slices.SortFunc(out, byScore)
	return out
}

// byScore orders candidates best first: score descending, ties broken by
// URL ascending. The organic candidates and the place candidates sort by
// it.
func byScore(a, b candidate) int {
	if c := cmp.Compare(b.score, a.score); c != 0 {
		return c
	}
	return strings.Compare(a.res.URL, b.res.URL)
}
