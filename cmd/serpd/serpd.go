package main

import (
	"fmt"
	"log/slog"
	"net/http"

	"geoserp/internal/engine"
	"geoserp/internal/queries"
	"geoserp/internal/router"
	"geoserp/internal/serpserver"
	"geoserp/internal/simclock"
	"geoserp/internal/telemetry"
)

// options collects the serpd command's inputs.
type options struct {
	Addr        string
	Seed        uint64
	Datacenters int
	Buckets     int
	RateBurst   int
	RatePerMin  float64
	Quiet       bool
	// CorpusPath loads a custom query corpus (JSON) instead of the
	// study's 240 terms.
	CorpusPath string
	// Logger, when set, receives one structured access-log record per
	// request.
	Logger *slog.Logger
	// WideLogger, when set, receives one wide-event "search.wide" record
	// per /search — the canonical request log on a single structured line.
	WideLogger *slog.Logger
	// PprofAddr, when set, serves net/http/pprof on a separate listener.
	PprofAddr string
	// Chaos configures deliberate fault injection on /search (the
	// -chaos-* flags); zero value disables it.
	Chaos serpserver.ChaosConfig
	// Admission configures the /search concurrency gate (the
	// -max-inflight and -queue-depth flags); zero value admits
	// everything.
	Admission serpserver.AdmissionConfig
	// TracezCapacity bounds the span ring behind GET /tracez (<=0
	// disables request tracing and the endpoint).
	TracezCapacity int
	// ShardCount > 0 switches serpd into shard-node mode: instead of a
	// full engine it serves GET /shard/search over its slice of a
	// ShardCount-way document partition, for a cmd/serprouter coordinator
	// to scatter-gather. ShardID selects which slice (0-based). Chaos,
	// admission, and tracez flags apply to the shard endpoint unchanged.
	ShardCount int
	ShardID    int
	// ShardReplica is this node's replica ID within its shard's replica
	// set (0-based). Replicas serve identical slices; the ID only labels
	// this node's spans and /shard/search responses so a coordinator can
	// verify routing and attribute failover.
	ShardReplica int
	// VirtualNodes is the consistent-hash ring's virtual-node count per
	// shard; every node of one cluster (and its router) must agree on it.
	// <= 0 selects router.DefaultVirtualNodes. Not to be confused with
	// ShardReplica: virtual nodes spread one shard around the hash ring,
	// replicas are extra physical copies of a shard.
	VirtualNodes int
}

// buildServer constructs the engine and a bound (not yet serving) server.
// Engine and HTTP front end share one telemetry registry, exposed at
// /metricsz on the returned server.
func buildServer(opts options) (*serpserver.Server, *engine.Engine, error) {
	cfg := engine.DefaultConfig()
	if opts.Seed != 0 {
		cfg.Seed = opts.Seed
	}
	if opts.Datacenters > 0 {
		cfg.Datacenters = opts.Datacenters
	}
	if opts.Buckets > 0 {
		cfg.Buckets = opts.Buckets
	}
	if opts.RateBurst > 0 {
		cfg.RateBurst = opts.RateBurst
	}
	if opts.RatePerMin > 0 {
		cfg.RatePerMinute = opts.RatePerMin
	}
	if opts.Quiet {
		cfg.WebJitterSigma = 0
		cfg.PlaceJitterSigma = 0
		cfg.NewsJitterSigma = 0
		cfg.Buckets = 1
		cfg.BucketWeightSpread = 0
		cfg.ReplicaSkew = 0
	}
	reg := telemetry.NewRegistry()
	eopts := []engine.Option{engine.WithTelemetry(reg)}
	if opts.CorpusPath != "" {
		corpus, err := queries.LoadCorpus(opts.CorpusPath)
		if err != nil {
			return nil, nil, err
		}
		eopts = append(eopts, engine.WithCorpus(corpus))
	}
	eng := engine.NewCustom(cfg, simclock.Wall(), eopts...)
	var hopts []serpserver.HandlerOption
	if opts.Logger != nil {
		hopts = append(hopts, serpserver.WithLogger(opts.Logger))
	}
	if opts.WideLogger != nil {
		hopts = append(hopts, serpserver.WithWideEvents(opts.WideLogger))
	}
	if opts.TracezCapacity > 0 {
		hopts = append(hopts,
			serpserver.WithSpans(telemetry.NewSpanRecorder(opts.TracezCapacity, simclock.Wall())))
	}
	handler := serpserver.NewHandler(eng, hopts...)
	var root http.Handler = handler
	if opts.Chaos.Enabled() {
		root = serpserver.WithChaos(opts.Chaos, handler)
	}
	if opts.Admission.Enabled() {
		// Admission wraps outermost so even chaos-injected work cannot
		// bypass the concurrency gate.
		root = serpserver.WithAdmission(opts.Admission, handler, root)
	}
	srv, err := serpserver.Listen(opts.Addr, root)
	if err != nil {
		return nil, nil, err
	}
	return srv, eng, nil
}

// buildShardServer constructs a shard node: the deterministic corpus is
// regenerated from the seed, the consistent-hash ring assigns this node
// its document slice (with full-corpus IDF statistics, so per-shard scores
// are bit-identical to a monolith's), and the /shard/search endpoint is
// wrapped in the same chaos and admission middleware a full serpd gets.
func buildShardServer(opts options) (*serpserver.Server, *router.ShardHandler, error) {
	if opts.ShardID < 0 || opts.ShardID >= opts.ShardCount {
		return nil, nil, fmt.Errorf("shard-id %d out of range for shard-count %d", opts.ShardID, opts.ShardCount)
	}
	seed := uint64(1)
	if opts.Seed != 0 {
		seed = opts.Seed
	}
	var corpus *queries.Corpus
	if opts.CorpusPath != "" {
		c, err := queries.LoadCorpus(opts.CorpusPath)
		if err != nil {
			return nil, nil, err
		}
		corpus = c
	}
	view := router.BuildShardIndex(seed, corpus, opts.ShardID, opts.ShardCount, opts.VirtualNodes)

	reg := telemetry.NewRegistry()
	var spans *telemetry.SpanRecorder
	shOpts := []router.ShardOption{
		router.WithShardTelemetry(reg),
		router.WithShardReplica(opts.ShardReplica),
	}
	if opts.TracezCapacity > 0 {
		spans = telemetry.NewSpanRecorder(opts.TracezCapacity, simclock.Wall())
		shOpts = append(shOpts, router.WithShardSpans(spans))
	}
	sh := router.NewShardHandler(opts.ShardID, view, shOpts...)
	var root http.Handler = sh
	if opts.Chaos.Enabled() {
		root = serpserver.NewChaos(opts.Chaos, reg, spans, root)
	}
	if opts.Admission.Enabled() {
		adm := serpserver.NewAdmission(opts.Admission, reg, spans, root)
		if g, ok := adm.(*serpserver.Admission); ok {
			// Deadline sheds raised inside the shard handler advertise the
			// gate's live backlog-derived Retry-After instead of a constant.
			sh.SetRetryAfter(g.RetryAfter)
		}
		root = adm
	}
	srv, err := serpserver.Listen(opts.Addr, root)
	if err != nil {
		return nil, nil, err
	}
	return srv, sh, nil
}
