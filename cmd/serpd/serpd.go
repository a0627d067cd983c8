package main

import (
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"time"

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
	// ShardCount-way document partition, for a coordinator (Shards) to
	// scatter-gather. ShardID selects which slice (0-based). Chaos,
	// admission, and tracez flags apply to the shard endpoint unchanged.
	ShardCount int
	ShardID    int
	// ShardReplica is this node's replica ID within its shard's replica
	// set (0-based). Replicas serve identical slices; the ID only labels
	// this node's spans and /shard/search responses so a coordinator can
	// verify routing and attribute failover.
	ShardReplica int
	// Shards, when set, makes the node the cluster coordinator: the
	// comma-separated shard base URLs in shard-ID order, each shard's
	// Replicas URLs adjacent in replica-ID order (s0r0,s0r1,s1r0,...).
	// Replicas <= 0 means 1.
	Shards   string
	Replicas int
	// ShardTimeout bounds each replica attempt of a fan-out leg (<= 0
	// disables it); the rest configure the client's per-replica circuit
	// breakers (threshold <= 0 disables them) and background re-admission
	// probes, as router.ClientConfig documents.
	ShardTimeout     time.Duration
	BreakerThreshold int
	BreakerCooldown  time.Duration
	ProbeInterval    time.Duration
}

// buildServer constructs the engine and a bound (not yet serving) server.
// Engine and HTTP front end share one telemetry registry, exposed at
// /metricsz on the returned server. With opts.Shards set, the node is the
// cluster coordinator: the returned client (nil on a monolith) is the
// engine's retrieval backend, and /clustertracez is mounted beside the
// front end.
func buildServer(opts options) (*serpserver.Server, *engine.Engine, *router.Client, error) {
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
	var corpus *queries.Corpus
	if opts.CorpusPath != "" {
		c, err := queries.LoadCorpus(opts.CorpusPath)
		if err != nil {
			return nil, nil, nil, err
		}
		corpus = c
		eopts = append(eopts, engine.WithCorpus(corpus))
	}
	var (
		client *router.Client
		hopts  []serpserver.HandlerOption
	)
	if opts.Shards != "" {
		flat, err := splitShards(opts.Shards)
		if err != nil {
			return nil, nil, nil, err
		}
		shards, err := groupReplicas(flat, opts.Replicas)
		if err != nil {
			return nil, nil, nil, err
		}
		client = router.NewClient(router.ClientConfig{
			Shards:           shards,
			Timeout:          opts.ShardTimeout,
			BreakerThreshold: opts.BreakerThreshold,
			BreakerCooldown:  opts.BreakerCooldown,
			ProbeInterval:    opts.ProbeInterval,
			// The shards' document table, regenerated from the same seed and
			// corpus; their replies are checked against its fingerprint,
			// which folds in the shard count.
			Docs: router.CorpusDocs(cfg.Seed, corpus),
		}, reg)
		eopts = append(eopts, engine.WithRetriever(client))
		hopts = append(hopts, serpserver.WithNode("router"))
	}
	eng := engine.New(cfg, simclock.Wall(), eopts...)
	if opts.Logger != nil {
		hopts = append(hopts, serpserver.WithLogger(opts.Logger))
	}
	if opts.WideLogger != nil {
		hopts = append(hopts, serpserver.WithWideEvents(opts.WideLogger))
	}
	var spans *telemetry.SpanRecorder
	if opts.TracezCapacity > 0 {
		spans = telemetry.NewSpanRecorder(opts.TracezCapacity, simclock.Wall())
		hopts = append(hopts, serpserver.WithSpans(spans))
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
	if client != nil {
		// The cluster trace surface sits outside the admission gate: it
		// must answer while /search sheds, exactly when stitched traces
		// matter most.
		mux := http.NewServeMux()
		mux.Handle("GET "+router.ClusterTracezPath, router.NewClusterTracez(spans, client))
		mux.Handle("/", root)
		root = mux
	}
	srv, err := serpserver.Listen(opts.Addr, root)
	if err != nil {
		return nil, nil, nil, err
	}
	return srv, eng, client, nil
}

// splitShards parses the -shards list.
func splitShards(s string) ([]string, error) {
	var out []string
	for _, u := range strings.Split(s, ",") {
		u = strings.TrimSpace(u)
		if u == "" {
			continue
		}
		if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
			return nil, fmt.Errorf("shard URL %q: must start with http:// or https://", u)
		}
		out = append(out, strings.TrimRight(u, "/"))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no shard URLs given (-shards)")
	}
	return out, nil
}

// groupReplicas slices the flat -shards URL list into per-shard replica
// sets: replicas are adjacent, so with -replicas 2 the list
// s0r0,s0r1,s1r0,s1r1 yields [[s0r0 s0r1] [s1r0 s1r1]].
func groupReplicas(flat []string, replicas int) ([][]string, error) {
	if replicas <= 0 {
		replicas = 1
	}
	if len(flat)%replicas != 0 {
		return nil, fmt.Errorf("-shards lists %d URLs, not divisible into replica sets of %d (-replicas)", len(flat), replicas)
	}
	out := make([][]string, 0, len(flat)/replicas)
	for i := 0; i < len(flat); i += replicas {
		out = append(out, flat[i:i+replicas])
	}
	return out, nil
}

// buildShardServer constructs a shard node: the deterministic corpus is
// regenerated from the seed, the consistent-hash ring assigns this node
// its document slice (with full-corpus IDF statistics, so per-shard scores
// are bit-identical to a monolith's), and the /shard/search endpoint is
// wrapped in the same chaos and admission middleware a full serpd gets.
func buildShardServer(opts options) (*serpserver.Server, *router.ShardHandler, error) {
	if opts.Shards != "" {
		return nil, nil, fmt.Errorf("-shards and -shard-count are exclusive: a node is a coordinator or a shard")
	}
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
	view := router.BuildShardIndex(seed, corpus, opts.ShardID, opts.ShardCount)

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
	sh := router.NewShardHandler(opts.ShardID, opts.ShardCount, view, shOpts...)
	var root http.Handler = sh
	if opts.Chaos.Enabled() {
		root = serpserver.NewChaos(opts.Chaos, reg, spans, root)
	}
	if opts.Admission.Enabled() {
		root = serpserver.NewAdmission(opts.Admission, reg, spans, root)
	}
	srv, err := serpserver.Listen(opts.Addr, root)
	if err != nil {
		return nil, nil, err
	}
	return srv, sh, nil
}
