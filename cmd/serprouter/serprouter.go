package main

import (
	"fmt"
	"log/slog"
	"net"
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

// options collects the serprouter command's inputs.
type options struct {
	Addr string
	// Shards is the comma-separated list of shard base URLs, in shard-ID
	// order ("http://127.0.0.1:9001,http://127.0.0.1:9002"). The order
	// must match the -shard-id assignment the shard serpd processes were
	// started with, and every node must share -seed. With -replicas R > 1
	// the list holds R consecutive URLs per shard, replicas adjacent in
	// replica-ID order (s0r0,s0r1,s1r0,s1r1,…).
	Shards string
	// Replicas is how many consecutive URLs of -shards form one shard's
	// replica set (<= 0 means 1: every URL is its own shard).
	Replicas int
	Seed     uint64
	// Engine shape (the coordinator runs the full engine minus the local
	// index: Places, News, personalization, noise, rate limiting).
	Datacenters int
	Buckets     int
	RateBurst   int
	RatePerMin  float64
	Quiet       bool
	CorpusPath  string
	Logger      *slog.Logger
	// WideLogger, when set, receives one wide-event "search.wide" record
	// per /search — the canonical request log (stage durations, per-shard
	// outcomes, partial flag, trace ID) on a single structured line.
	WideLogger *slog.Logger
	PprofAddr  string
	// Admission configures the router's own /search concurrency gate.
	Admission serpserver.AdmissionConfig
	// TracezCapacity bounds the span ring behind GET /tracez (<=0
	// disables request tracing and the endpoint).
	TracezCapacity int
	// ShardTimeout bounds one shard fan-out request; <= 0 disables the
	// per-shard timeout.
	ShardTimeout time.Duration
	// BreakerThreshold / BreakerCooldown configure the per-replica circuit
	// breakers (threshold <= 0 disables them).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// HedgeAfter, when > 0, fires a hedged backup request to another
	// healthy replica after a leg's primary attempt has been in flight
	// this long (first answer wins, the loser is cancelled).
	HedgeAfter time.Duration
	// ProbeInterval is the background /healthz probe cadence that
	// re-admits recovered replicas whose breakers are open (<= 0 disables
	// the prober).
	ProbeInterval time.Duration
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

// buildServer constructs the coordinator: a scatter-gather client over the
// shard URLs, a full engine using it as the retrieval backend, and the
// standard serpd HTTP front end (so crawlers cannot tell a router from a
// monolith except via the X-Serp-Partial degradation marker).
func buildServer(opts options) (*serpserver.Server, *engine.Engine, *router.Client, error) {
	flat, err := splitShards(opts.Shards)
	if err != nil {
		return nil, nil, nil, err
	}
	shards, err := groupReplicas(flat, opts.Replicas)
	if err != nil {
		return nil, nil, nil, err
	}

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

	var corpus *queries.Corpus
	if opts.CorpusPath != "" {
		if corpus, err = queries.LoadCorpus(opts.CorpusPath); err != nil {
			return nil, nil, nil, err
		}
	}

	reg := telemetry.NewRegistry()
	client := router.NewClient(router.ClientConfig{
		Shards:           shards,
		Timeout:          opts.ShardTimeout,
		BreakerThreshold: opts.BreakerThreshold,
		BreakerCooldown:  opts.BreakerCooldown,
		HedgeAfter:       opts.HedgeAfter,
		ProbeInterval:    opts.ProbeInterval,
		// The shards' document table, regenerated from the same seed and
		// corpus; their replies are checked against its fingerprint.
		Docs: router.CorpusDocs(cfg.Seed, corpus),
	}, reg)

	eopts := []engine.Option{engine.WithTelemetry(reg), engine.WithRetriever(client)}
	if corpus != nil {
		eopts = append(eopts, engine.WithCorpus(corpus))
	}
	eng := engine.NewCustom(cfg, simclock.Wall(), eopts...)

	hopts := []serpserver.HandlerOption{serpserver.WithNode("router")}
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
	if opts.Admission.Enabled() {
		root = serpserver.WithAdmission(opts.Admission, handler, root)
	}
	// The cluster trace surface sits outside the admission gate: it must
	// answer while /search sheds, exactly when stitched traces matter most.
	mux := http.NewServeMux()
	mux.Handle("GET "+router.ClusterTracezPath, router.NewClusterTracez(spans, client))
	mux.Handle("/", root)
	root = mux
	srv, err := serpserver.Listen(opts.Addr, root)
	if err != nil {
		return nil, nil, nil, err
	}
	return srv, eng, client, nil
}

// startPprof binds addr and serves the net/http/pprof endpoints on it in
// the background, returning the server for shutdown. Profiling gets its
// own listener so it never shares a port with production traffic.
func startPprof(addr string) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("pprof: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: telemetry.PprofMux()}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}
