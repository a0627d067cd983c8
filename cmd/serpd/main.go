// Command serpd runs the synthetic personalized search engine as a
// standalone HTTP service — the stand-in for Google Search that crawlers
// (cmd/crawl, the examples, or your own tooling) measure.
//
// Usage:
//
//	serpd [-addr 127.0.0.1:8080] [-seed 1] [-datacenters 3] [-rate-burst 30]
//	      [-verbose] [-log-format text|json] [-pprof-addr 127.0.0.1:6060]
//	      [-chaos-abort-rate 0] [-chaos-5xx-rate 0] [-chaos-truncate-rate 0]
//	      [-chaos-latency 0] [-chaos-seed 1]
//	      [-max-inflight 0] [-queue-depth 0] [-admission-service-time 1s]
//	      [-shard-count 0] [-shard-id 0] [-shard-replica 0]
//	      [-shards URL,... [-replicas 1] [-shard-timeout 2s]
//	       [-breaker-threshold 3] [-breaker-cooldown 45s] [-probe-interval 45s]]
//
// A node takes one of three roles:
//
//   - Monolith (the default): the full engine over the whole corpus.
//   - Shard (-shard-count N -shard-id K): one retrieval shard of an N-node
//     cluster. It regenerates the deterministic corpus from -seed, keeps
//     the document slice the consistent-hash ring assigns shard K, and
//     serves GET /shard/search to a coordinator. With -shard-replica R it
//     identifies as replica R of shard K; replicas serve byte-identical
//     slices. Engine flags (-datacenters, -rate-burst, ...) are ignored in
//     this role.
//   - Coordinator (-shards): the monolith's engine and front end, whose
//     web vertical is scatter-gathered from the listed shard nodes and
//     merged deterministically, so a same-seed cluster serves the bytes a
//     monolith serves. -shards lists the URLs in shard-ID order, each
//     shard's -replicas URLs adjacent (s0r0,s0r1,s1r0,...). A leg fails
//     over across its replica set behind per-replica circuit breakers
//     (-breaker-*), one attempt at a time, each bounded by -shard-timeout,
//     and a -probe-interval /healthz loop re-admits recovered replicas. A
//     shard whose every replica fails narrows the web vertical
//     (X-Serp-Partial); with no shard left, /search sheds 503. -shards and
//     -shard-count exclude each other.
//
// Every node of one cluster must share -seed and -corpus, and the shards'
// -shard-count must equal the coordinator's shard count: each shard reply
// carries a fingerprint of its corpus and shard count, and a shard of
// another world or another partition fails its legs.
//
// The -chaos-* flags make the node's search endpoint deliberately
// unreliable (fault injection) so clients can rehearse retries, failure
// budgets, and checkpoint resume against a real wire. The -max-inflight
// and -queue-depth flags arm admission control: at most max-inflight
// requests execute at once, queue-depth more wait in FIFO order, and the
// rest are shed with 503 plus a Retry-After hint derived from the backlog
// and -admission-service-time. Both apply in every role.
//
// Endpoints:
//
//	GET /search?q=<term>&ll=<lat>,<lon>[&format=json]
//	GET /shard/search?q=<term>&k=<n>   (shard role)
//	GET /healthz
//	GET /statz         JSON counters (backward-compatible shape)
//	GET /metricsz      Prometheus text exposition
//	GET /tracez        recent request spans (JSON; ?format=html for a
//	                   browsable view, ?limit=N to cap traces)
//	GET /spanz         the span ring as a paginated export for stitching
//	GET /clustertracez?trace=<id>   (coordinator role) the trace stitched
//	                   across every node, with critical-path attribution
//
// With -pprof-addr, the net/http/pprof endpoints are served on a separate
// listener under /debug/pprof/.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"geoserp/internal/engine"
	"geoserp/internal/router"
	"geoserp/internal/serpserver"
	"geoserp/internal/telemetry"
)

func main() {
	var opts options
	flag.StringVar(&opts.Addr, "addr", "127.0.0.1:8080", "listen address")
	flag.Uint64Var(&opts.Seed, "seed", 1, "root seed for the synthetic web and noise")
	flag.IntVar(&opts.Datacenters, "datacenters", 3, "number of replica datacenters")
	flag.IntVar(&opts.Buckets, "buckets", 8, "number of A/B experiment buckets")
	flag.IntVar(&opts.RateBurst, "rate-burst", 30, "per-IP rate limit burst")
	flag.Float64Var(&opts.RatePerMin, "rate-per-minute", 10, "per-IP sustained requests per minute")
	flag.BoolVar(&opts.Quiet, "quiet", false, "disable all noise mechanisms (deterministic serving)")
	flag.StringVar(&opts.CorpusPath, "corpus", "", "custom query corpus JSON (default: the study's 240 terms)")
	flag.StringVar(&opts.PprofAddr, "pprof-addr", "", "serve net/http/pprof on this address (off when empty)")
	flag.Uint64Var(&opts.Chaos.Seed, "chaos-seed", 1, "seed for fault-injection draws")
	flag.Float64Var(&opts.Chaos.AbortRate, "chaos-abort-rate", 0, "probability a /search connection is severed before responding")
	flag.Float64Var(&opts.Chaos.ServerErrorRate, "chaos-5xx-rate", 0, "probability a /search request is answered 500")
	flag.Float64Var(&opts.Chaos.TruncateRate, "chaos-truncate-rate", 0, "probability a /search response body is cut off mid-stream")
	flag.DurationVar(&opts.Chaos.Latency, "chaos-latency", 0, "extra latency added to every /search request")
	flag.IntVar(&opts.Admission.MaxInflight, "max-inflight", 0, "max concurrent /search requests admitted (0 disables admission control)")
	flag.IntVar(&opts.Admission.QueueDepth, "queue-depth", 0, "how many /search requests may queue for an admission slot")
	flag.DurationVar(&opts.Admission.ServiceTime, "admission-service-time", time.Second, "per-request service-time estimate behind Retry-After hints")
	flag.IntVar(&opts.TracezCapacity, "tracez-capacity", telemetry.DefaultSpanCapacity, "span ring capacity behind GET /tracez (0 disables tracing)")
	flag.IntVar(&opts.ShardCount, "shard-count", 0, "run as one shard of an N-shard cluster instead of a full engine (0 disables shard mode)")
	flag.IntVar(&opts.ShardID, "shard-id", 0, "this node's shard ID (0-based, requires -shard-count)")
	flag.IntVar(&opts.ShardReplica, "shard-replica", 0, "this node's replica ID within its shard's replica set (0-based; replicas serve identical slices)")
	flag.StringVar(&opts.Shards, "shards", "", "run as the cluster coordinator over these comma-separated shard base URLs, in shard-ID order, replicas adjacent")
	flag.IntVar(&opts.Replicas, "replicas", 1, "replicas per shard: how many consecutive -shards URLs form one shard's replica set")
	flag.DurationVar(&opts.ShardTimeout, "shard-timeout", 2*time.Second, "timeout per replica attempt: a failover attempt gets its own (0 disables)")
	flag.IntVar(&opts.BreakerThreshold, "breaker-threshold", 3, "consecutive shard failures that open its circuit breaker (0 disables breakers)")
	flag.DurationVar(&opts.BreakerCooldown, "breaker-cooldown", 45*time.Second, "open-breaker dwell before a half-open probe")
	flag.DurationVar(&opts.ProbeInterval, "probe-interval", 45*time.Second, "background /healthz probe cadence re-admitting recovered replicas (0 disables)")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	verbose := flag.Bool("verbose", false, "log every request")
	wideEvents := flag.Bool("wide-events", false, "emit one wide-event request log line per /search")
	flag.Parse()

	logger := telemetry.NewLogger(os.Stderr, *logFormat)
	if *verbose {
		opts.Logger = logger
	}
	if *wideEvents {
		opts.WideLogger = logger
	}

	var (
		srv    *serpserver.Server
		eng    *engine.Engine
		client *router.Client
		err    error
	)
	if opts.ShardCount > 0 {
		var sh *router.ShardHandler
		srv, sh, err = buildShardServer(opts)
		if err == nil {
			logger.Info("serving retrieval shard",
				"url", srv.URL(), "seed", opts.Seed,
				"shard", opts.ShardID, "of", opts.ShardCount, "docs", sh.Docs())
			logger.Info("endpoints ready",
				"try", srv.URL()+"/shard/search?q=Coffee&k=5",
				"metrics", srv.URL()+"/metricsz")
		}
	} else {
		srv, eng, client, err = buildServer(opts)
		if err == nil {
			if client != nil {
				logger.Info("routing sharded search",
					"url", srv.URL(), "seed", opts.Seed, "shards", client.Shards(),
					"replicas", max(opts.Replicas, 1))
			} else {
				logger.Info("serving synthetic search",
					"url", srv.URL(), "seed", opts.Seed, "datacenters", opts.Datacenters)
			}
			logger.Info("endpoints ready",
				"try", srv.URL()+"/search?q=Coffee&ll=41.4993,-81.6944",
				"metrics", srv.URL()+"/metricsz")
		}
	}
	if err != nil {
		logger.Error("startup failed", "err", err)
		os.Exit(1)
	}
	if client != nil {
		stopProber := client.StartProber()
		defer stopProber()
	}

	if opts.PprofAddr != "" {
		pprofSrv, pprofAddr, perr := telemetry.ServePprof(opts.PprofAddr)
		if perr != nil {
			logger.Error("pprof startup failed", "err", perr)
			os.Exit(1)
		}
		defer pprofSrv.Close()
		logger.Info("pprof enabled", "addr", "http://"+pprofAddr+"/debug/pprof/")
	}

	done := make(chan os.Signal, 1)
	signal.Notify(done, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		if err := srv.Serve(); err != nil {
			logger.Error("serve", "err", err)
		}
	}()
	<-done
	fmt.Fprintln(os.Stderr)
	var stats []any
	if eng != nil {
		stats = append(stats, "served", eng.Served(), "rate_limited", eng.RateLimited())
	}
	if client != nil {
		stats = append(stats, "breakers", fmt.Sprint(client.BreakerStates()))
	}
	logger.Info("shutting down", stats...)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Error("shutdown", "err", err)
		os.Exit(1)
	}
}
