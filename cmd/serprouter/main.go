// Command serprouter runs the SERP cluster coordinator: a full serpd front
// end whose web vertical is retrieved from N document-partitioned shard
// nodes (serpd -shard-count/-shard-id) by concurrent scatter-gather,
// merged deterministically so a same-seed cluster serves byte-identical
// pages to a monolithic serpd at any shard count.
//
// Usage:
//
//	serprouter -shards http://127.0.0.1:9001,http://127.0.0.1:9002 \
//	    [-replicas 1] [-addr 127.0.0.1:8080] [-seed 1] [-datacenters 3]
//	    [-shard-timeout 2s] [-breaker-threshold 3] [-breaker-cooldown 45s]
//	    [-hedge-after 0] [-probe-interval 45s]
//	    [-max-inflight 0] [-queue-depth 0] [-admission-service-time 1s]
//	    [-verbose] [-log-format text|json] [-pprof-addr 127.0.0.1:6060]
//
// Every node of one cluster — router and shards — must share -seed and
// -corpus (and the shards -virtual-nodes, when overridden): the shards
// regenerate the identical deterministic corpus from them, and the router
// regenerates the same document table to resolve the doc IDs in shard
// replies. Agreement is checked: every reply carries the shard's corpus
// fingerprint, and a shard of another world fails its legs. Shards reply
// in one binary frame with no version negotiation, so router and shards
// upgrade together.
//
// Degradation is graded: with -replicas R > 1 each shard leg fails over
// deterministically across its replica set (and optionally hedges
// stragglers with -hedge-after), so a shard only narrows the web vertical
// — the page is still served, marked with the X-Serp-Partial header —
// when EVERY replica of that shard sheds, times out, errors, or sits
// behind an open circuit breaker; only when no shard answers at all does
// /search shed with 503. A background -probe-interval /healthz loop
// re-admits recovered replicas.
//
// Endpoints are serpd's: /search, /healthz, /statz, /metricsz, /tracez,
// /spanz. The scatter-gather layer adds router_* metrics (per-shard
// outcomes, partial results, breaker transitions) to /metricsz, and the
// coordinator additionally serves /clustertracez — cross-process traces
// stitched from its own span ring plus every shard's /spanz export, with
// critical-path attribution (straggler shard, fan-out wait, breaker and
// shed accounting) per trace. -wide-events adds the canonical request
// log: one structured line per /search carrying the whole request story.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"geoserp/internal/telemetry"
)

func main() {
	var opts options
	flag.StringVar(&opts.Addr, "addr", "127.0.0.1:8080", "listen address")
	flag.StringVar(&opts.Shards, "shards", "", "comma-separated shard base URLs, in shard-ID order, replicas adjacent (required)")
	flag.IntVar(&opts.Replicas, "replicas", 1, "replicas per shard: how many consecutive -shards URLs form one shard's replica set")
	flag.Uint64Var(&opts.Seed, "seed", 1, "root seed for the synthetic web and noise (must match the shards')")
	flag.IntVar(&opts.Datacenters, "datacenters", 3, "number of replica datacenters")
	flag.IntVar(&opts.Buckets, "buckets", 8, "number of A/B experiment buckets")
	flag.IntVar(&opts.RateBurst, "rate-burst", 30, "per-IP rate limit burst")
	flag.Float64Var(&opts.RatePerMin, "rate-per-minute", 10, "per-IP sustained requests per minute")
	flag.BoolVar(&opts.Quiet, "quiet", false, "disable all noise mechanisms (deterministic serving)")
	flag.StringVar(&opts.CorpusPath, "corpus", "", "custom query corpus JSON (default: the study's 240 terms)")
	flag.StringVar(&opts.PprofAddr, "pprof-addr", "", "serve net/http/pprof on this address (off when empty)")
	flag.DurationVar(&opts.ShardTimeout, "shard-timeout", 2*time.Second, "timeout per replica attempt: a failover or hedged attempt gets its own (0 disables)")
	flag.IntVar(&opts.BreakerThreshold, "breaker-threshold", 3, "consecutive shard failures that open its circuit breaker (0 disables breakers)")
	flag.DurationVar(&opts.BreakerCooldown, "breaker-cooldown", 45*time.Second, "open-breaker dwell before a half-open probe")
	flag.DurationVar(&opts.HedgeAfter, "hedge-after", 0, "fire a hedged backup request to another replica after this in-flight delay (0 disables hedging)")
	flag.DurationVar(&opts.ProbeInterval, "probe-interval", 45*time.Second, "background /healthz probe cadence re-admitting recovered replicas (0 disables)")
	flag.IntVar(&opts.Admission.MaxInflight, "max-inflight", 0, "max concurrent /search requests admitted (0 disables admission control)")
	flag.IntVar(&opts.Admission.QueueDepth, "queue-depth", 0, "how many /search requests may queue for an admission slot")
	flag.DurationVar(&opts.Admission.ServiceTime, "admission-service-time", time.Second, "per-request service-time estimate behind Retry-After hints")
	flag.IntVar(&opts.TracezCapacity, "tracez-capacity", telemetry.DefaultSpanCapacity, "span ring capacity behind GET /tracez (0 disables tracing)")
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

	srv, eng, client, err := buildServer(opts)
	if err != nil {
		logger.Error("startup failed", "err", err)
		os.Exit(1)
	}
	stopProber := client.StartProber()
	defer stopProber()
	logger.Info("routing sharded search",
		"url", srv.URL(), "seed", opts.Seed, "shards", client.Shards(),
		"replicas", max(opts.Replicas, 1))
	logger.Info("endpoints ready",
		"try", srv.URL()+"/search?q=Coffee&ll=41.4993,-81.6944",
		"metrics", srv.URL()+"/metricsz")

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
	logger.Info("shutting down",
		"served", eng.Served(), "rate_limited", eng.RateLimited(),
		"breakers", fmt.Sprint(client.BreakerStates()))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Error("shutdown", "err", err)
		os.Exit(1)
	}
}
