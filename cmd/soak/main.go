// Command soak is the chaos soak harness: it runs a virtual-time crawl
// campaign against an in-process engine throttled by admission control
// while a seeded, multi-phase fault schedule (calm, error burst, latency
// spike, recovery) batters the wire — then asserts the overload-resilience
// invariants held:
//
//   - the rig never deadlocks (a wall-clock watchdog crashes a wedged run);
//   - the admission gate sheds under overload, within the shed budget;
//   - every circuit-breaker trip is matched by a re-close once faults clear;
//   - no fetch fails terminally: retries, Retry-After backoff, and breaker
//     cooldowns recover every fault inside its lock-step round;
//   - the live /statz audit surface, polled from a wall-clock goroutine
//     for the whole campaign, always parses and its live scorecard
//     exactly matches a replay of the stored observations at campaign end.
//
// Usage:
//
//	soak [-seed 1] [-terms 4] [-max-inflight 4] [-queue-depth 8]
//	     [-retries 20] [-breaker-threshold 3] [-breaker-cooldown 45s]
//	     [-deadline 10m] [-shed-fraction-budget 0.75] [-watchdog 4m]
//	     [-cluster-shards 3] [-cluster-replicas 2]
//	     [-out obs.jsonl] [-trace-out soak-trace.json]
//	     [-clustertracez-out probes.json] [-cluster-trace-out cluster.json]
//
// With -cluster-shards N the soak targets the full sharded topology — a
// serprouter-style coordinator scatter-gathering over N in-process shard
// nodes. With -cluster-replicas R > 1 (the default is 2) every shard runs
// R replica nodes and the injected fault is a replica-level outage:
// replica 0 of every shard goes dark (retrieval and /healthz) for a
// 26-hour window spanning the error-burst day, and the soak asserts the
// replication invariants — ZERO partial pages (every leg fails over to the
// surviving replica), per-replica breakers trip and are re-admitted by the
// background health prober (balanced ledger), and same-seed runs stay
// byte-identical. With -cluster-replicas 1 the legacy shard-0 outage
// applies instead, asserting graded degradation: pages go partial, never
// unavailable, and the router breaker trips and re-closes. When spans are
// recorded (any trace artifact flag), the cluster soak also stitches every
// node's /spanz export into cross-process traces and asserts the
// observability invariants: every sampled request yields a complete
// stitched trace (router plus all contacted shards), critical-path
// attribution matches the injected fault schedule, and the post-campaign
// probes' /clustertracez and Chrome bodies reproduce byte-identically
// across same-seed runs.
//
// The campaign's observations can be written with -out, and -trace-out
// dumps the full span timeline (admission sheds included) in Chrome
// trace-event format. In cluster mode, -clustertracez-out writes the
// probes' stitched critical-path reports and -cluster-trace-out the
// stitched multi-process Chrome trace (one lane per node). Exit status is
// non-zero when any invariant fails.
//
// Same-seed soak runs produce byte-identical observation output; the
// package's test runs the harness twice and enforces it.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"geoserp/internal/simclock"
	"geoserp/internal/telemetry"
)

func main() {
	opts := defaultSoakOptions()
	flag.Uint64Var(&opts.Seed, "seed", opts.Seed, "seed for the engine and the fault schedule")
	flag.IntVar(&opts.Terms, "terms", opts.Terms, "terms in the soak phase")
	flag.DurationVar(&opts.Wait, "wait", opts.Wait, "lock-step slot width between terms")
	flag.IntVar(&opts.MaxInflight, "max-inflight", opts.MaxInflight, "admission gate concurrency bound")
	flag.IntVar(&opts.QueueDepth, "queue-depth", opts.QueueDepth, "admission gate queue depth")
	flag.DurationVar(&opts.ServiceTime, "service-time", opts.ServiceTime, "per-request service estimate behind Retry-After hints")
	flag.DurationVar(&opts.ServiceLatency, "service-latency", opts.ServiceLatency, "wall-clock latency injected per admitted request so the gate saturates")
	flag.IntVar(&opts.Retries, "retries", opts.Retries, "fetch attempts per query")
	flag.DurationVar(&opts.RetryBackoff, "retry-backoff", opts.RetryBackoff, "linear backoff base between attempts")
	flag.IntVar(&opts.BreakerThreshold, "breaker-threshold", opts.BreakerThreshold, "consecutive failures that open a browser's breaker")
	flag.DurationVar(&opts.BreakerCooldown, "breaker-cooldown", opts.BreakerCooldown, "breaker open-state dwell")
	flag.DurationVar(&opts.Deadline, "deadline", opts.Deadline, "end-to-end fetch deadline propagated to the server")
	flag.IntVar(&opts.ClusterShards, "cluster-shards", opts.ClusterShards, "soak a sharded cluster (router + N shard nodes) instead of a monolith; 0 = monolith")
	flag.IntVar(&opts.ClusterReplicas, "cluster-replicas", opts.ClusterReplicas, "replicas per shard in cluster mode; > 1 switches to the replica-outage schedule and failover invariants")
	flag.Float64Var(&opts.ShedFractionBudget, "shed-fraction-budget", opts.ShedFractionBudget, "max tolerated fraction of admission decisions ending in a shed")
	flag.DurationVar(&opts.Watchdog, "watchdog", opts.Watchdog, "wall-clock deadline after which the run counts as deadlocked (0 = off)")
	out := flag.String("out", "", "write the campaign observations as JSONL")
	traceOut := flag.String("trace-out", "", "write the soak timeline as Chrome trace-event JSON")
	clusterTracezOut := flag.String("clustertracez-out", "", "write the post-campaign probes' stitched /clustertracez JSON (cluster mode)")
	clusterTraceOut := flag.String("cluster-trace-out", "", "write the probes' stitched multi-process Chrome trace (cluster mode)")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	verbose := flag.Bool("v", false, "debug logging: one record per fetch")
	flag.Parse()

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	logger := slog.New(telemetry.NewLogHandler(os.Stderr, *logFormat, level))
	opts.Logger = logger
	if *traceOut != "" || *clusterTracezOut != "" || *clusterTraceOut != "" {
		opts.TraceCapacity = 1 << 17
	}

	wall := simclock.Wall()
	start := wall.Now()
	sum, err := runSoak(opts)
	if sum != nil {
		logger.Info("soak complete",
			"observations", sum.Observations,
			"failed", sum.FailedObs,
			"shed_observations", sum.ShedObs,
			"admitted", sum.Admitted,
			"shed_by_reason", fmt.Sprint(sum.ShedByReason),
			"shed_fraction", fmt.Sprintf("%.3f", sum.ShedFraction),
			"breaker_open", sum.BreakerOpen,
			"breaker_reopen", sum.BreakerReopen,
			"breaker_close", sum.BreakerClose,
			"faults_injected", sum.FaultsDrawn,
			"retries", sum.Retries,
			"router_retrievals", sum.RouterRetrievals,
			"router_partial", sum.RouterPartial,
			"router_unavailable", sum.RouterUnavailable,
			"router_outcomes", fmt.Sprint(sum.RouterOutcomes),
			"router_breaker_open", sum.RouterBreakerOpen,
			"router_breaker_reopen", sum.RouterBreakerReopen,
			"router_breaker_close", sum.RouterBreakerClose,
			"router_replica_outcomes", fmt.Sprint(sum.RouterReplicaOutcomes),
			"router_failovers", sum.RouterFailovers,
			"router_probes", fmt.Sprint(sum.RouterProbes),
			"router_readmissions", sum.RouterReadmissions,
			"statz_polls", sum.StatzPolls,
			"statz_poll_errors", sum.StatzPollErrors,
			"virtual_elapsed", sum.VirtualTime.String(),
			"wall_elapsed", wall.Now().Sub(start).Round(time.Millisecond).String())
	}
	if err != nil {
		logger.Error("soak failed", "err", err)
		os.Exit(1)
	}
	if *out != "" && sum != nil {
		if werr := os.WriteFile(*out, sum.JSONL, 0o644); werr != nil {
			logger.Error("write observations", "err", werr)
			os.Exit(1)
		}
		logger.Info("observations written", "path", *out, "bytes", len(sum.JSONL))
	}
	if *traceOut != "" && sum != nil && sum.Spans != nil {
		f, cerr := os.Create(*traceOut)
		if cerr == nil {
			cerr = telemetry.WriteChromeTrace(f, sum.Spans.Snapshot())
			if closeErr := f.Close(); cerr == nil {
				cerr = closeErr
			}
		}
		if cerr != nil {
			logger.Error("write trace", "err", cerr)
			os.Exit(1)
		}
		logger.Info("soak trace written", "path", *traceOut, "spans", sum.Spans.Len())
	}
	writeArtifact := func(path, what string, body []byte) {
		if path == "" || sum == nil {
			return
		}
		if len(body) == 0 {
			logger.Error("write "+what, "err", "no cluster trace data (need -cluster-shards > 0)")
			os.Exit(1)
		}
		if werr := os.WriteFile(path, body, 0o644); werr != nil {
			logger.Error("write "+what, "err", werr)
			os.Exit(1)
		}
		logger.Info(what+" written", "path", path, "bytes", len(body))
	}
	writeArtifact(*clusterTracezOut, "clustertracez export", sum.ClusterTracezJSON)
	writeArtifact(*clusterTraceOut, "stitched cluster trace", sum.ClusterChrome)
}
