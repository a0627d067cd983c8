// Command soak is the chaos soak harness: it runs a virtual-time crawl
// campaign against an in-process replicated cluster — a coordinator like
// serpd -shards, scatter-gathering over 3 shards x 2 replicas, throttled by
// admission control — while a seeded, multi-phase fault schedule (calm,
// error burst, latency spike, recovery) batters the wire and replica 0 of
// every shard goes dark (retrieval and /healthz) for a 26-hour window
// spanning the error-burst day. It then asserts the invariants held:
//
//   - the rig never deadlocks (a wall-clock watchdog crashes a wedged run);
//   - the admission gate sheds under overload, within the shed budget;
//   - every circuit-breaker trip is matched by a re-close once faults clear;
//   - no fetch fails terminally: retries, Retry-After backoff, and breaker
//     cooldowns recover every fault inside its lock-step round;
//   - the live /statz audit surface, polled from a wall-clock goroutine
//     for the whole campaign, always parses and its live scorecard
//     exactly matches a replay of the stored observations at campaign end;
//   - not one page goes partial: every fan-out leg fails over to the
//     surviving replica, per-replica breakers trip, and the background
//     health prober re-admits the healed replicas (balanced ledger).
//
// Usage:
//
//	soak [-seed 1] [-terms 4] [-out obs.jsonl] [-trace-out soak-trace.json]
//	     [-clustertracez-out probes.json] [-cluster-trace-out cluster.json]
//	     [-log-format text] [-v]
//
// The campaign's observations can be written with -out, and -trace-out
// dumps the full span timeline (admission sheds included) in Chrome
// trace-event format. -clustertracez-out writes the post-campaign probes'
// stitched critical-path reports and -cluster-trace-out their stitched
// multi-process Chrome trace (one lane per node). When spans are recorded
// (any trace artifact flag) the soak also stitches every node's /spanz
// export into cross-process traces and asserts the observability
// invariants: every sampled request yields a complete stitched trace,
// critical-path attribution matches the injected fault schedule, and the
// probe exports reproduce byte-identically across same-seed runs. Exit
// status is non-zero when any invariant fails.
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
	opts := soakOptions{Seed: 1, Terms: 4}
	flag.Uint64Var(&opts.Seed, "seed", opts.Seed, "seed for the engine and the fault schedule")
	flag.IntVar(&opts.Terms, "terms", opts.Terms, "terms in the soak phase")
	out := flag.String("out", "", "write the campaign observations as JSONL")
	traceOut := flag.String("trace-out", "", "write the soak timeline as Chrome trace-event JSON")
	clusterTracezOut := flag.String("clustertracez-out", "", "write the post-campaign probes' stitched /clustertracez JSON")
	clusterTraceOut := flag.String("cluster-trace-out", "", "write the probes' stitched multi-process Chrome trace")
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
	writeArtifact := func(path, what string, body []byte) {
		if path == "" {
			return
		}
		if werr := os.WriteFile(path, body, 0o644); werr != nil {
			logger.Error("write "+what, "err", werr)
			os.Exit(1)
		}
		logger.Info(what+" written", "path", path, "bytes", len(body))
	}
	writeArtifact(*out, "observations", sum.JSONL)
	if *traceOut != "" {
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
	writeArtifact(*clusterTracezOut, "clustertracez export", sum.ClusterTracezJSON)
	writeArtifact(*clusterTraceOut, "stitched cluster trace", sum.ClusterChrome)
}
