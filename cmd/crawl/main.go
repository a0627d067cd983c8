// Command crawl runs a measurement campaign — the paper's §2 methodology —
// and writes the observations as JSON Lines for cmd/analyze.
//
// By default it spins up an in-process engine under a virtual clock, so
// "30 days" of crawling completes in seconds:
//
//	crawl -out campaign.jsonl                  # full study (240 terms × 59 locations × 5 days × 2 phases)
//	crawl -terms 8 -days 2 -out small.jsonl    # scaled-down campaign
//
// Against a live serpd instance (wall-clock time — slow by design, the
// crawler really does wait 11 minutes between queries):
//
//	crawl -server http://127.0.0.1:8080 -terms 2 -days 1 -out live.jsonl
//
// Campaigns are fail-soft: fetches retry with linear backoff (-retries,
// -retry-backoff, -fetch-timeout), and a sweep tolerates failures up to
// -failure-budget, recording them as failed observations instead of
// aborting. Progress is checkpointed after every completed term sweep;
// a killed campaign restarts from the cursor with -resume:
//
//	crawl -out campaign.jsonl            # writes campaign.jsonl.ckpt as it goes
//	crawl -out campaign.jsonl -resume    # picks up where the last run stopped
//
// Progress is logged as structured records (-log-format json for JSON);
// -v additionally logs every fetch with its minted trace ID, which joins
// the record to serpd's access log and the stored observation.
//
// Observability artifacts can land beside the data: -trace-out writes the
// campaign timeline (campaign → phase → sweep spans plus per-attempt fetch,
// server, and engine-stage spans) as a Chrome trace-event file for
// Perfetto/chrome://tracing, and -metrics-out writes a final Prometheus
// text snapshot of the campaign's counters:
//
//	crawl -terms 2 -days 1 -out small.jsonl -trace-out trace.json -metrics-out snapshot.prom
//
// A running campaign can be audited live: -statz-addr serves /statz — a
// streaming scorecard snapshot (JSON, or HTML for browsers) recomputed at
// every completed sweep, with ?sweep=N replaying earlier snapshots —
// plus /metricsz and (with -trace-out) /tracez. -statz-out writes the
// final snapshot beside the data, and -drift-threshold arms the
// sweep-over-sweep drift tracker:
//
//	crawl -terms 3 -days 1 -out small.jsonl -statz-addr 127.0.0.1:9090 -statz-out statz.json
package main

import (
	"flag"
	"log/slog"
	"os"
	"time"

	"geoserp/internal/simclock"
	"geoserp/internal/telemetry"
)

func main() {
	var opts options
	flag.StringVar(&opts.Server, "server", "", "existing serpd URL (default: run an in-process engine under virtual time)")
	flag.StringVar(&opts.Out, "out", "campaign.jsonl", "output JSONL path")
	flag.IntVar(&opts.TermsPerCategory, "terms", 0, "terms per category (0 = full corpus)")
	flag.IntVar(&opts.Days, "days", 5, "days per phase")
	flag.IntVar(&opts.Machines, "machines", 44, "crawl machines in the /24")
	flag.Uint64Var(&opts.Seed, "seed", 1, "engine seed (in-process mode)")
	flag.StringVar(&opts.PinnedDatacenter, "datacenter", "dc-0", "pinned datacenter ('' = unpinned)")
	flag.DurationVar(&opts.Wait, "wait", 11*time.Minute, "spacing between successive terms")
	flag.StringVar(&opts.CorpusPath, "corpus", "", "custom query corpus JSON (default: the study's 240 terms)")
	flag.IntVar(&opts.Fetch.Attempts, "retries", 3, "fetch attempts per query (1 = no retries)")
	flag.DurationVar(&opts.Fetch.Backoff, "retry-backoff", 30*time.Second, "linear backoff base between fetch attempts")
	flag.DurationVar(&opts.Fetch.Timeout, "fetch-timeout", 30*time.Second, "per-attempt fetch timeout")
	flag.Float64Var(&opts.FailureBudget, "failure-budget", 0.05, "fraction of a term sweep allowed to fail after retries before aborting (0 = strict)")
	flag.Float64Var(&opts.ShedBudget, "shed-budget", 0.05, "fraction of a term sweep allowed to end shed by server admission control (0 = strict)")
	flag.IntVar(&opts.Fetch.BreakerThreshold, "breaker-threshold", 0, "consecutive failures that open the per-browser circuit breaker (0 = off)")
	flag.DurationVar(&opts.Fetch.BreakerCooldown, "breaker-cooldown", time.Minute, "open-state dwell before the breaker probes the server again")
	flag.DurationVar(&opts.Fetch.Deadline, "deadline", 0, "end-to-end fetch deadline propagated to the server as X-Deadline-Ms (0 = none)")
	flag.Int64Var(&opts.Fetch.MaxBody, "max-body", 0, "response body byte cap; oversized pages fail permanently (0 = browser default)")
	flag.StringVar(&opts.Checkpoint, "checkpoint", "", "campaign cursor path (default: <out>.ckpt)")
	flag.BoolVar(&opts.Resume, "resume", false, "restart from the last completed term sweep in -checkpoint")
	flag.StringVar(&opts.TraceOut, "trace-out", "", "write the campaign timeline as Chrome trace-event JSON (Perfetto / chrome://tracing)")
	flag.IntVar(&opts.TraceCapacity, "trace-capacity", 0, "span ring capacity for -trace-out (0 = campaign-sized default)")
	flag.StringVar(&opts.MetricsOut, "metrics-out", "", "write a final Prometheus text metrics snapshot at campaign end")
	flag.StringVar(&opts.StatzAddr, "statz-addr", "", "serve the live audit surface (/statz, /metricsz, /tracez) on this address during the campaign")
	flag.StringVar(&opts.StatzOut, "statz-out", "", "write the final /statz snapshot JSON at campaign end")
	flag.Float64Var(&opts.DriftThreshold, "drift-threshold", 0, "sweep-over-sweep personalization drift that emits a drift event (0 = off)")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	verbose := flag.Bool("v", false, "debug logging: one record per fetch with its trace ID")
	flag.Parse()

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	logger := slog.New(telemetry.NewLogHandler(os.Stderr, *logFormat, level))
	opts.Logger = logger

	wall := simclock.Wall()
	start := wall.Now()
	n, err := runCrawl(opts)
	if err != nil {
		logger.Error("crawl failed", "err", err)
		os.Exit(1)
	}
	logger.Info("crawl complete",
		"observations", n, "out", opts.Out,
		"elapsed", wall.Now().Sub(start).Round(time.Millisecond).String())
}
