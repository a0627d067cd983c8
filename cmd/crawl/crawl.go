package main

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"time"

	"geoserp/internal/analysis"
	"geoserp/internal/crawler"
	"geoserp/internal/engine"
	"geoserp/internal/geo"
	"geoserp/internal/queries"
	"geoserp/internal/serpserver"
	"geoserp/internal/simclock"
	"geoserp/internal/statz"
	"geoserp/internal/storage"
	"geoserp/internal/telemetry"
)

// options collects the crawl command's inputs.
type options struct {
	// Server is an existing serpd URL; "" runs an in-process engine
	// under virtual time.
	Server string
	// Out is the JSONL output path.
	Out string
	// TermsPerCategory caps each category (0 = full corpus).
	TermsPerCategory int
	// Days per phase.
	Days int
	// Machines in the crawl /24.
	Machines int
	// Seed for the in-process engine.
	Seed uint64
	// PinnedDatacenter ("" = unpinned).
	PinnedDatacenter string
	// Wait between successive terms.
	Wait time.Duration
	// CorpusPath loads a custom query corpus (JSON) instead of the
	// study's 240 terms (in-process mode).
	CorpusPath string
	// Retries is the total fetch attempts per query (1 = no retries).
	Retries int
	// RetryBackoff is the linear backoff base between attempts.
	RetryBackoff time.Duration
	// FetchTimeout bounds each fetch attempt (0 = browser default).
	FetchTimeout time.Duration
	// FailureBudget is the per-round fraction of fetches allowed to fail
	// after retries before the campaign aborts (0 = strict).
	FailureBudget float64
	// ShedBudget is the per-round fraction of fetches allowed to end shed
	// by server admission control (0 = strict).
	ShedBudget float64
	// BreakerThreshold arms the per-browser circuit breaker (0 = off).
	BreakerThreshold int
	// BreakerCooldown is the breaker's open-state dwell.
	BreakerCooldown time.Duration
	// Deadline, when positive, is each fetch's end-to-end budget,
	// propagated to the server as an absolute X-Deadline-Ms instant.
	Deadline time.Duration
	// MaxBody caps how many response-body bytes a browser reads
	// (0 = browser default); oversized pages fail permanently.
	MaxBody int64
	// Checkpoint is the campaign cursor path ("" derives Out + ".ckpt").
	Checkpoint string
	// Resume restarts from an existing checkpoint instead of from zero.
	Resume bool
	// TraceOut, when set, writes the campaign timeline (campaign, phase,
	// sweep, fetch-attempt, server, and engine-stage spans) as a Chrome
	// trace-event JSON file loadable in Perfetto or chrome://tracing.
	TraceOut string
	// TraceCapacity bounds the span ring buffer (0 = a campaign-sized
	// default). Spans beyond it evict the oldest.
	TraceCapacity int
	// MetricsOut, when set, writes a final Prometheus text-format metrics
	// snapshot at campaign end — the same numbers a live /metricsz scrape
	// would have shown.
	MetricsOut string
	// StatzAddr, when set, serves the live audit surface (/statz,
	// /metricsz, and — with -trace-out — /tracez) on that address for the
	// duration of the campaign.
	StatzAddr string
	// StatzOut, when set, writes the final /statz snapshot JSON at
	// campaign end. Setting it also enables streaming aggregation even
	// without a listen address.
	StatzOut string
	// DriftThreshold arms the stream's sweep-over-sweep drift tracker
	// (0 = off): a scope whose running personalization mean moves further
	// than this from its anchor emits a drift event.
	DriftThreshold float64
	// Logger receives structured progress records (nil = silent). At
	// Debug level it also gets one record per fetch with the minted
	// trace ID.
	Logger *slog.Logger
}

// runCrawl executes the campaign and writes the observations; it returns
// the observation count.
func runCrawl(opts options) (int, error) {
	if opts.Out == "" {
		return 0, fmt.Errorf("crawl: output path must be set")
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	corpus := queries.StudyCorpus()
	if opts.CorpusPath != "" {
		var err error
		corpus, err = queries.LoadCorpus(opts.CorpusPath)
		if err != nil {
			return 0, err
		}
	}
	ds := geo.StudyDataset()

	ccfg := crawler.DefaultConfig()
	if opts.Machines > 0 {
		ccfg.Machines = opts.Machines
	}
	ccfg.PinnedDatacenter = opts.PinnedDatacenter
	if opts.Wait > 0 {
		ccfg.WaitBetweenTerms = opts.Wait
	}
	ccfg.RetryAttempts = opts.Retries
	ccfg.RetryBackoff = opts.RetryBackoff
	ccfg.FetchTimeout = opts.FetchTimeout
	ccfg.FailureBudget = opts.FailureBudget
	ccfg.ShedBudget = opts.ShedBudget
	ccfg.BreakerThreshold = opts.BreakerThreshold
	ccfg.BreakerCooldown = opts.BreakerCooldown
	ccfg.DeadlineBudget = opts.Deadline
	ccfg.MaxBodyBytes = opts.MaxBody

	phases := crawler.ScaledPhases(corpus, opts.TermsPerCategory, opts.Days)

	// The campaign checkpoints after every completed term sweep: the
	// cursor goes to ckptPath, partial observations accumulate beside the
	// final output. Both files are removed once the campaign lands.
	ckptPath := opts.Checkpoint
	if ckptPath == "" {
		ckptPath = opts.Out + ".ckpt"
	}
	partialPath := opts.Out + ".partial"

	// The in-process engine runs on a virtual clock, which the crawler
	// drives; a live server gets real time and real waits.
	reg := telemetry.NewRegistry()
	clk := simclock.Clock(simclock.Wall())
	if opts.Server == "" {
		clk = simclock.NewManual(time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC))
	}
	spans := newCampaignRecorder(opts, clk)
	baseURL := opts.Server
	if baseURL == "" {
		ecfg := engine.DefaultConfig()
		if opts.Seed != 0 {
			ecfg.Seed = opts.Seed
		}
		// Engine, server, and crawler share one registry, so -metrics-out
		// snapshots the whole stack — engine stage histograms included.
		eng := engine.New(ecfg, clk, engine.WithCorpus(corpus), engine.WithTelemetry(reg))
		var handlerOpts []serpserver.HandlerOption
		if spans != nil {
			handlerOpts = append(handlerOpts, serpserver.WithSpans(spans))
		}
		srv, err := serpserver.Listen("127.0.0.1:0", serpserver.NewHandler(eng, handlerOpts...))
		if err != nil {
			return 0, err
		}
		srv.Start()
		baseURL = srv.URL()
		logger.Info("in-process engine ready", "url", baseURL)
	} else {
		logger.Info("targeting live server (wall-clock waits apply)", "server", baseURL)
	}
	cr, err := crawler.New(ccfg, clk, baseURL, ds, corpus)
	if err != nil {
		return 0, err
	}
	cr.Logger, cr.Telemetry, cr.Spans = logger, reg, spans
	if err := setupCheckpoint(cr, opts, ckptPath, partialPath, logger); err != nil {
		return 0, err
	}
	stz, err := setupStatz(cr, opts, clk, reg, spans, logger)
	if err != nil {
		return 0, err
	}
	defer stz.stop()
	campaignStart := clk.Now()
	obs, err := cr.RunCampaign(context.Background(), phases)
	if err != nil {
		return 0, fmt.Errorf("crawl: campaign (restartable with -resume): %w", err)
	}
	if opts.Server == "" {
		// The virtual elapsed time is the campaign's simulated schedule
		// (e.g. "30 days"), not how long the hardware took — main logs
		// the wall-clock elapsed separately.
		logger.Info("virtual campaign complete",
			"virtual_elapsed", clk.Now().Sub(campaignStart).String())
	}
	if err := storage.SaveJSONL(opts.Out, obs); err != nil {
		return 0, fmt.Errorf("crawl: save: %w", err)
	}
	// The full output landed; the crash-recovery state is now redundant.
	os.Remove(ckptPath)
	os.Remove(partialPath)
	if opts.TraceOut != "" {
		if err := writeTraceFile(opts.TraceOut, spans); err != nil {
			return 0, err
		}
		logger.Info("campaign trace written", "path", opts.TraceOut, "spans", spans.Len())
	}
	if opts.MetricsOut != "" {
		if err := writeMetricsFile(opts.MetricsOut, reg); err != nil {
			return 0, err
		}
		logger.Info("metrics snapshot written", "path", opts.MetricsOut)
	}
	if opts.StatzOut != "" {
		if err := stz.writeFinal(opts.StatzOut); err != nil {
			return 0, err
		}
		logger.Info("statz snapshot written", "path", opts.StatzOut)
	}
	logTelemetrySummary(logger, reg, len(obs))
	return len(obs), nil
}

// newCampaignRecorder builds the span ring for -trace-out and the live
// audit surface's /tracez (nil when both are off). The default capacity
// is campaign-sized: large enough that scaled-down runs never wrap, so
// the written timeline is complete and byte-deterministic.
func newCampaignRecorder(opts options, clk simclock.Clock) *telemetry.SpanRecorder {
	if opts.TraceOut == "" && opts.StatzAddr == "" {
		return nil
	}
	capacity := opts.TraceCapacity
	if capacity <= 0 {
		capacity = 1 << 17
	}
	return telemetry.NewSpanRecorder(capacity, clk)
}

// writeTraceFile dumps the recorded spans in Chrome trace-event format.
func writeTraceFile(path string, spans *telemetry.SpanRecorder) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("crawl: trace out: %w", err)
	}
	if err := telemetry.WriteChromeTrace(f, spans.Snapshot()); err != nil {
		f.Close()
		return fmt.Errorf("crawl: write trace: %w", err)
	}
	return f.Close()
}

// writeMetricsFile dumps the registry in Prometheus text format.
func writeMetricsFile(path string, reg *telemetry.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("crawl: metrics out: %w", err)
	}
	if err := reg.WritePrometheus(f); err != nil {
		f.Close()
		return fmt.Errorf("crawl: write metrics: %w", err)
	}
	return f.Close()
}

// statzRuntime holds the live audit surface attached to a campaign: the
// streaming aggregator (as the crawler's sweep sink) and, when
// -statz-addr is set, the HTTP server exposing it.
type statzRuntime struct {
	rec *statz.Recorder
	srv *serpserver.Server
	clk simclock.Clock
}

// setupStatz attaches the streaming aggregator and, when requested, the
// live audit endpoint. It returns nil (a no-op runtime) when neither
// -statz-addr nor -statz-out asked for one.
func setupStatz(cr *crawler.Crawler, opts options, clk simclock.Clock, reg *telemetry.Registry, spans *telemetry.SpanRecorder, logger *slog.Logger) (*statzRuntime, error) {
	if opts.StatzAddr == "" && opts.StatzOut == "" {
		return nil, nil
	}
	stream := analysis.NewStream(
		analysis.WithDriftThreshold(opts.DriftThreshold),
		analysis.WithStreamTelemetry(reg),
		analysis.WithStreamSpans(spans),
	)
	rec := statz.NewRecorder(stream, statz.WithProgress(cr.ProgressState))
	cr.Sink = rec
	rt := &statzRuntime{rec: rec, clk: clk}
	if opts.StatzAddr != "" {
		srv, err := serpserver.Listen(opts.StatzAddr, statz.Mux(rec, clk.Now, reg, spans))
		if err != nil {
			return nil, fmt.Errorf("crawl: statz listen: %w", err)
		}
		srv.Start()
		rt.srv = srv
		logger.Info("live audit endpoint ready", "url", srv.URL()+"/statz")
	}
	return rt, nil
}

// stop drains the statz server, if one is listening. Safe on a nil
// runtime so error paths can defer it unconditionally.
func (rt *statzRuntime) stop() {
	if rt == nil || rt.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	rt.srv.Shutdown(ctx)
	rt.srv = nil
}

// writeFinal writes the end-of-campaign snapshot for -statz-out.
func (rt *statzRuntime) writeFinal(path string) error {
	if rt == nil {
		return nil
	}
	data, err := rt.rec.SnapshotJSON(rt.clk.Now())
	if err != nil {
		return fmt.Errorf("crawl: statz snapshot: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("crawl: statz out: %w", err)
	}
	return nil
}

// setupCheckpoint arms campaign checkpointing: -resume picks up an
// existing cursor, a fresh run clears any stale one first so it cannot be
// honoured by accident.
func setupCheckpoint(cr *crawler.Crawler, opts options, ckptPath, partialPath string, logger *slog.Logger) error {
	if opts.Resume {
		if err := cr.Resume(ckptPath, partialPath); err != nil {
			return err
		}
		logger.Info("resuming from checkpoint", "checkpoint", ckptPath, "partial", partialPath)
		return nil
	}
	os.Remove(ckptPath)
	os.Remove(partialPath)
	cr.EnableCheckpoint(ckptPath, partialPath)
	return nil
}

// logTelemetrySummary emits the campaign's end-of-run counters — the same
// numbers a live /metricsz scrape would show — as one structured record.
func logTelemetrySummary(logger *slog.Logger, reg *telemetry.Registry, nObs int) {
	logger.Info("campaign telemetry",
		"observations", nObs,
		"queries_issued", reg.Counter("crawler_queries_total", "").Value(),
		"terms_completed", reg.Counter("crawler_terms_completed_total", "").Value(),
		"fetches", reg.Counter("browser_fetches_total", "").Value(),
		"rate_limited_429s", reg.Counter("browser_rate_limited_total", "").Value(),
		"retries", reg.Counter("browser_retries_total", "").Value(),
		"fetch_failures", reg.CounterVec("crawler_fetch_failures_total", "", "phase").Total(),
		"fetch_retries", reg.CounterVec("crawler_fetch_retries_total", "", "phase").Total(),
		"fetch_shed", reg.CounterVec("crawler_fetch_shed_total", "", "phase").Total())
}
