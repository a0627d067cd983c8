package geoserp

import (
	"context"
	"fmt"
	"io"
	"time"

	"geoserp/internal/analysis"
	"geoserp/internal/crawler"
	"geoserp/internal/engine"
	"geoserp/internal/geo"
	"geoserp/internal/queries"
	"geoserp/internal/serp"
	"geoserp/internal/serpserver"
	"geoserp/internal/simclock"
	"geoserp/internal/storage"
	"geoserp/internal/telemetry"
)

// Re-exported core types: the public API surface mirrors the paper's
// vocabulary. Aliases keep the internal packages as the single source of
// truth while letting downstream users import only this package.
type (
	// Point is a WGS-84 coordinate.
	Point = geo.Point
	// Location is a study vantage point.
	Location = geo.Location
	// Granularity is the county/state/national scale.
	Granularity = geo.Granularity
	// Query is one corpus search term.
	Query = queries.Query
	// Page is one page of search results.
	Page = serp.Page
	// Observation is one crawled page with experimental context.
	Observation = storage.Observation
	// Phase is one campaign sweep (term set × granularities × days).
	Phase = crawler.Phase
	// Dataset indexes observations for figure regeneration.
	Dataset = analysis.Dataset
	// EngineConfig tunes the synthetic engine.
	EngineConfig = engine.Config
	// CrawlerConfig describes the crawl infrastructure.
	CrawlerConfig = crawler.Config
	// EngineRequest is a single direct (non-HTTP) engine query.
	EngineRequest = engine.Request
	// FeatureCorrelation is one demographics-analysis row.
	FeatureCorrelation = analysis.FeatureCorrelation
	// ValidationResult summarizes the GPS-vs-IP experiment.
	ValidationResult = analysis.ValidationResult
	// SpanRecorder is the bounded ring buffer collecting finished spans.
	SpanRecorder = telemetry.SpanRecorder
	// SpanRecord is one finished span as read back from a recorder.
	SpanRecord = telemetry.SpanRecord
)

// WriteChromeTrace renders recorded spans in Chrome trace-event format
// (loadable in Perfetto or chrome://tracing); byte-deterministic for a
// deterministic span set.
func WriteChromeTrace(w io.Writer, spans []SpanRecord) error {
	return telemetry.WriteChromeTrace(w, spans)
}

// Granularity constants, fine to coarse.
const (
	County   = geo.County
	State    = geo.State
	National = geo.National
)

// QueryCategory is the paper's query taxonomy.
type QueryCategory = queries.Category

// Query category constants.
const (
	LocalCategory         = queries.Local
	ControversialCategory = queries.Controversial
	PoliticianCategory    = queries.Politician
)

// NewDataset indexes crawl observations for analysis.
func NewDataset(obs []Observation) (*Dataset, error) { return analysis.NewDataset(obs) }

// ValidateGPSOverIP evaluates validation-experiment pages.
func ValidateGPSOverIP(pages map[string][]*Page) ValidationResult {
	return analysis.ValidateGPSOverIP(pages)
}

// StudyLocations returns the paper's 59 vantage points.
func StudyLocations() *geo.Dataset { return geo.StudyDataset() }

// StudyCorpus returns the paper's 240-term query corpus.
func StudyCorpus() *queries.Corpus { return queries.StudyCorpus() }

// Table1Terms returns the paper's Table 1 (example controversial terms).
func Table1Terms() []string { return queries.Table1Terms() }

// DefaultEngineConfig returns the calibrated engine configuration.
func DefaultEngineConfig() EngineConfig { return engine.DefaultConfig() }

// DefaultCrawlerConfig mirrors the study's crawl infrastructure.
func DefaultCrawlerConfig() CrawlerConfig { return crawler.DefaultConfig() }

// StudyConfig configures a Study.
type StudyConfig struct {
	// Engine tunes the synthetic search engine.
	Engine EngineConfig
	// Crawler describes the measurement infrastructure.
	Crawler CrawlerConfig
	// ListenAddr is the address the in-process SERP server binds
	// (default "127.0.0.1:0").
	ListenAddr string
	// Epoch is the virtual day-0 instant (default 2015-06-01 UTC, the
	// season of the paper's data collection).
	Epoch time.Time
	// TraceCapacity, when positive, turns on span recording: NewStudy
	// builds a SpanRecorder of this capacity on the study's virtual
	// clock (so the recorded timeline is deterministic) and exposes it
	// as Study.Spans. Export it with WriteChromeTrace — cmd/repro's
	// -trace-out does exactly that.
	TraceCapacity int
}

// DefaultStudyConfig returns the full-fidelity study setup.
func DefaultStudyConfig() StudyConfig {
	return StudyConfig{
		Engine:     engine.DefaultConfig(),
		Crawler:    crawler.DefaultConfig(),
		ListenAddr: "127.0.0.1:0",
		Epoch:      time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC),
	}
}

// Study wires the complete experiment: a virtual clock, the synthetic
// engine, a real HTTP server in front of it, and the crawler pool — the
// in-process equivalent of the paper's full measurement deployment.
type Study struct {
	// Clock is the virtual clock shared by engine and crawler. The
	// crawler drives it while RunPhases or RunValidation runs.
	Clock *simclock.Manual
	// Engine is the synthetic search engine under measurement.
	Engine *engine.Engine
	// Crawler is the measurement harness.
	Crawler *crawler.Crawler
	// Spans is the study's span timeline (nil unless
	// StudyConfig.TraceCapacity was positive).
	Spans *SpanRecorder

	server *serpserver.Server
}

// NewStudy builds and starts a study: the engine is constructed at the
// epoch, served over a real TCP socket, and the crawler pointed at it.
func NewStudy(cfg StudyConfig) (*Study, error) {
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	if cfg.Epoch.IsZero() {
		cfg.Epoch = time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)
	}
	clk := simclock.NewManual(cfg.Epoch)
	eng := engine.New(cfg.Engine, clk)
	var spans *telemetry.SpanRecorder
	var handlerOpts []serpserver.HandlerOption
	if cfg.TraceCapacity > 0 {
		spans = telemetry.NewSpanRecorder(cfg.TraceCapacity, clk)
		handlerOpts = append(handlerOpts, serpserver.WithSpans(spans))
	}
	srv, err := serpserver.Listen(cfg.ListenAddr, serpserver.NewHandler(eng, handlerOpts...))
	if err != nil {
		return nil, fmt.Errorf("geoserp: %w", err)
	}
	srv.Start()
	cr, err := crawler.New(cfg.Crawler, clk, srv.URL(), geo.StudyDataset(), queries.StudyCorpus())
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, fmt.Errorf("geoserp: %w", err)
	}
	cr.Spans = spans
	return &Study{Clock: clk, Engine: eng, Crawler: cr, Spans: spans, server: srv}, nil
}

// ServerURL returns the in-process SERP server's base URL.
func (s *Study) ServerURL() string { return s.server.URL() }

// Close shuts the SERP server down.
func (s *Study) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return s.server.Shutdown(ctx)
}

// StudyPhases returns the paper's two campaign phases (local+controversial
// then politicians, 5 days each at all three granularities).
func (s *Study) StudyPhases() []Phase {
	return crawler.ScaledPhases(queries.StudyCorpus(), 0, 0)
}

// ScaledPhases returns a proportionally reduced campaign: terms-per-
// category and days are capped, granularities kept. Scale 1 reproduces the
// full study; smaller inputs make quick demos.
func (s *Study) ScaledPhases(termsPerCategory, days int) []Phase {
	return crawler.ScaledPhases(queries.StudyCorpus(), termsPerCategory, days)
}

// RunPhases executes a campaign under virtual time and returns the
// observations.
func (s *Study) RunPhases(phases []Phase) ([]Observation, error) {
	return s.Crawler.RunCampaign(context.Background(), phases)
}

// RunValidation runs the §2.2 GPS-vs-IP validation experiment with the
// given number of vantage machines and returns its summary. The default
// inputs match the paper: controversial terms, 50 vantages.
func (s *Study) RunValidation(terms []Query, gps Point, vantages int) (ValidationResult, error) {
	pages, err := s.Crawler.RunValidation(terms, gps, vantages)
	if err != nil {
		return ValidationResult{}, err
	}
	return analysis.ValidateGPSOverIP(pages), nil
}
