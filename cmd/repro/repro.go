package main

import (
	"fmt"
	"io"
	"log/slog"
	"os"

	"geoserp"

	"geoserp/internal/analysis"
	"geoserp/internal/geo"
	"geoserp/internal/queries"
	"geoserp/internal/report"
	"geoserp/internal/storage"
)

// options collects the repro command's inputs.
type options struct {
	// Full runs the paper's complete campaign.
	Full bool
	// TermsPerCategory / Days scale the campaign when !Full.
	TermsPerCategory int
	Days             int
	// Figure restricts output to one figure (0 = everything, 1 = Table 1).
	Figure int
	// Table restricts output to one table (1 = Table 1).
	Table int
	// Experiment restricts to "validation" or "demographics".
	Experiment string
	// Save persists raw observations to this path ("" = discard).
	Save string
	// Seed is the engine seed.
	Seed uint64
	// Extended also runs the §5 follow-up analyses.
	Extended bool
	// Validators is the vantage count for the validation experiment.
	Validators int
	// TraceOut, when set, writes the campaign timeline (campaign, phase,
	// sweep, fetch-attempt, server, and engine-stage spans) as a Chrome
	// trace-event JSON file. Spans are timed on the study's virtual
	// clock, so the file is byte-identical across same-seed runs.
	TraceOut string
	// TraceCapacity bounds the span ring for -trace-out (0 = a
	// campaign-sized default).
	TraceCapacity int
	// Logger receives structured progress records on stderr (nil =
	// silent). The report artifacts on w are unaffected: telemetry never
	// touches stdout, so repro output stays byte-for-byte deterministic.
	Logger *slog.Logger
}

// runRepro reproduces the paper, writing every artifact to w.
func runRepro(opts options, w io.Writer) (err error) {
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	if opts.Validators <= 0 {
		opts.Validators = 50
	}
	if opts.Table != 0 && opts.Table != 1 {
		return fmt.Errorf("repro: the paper has one table (Table 1); got -table=%d", opts.Table)
	}
	if opts.Figure < 0 || opts.Figure > 8 {
		return fmt.Errorf("repro: -figure takes 1 (Table 1) to 8, or 0 for everything; got -figure=%d", opts.Figure)
	}
	if opts.Figure == 1 {
		opts.Figure, opts.Table = 0, 1
	}

	cfg := geoserp.DefaultStudyConfig()
	if opts.Seed != 0 {
		cfg.Engine.Seed = opts.Seed
	}
	if opts.TraceOut != "" {
		cfg.TraceCapacity = opts.TraceCapacity
		if cfg.TraceCapacity <= 0 {
			cfg.TraceCapacity = 1 << 17
		}
	}
	study, err := geoserp.NewStudy(cfg)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := study.Close(); err == nil {
			err = cerr
		}
	}()
	if opts.TraceOut != "" {
		// Written on every exit path — a -figure or -experiment run still
		// leaves a (smaller) timeline behind.
		defer func() {
			if werr := writeTraceFile(opts.TraceOut, study.Spans); werr != nil {
				logger.Error("trace write failed", "err", werr)
			} else {
				logger.Info("campaign trace written",
					"path", opts.TraceOut, "spans", study.Spans.Len())
			}
		}()
	}

	if opts.Table == 1 && opts.Figure == 0 && opts.Experiment == "" {
		fmt.Fprintln(w, report.Table1(geoserp.Table1Terms()))
		return nil
	}

	if opts.Experiment == "validation" || opts.Experiment == "" && opts.Figure == 0 {
		terms := geoserp.StudyCorpus().Category(queries.Controversial)
		if !opts.Full && opts.TermsPerCategory > 0 && len(terms) > opts.TermsPerCategory {
			terms = terms[:opts.TermsPerCategory]
		}
		res, err := study.RunValidation(terms, geoserp.Point{Lat: 41.4993, Lon: -81.6944}, opts.Validators)
		if err != nil {
			return fmt.Errorf("repro: validation: %w", err)
		}
		fmt.Fprintln(w, report.Validation(res))
		if opts.Experiment == "validation" {
			return nil
		}
	}

	phases := study.StudyPhases()
	if !opts.Full {
		phases = study.ScaledPhases(opts.TermsPerCategory, opts.Days)
	}
	study.Crawler.Logger = logger
	start := study.Clock.Now()
	obs, err := study.RunPhases(phases)
	if err != nil {
		return fmt.Errorf("repro: campaign: %w", err)
	}
	logger.Info("campaign complete",
		"observations", len(obs),
		// The study runs under virtual time, so this is the simulated
		// campaign schedule (days, not hardware seconds).
		"virtual_elapsed", study.Clock.Now().Sub(start).String())

	if opts.Save != "" {
		if err := storage.SaveJSONL(opts.Save, obs); err != nil {
			return fmt.Errorf("repro: save: %w", err)
		}
		logger.Info("raw observations saved", "path", opts.Save)
	}

	d, err := analysis.NewDataset(obs)
	if err != nil {
		return err
	}

	if opts.Experiment == "demographics" {
		fmt.Fprintln(w, report.Demographics(d.DemographicCorrelations(geo.StudyDataset(), "local")))
		return nil
	}

	show := func(n int) bool { return opts.Figure == 0 || opts.Figure == n }
	if opts.Figure == 0 || opts.Table == 1 {
		fmt.Fprintln(w, report.Table1(geoserp.Table1Terms()))
	}
	if show(2) {
		fmt.Fprintln(w, report.Figure2(d.NoiseByGranularity()))
	}
	if show(3) {
		fmt.Fprintln(w, report.Figure3(d.NoisePerTerm("local")))
	}
	if show(4) {
		fmt.Fprintln(w, report.Figure4(d.NoiseByResultType("local", "county")))
	}
	if show(5) {
		fmt.Fprintln(w, report.Figure5(d.PersonalizationByGranularity()))
	}
	if show(6) {
		fmt.Fprintln(w, report.Figure6(d.PersonalizationPerTerm("local")))
	}
	if show(7) {
		fmt.Fprintln(w, report.Figure7(d.PersonalizationByResultType()))
	}
	if show(8) {
		fmt.Fprintln(w, report.Figure8(d.ConsistencyOverTime("local")))
	}
	if opts.Figure == 0 {
		fmt.Fprintln(w, report.Demographics(d.DemographicCorrelations(geo.StudyDataset(), "local")))
		fmt.Fprintln(w, report.Scorecard(d.Scorecard()))
	}
	if opts.Extended {
		for _, g := range d.Granularities() {
			m := d.LocationSimilarity(g, "local")
			noise := 0.0
			for _, c := range d.NoiseByGranularity() {
				if c.Granularity == g && c.Category == "local" {
					noise = c.Edit.Mean
				}
			}
			threshold := noise * 1.3
			fmt.Fprintln(w, report.Clusters(g, m.Clusters(threshold), threshold))
		}
		fmt.Fprintln(w, report.ScopeBreakdown(d.PoliticianScopeBreakdown(queries.StudyCorpus())))
		fmt.Fprintln(w, report.CommonNames(d.CommonNameAmbiguity(queries.StudyCorpus())))
		fmt.Fprintln(w, report.DomainBias(d.DomainBiasByLocation("state", "local", 0.02), 25))
		fmt.Fprintln(w, report.Reordering(d.ReorderingVsComposition()))
		bins, fit := d.DistanceDecay(geo.StudyDataset(), "local")
		fmt.Fprintln(w, report.DistanceDecay(bins, fit))
	}
	return nil
}

// writeTraceFile dumps the study's recorded spans in Chrome trace-event
// format. Span times come from the virtual clock, so two runs at the
// same seed produce byte-identical files.
func writeTraceFile(path string, spans *geoserp.SpanRecorder) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("repro: trace out: %w", err)
	}
	if err := geoserp.WriteChromeTrace(f, spans.Snapshot()); err != nil {
		f.Close()
		return fmt.Errorf("repro: write trace: %w", err)
	}
	return f.Close()
}
