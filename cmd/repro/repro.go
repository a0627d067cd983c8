package main

import (
	"fmt"
	"io"
	"log/slog"
	"os"

	"geoserp"

	"geoserp/internal/analysis"
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

	printText := func(a report.Artifact) { fmt.Fprintln(w, a.Text) }
	if opts.Table == 1 && opts.Figure == 0 && opts.Experiment == "" {
		// Table 1 reads no dataset, so no campaign runs for it.
		report.Study(nil, func(name string, _ int, _ bool) bool { return name == "table1" }, printText)
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

	report.Study(d, func(name string, figure int, extended bool) bool {
		switch {
		case opts.Experiment == "demographics":
			return name == "demographics"
		case extended:
			return opts.Extended
		}
		return opts.Figure == 0 || opts.Figure == figure || figure == 1 && opts.Table == 1
	}, printText)
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
