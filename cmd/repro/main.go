// Command repro reproduces the paper end-to-end: it runs the full
// measurement campaign (or a scaled one) against the synthetic engine
// under virtual time, then prints every table and figure plus the
// validation and demographics experiments and a fidelity scorecard.
//
//	repro                      # scaled campaign (12 terms/category × 3 days) — seconds
//	repro -full                # the paper's full 240 × 59 × 5-day campaign — minutes
//	repro -figure 5            # run + print one figure
//	repro -experiment validation
//	repro -experiment demographics
//	repro -extended            # + clusters, politician scopes, common names, domain bias, reordering, distance decay
//	repro -save campaign.jsonl # also persist the raw observations
//	repro -trace-out trace.json # + the campaign timeline for Perfetto;
//	                            # virtual-clock spans make the file
//	                            # byte-identical across same-seed runs
package main

import (
	"flag"
	"os"

	"geoserp/internal/telemetry"
)

func main() {
	var opts options
	flag.BoolVar(&opts.Full, "full", false, "run the paper's full campaign (240 terms, 5 days)")
	flag.IntVar(&opts.TermsPerCategory, "terms", 12, "terms per category when not -full")
	flag.IntVar(&opts.Days, "days", 3, "days per phase when not -full")
	flag.IntVar(&opts.Figure, "figure", 0, "only this figure, 1-8 (0 = everything, 1 = Table 1)")
	flag.IntVar(&opts.Table, "table", 0, "only this table (1 = Table 1)")
	flag.StringVar(&opts.Experiment, "experiment", "", "only this experiment: validation | demographics")
	flag.StringVar(&opts.Save, "save", "", "also write raw observations to this JSONL path")
	flag.Uint64Var(&opts.Seed, "seed", 1, "engine seed")
	flag.BoolVar(&opts.Extended, "extended", false, "also run the six follow-up analyses (location clusters, politician scopes, common names, domain bias, reordering, distance decay)")
	flag.IntVar(&opts.Validators, "validators", 50, "vantage machines for the validation experiment")
	flag.StringVar(&opts.TraceOut, "trace-out", "", "write the campaign timeline as Chrome trace-event JSON (byte-identical across same-seed runs)")
	flag.IntVar(&opts.TraceCapacity, "trace-capacity", 0, "span ring capacity for -trace-out (0 = campaign-sized default)")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	flag.Parse()
	logger := telemetry.NewLogger(os.Stderr, *logFormat)
	opts.Logger = logger

	if err := runRepro(opts, os.Stdout); err != nil {
		logger.Error("repro failed", "err", err)
		os.Exit(1)
	}
}
