// Command analyze computes the paper's tables and figures from a stored
// crawl (cmd/crawl's or repro -save's JSONL output). Which artifacts it
// prints, in what order and with which analysis arguments comes from the
// report plan, report.Study, which cmd/repro prints from too, so a stored
// campaign gets the tables and figures repro printed for it.
//
//	analyze -in campaign.jsonl                 # print every figure + scorecard
//	analyze -in campaign.jsonl -figure 5       # one figure
//	analyze -in campaign.jsonl -csv out/       # also export CSVs
//	analyze -in campaign.jsonl -extended       # + clusters, politician scopes, common names, domain bias, reordering, distance decay
package main

import (
	"flag"
	"os"

	"geoserp/internal/telemetry"
)

func main() {
	var opts options
	flag.StringVar(&opts.In, "in", "campaign.jsonl", "input JSONL path")
	flag.IntVar(&opts.Figure, "figure", 0, "figure number to print, 1-8 (0 = all, 1 = Table 1)")
	flag.StringVar(&opts.CSVDir, "csv", "", "directory to export CSV tables into")
	flag.StringVar(&opts.SVGDir, "svg", "", "directory to export SVG figure images into")
	flag.StringVar(&opts.HTMLPath, "html", "", "write a single self-contained HTML report to this path")
	flag.BoolVar(&opts.Extended, "extended", false, "also run the six follow-up analyses (location clusters, politician scopes, common names, domain bias, reordering, distance decay)")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	flag.Parse()

	if err := runAnalyze(opts, os.Stdout); err != nil {
		telemetry.NewLogger(os.Stderr, *logFormat).Error("analyze failed", "err", err)
		os.Exit(1)
	}
}
