package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"geoserp/internal/analysis"
	"geoserp/internal/report"
	"geoserp/internal/storage"
)

// options collects the analyze command's inputs.
type options struct {
	// In is the JSONL observations path.
	In string
	// Figure restricts output to one figure (0 = all, 1 = Table 1).
	Figure int
	// CSVDir, when set, receives CSV exports.
	CSVDir string
	// SVGDir, when set, receives SVG figure images.
	SVGDir string
	// HTMLPath, when set, receives a single self-contained HTML report.
	HTMLPath string
	// Extended also runs the §5 follow-up analyses.
	Extended bool
}

// runAnalyze loads the crawl and writes the requested figures to w.
func runAnalyze(opts options, w io.Writer) error {
	if opts.Figure < 0 || opts.Figure > 8 {
		return fmt.Errorf("analyze: -figure takes 1 (Table 1) to 8, or 0 for all; got -figure=%d", opts.Figure)
	}
	obs, err := storage.LoadJSONL(opts.In)
	if err != nil {
		return err
	}
	d, err := analysis.NewDataset(obs)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "analyze: %d observations, %d slots, days=%v\n\n",
		len(obs), d.Pairs(), d.Days())

	// One pass over the report plan serves both selections: what the
	// flags print and, with -html, what the HTML report lays out. want
	// notes which of the two the next artifacts are for.
	var arts, htmlArts []report.Artifact
	var printed, inHTML bool
	report.Study(d, func(name string, figure int, extended bool) bool {
		printed = opts.Figure == 0 || opts.Figure == figure
		if extended {
			printed = opts.Extended
		}
		inHTML = opts.HTMLPath != "" && report.InHTMLReport(name, figure, extended)
		return printed || inHTML
	}, func(a report.Artifact) {
		if printed {
			fmt.Fprintln(w, a.Text)
			arts = append(arts, a)
		}
		if inHTML {
			htmlArts = append(htmlArts, a)
		}
	})

	// Files are written once every selected artifact is printed: the CSV
	// directory always, the SVG directory only once an image is written.
	if opts.CSVDir != "" {
		if err := os.MkdirAll(opts.CSVDir, 0o755); err != nil {
			return err
		}
	}
	for _, a := range arts {
		if opts.CSVDir != "" && a.CSV != nil {
			if err := a.CSV.SaveCSV(filepath.Join(opts.CSVDir, a.Name+".csv")); err != nil {
				return err
			}
		}
		if opts.SVGDir == "" {
			continue
		}
		for _, img := range a.Images {
			if err := os.MkdirAll(opts.SVGDir, 0o755); err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(opts.SVGDir, img.Name+".svg"), []byte(img.SVG), 0o644); err != nil {
				return err
			}
		}
	}
	if opts.HTMLPath != "" {
		doc, err := report.RenderHTML(report.BuildHTMLReport(htmlArts))
		if err != nil {
			return err
		}
		if err := os.WriteFile(opts.HTMLPath, []byte(doc), 0o644); err != nil {
			return err
		}
	}
	return nil
}
