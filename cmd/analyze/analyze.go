package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"geoserp/internal/analysis"
	"geoserp/internal/geo"
	"geoserp/internal/queries"
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

	show := func(n int) bool { return opts.Figure == 0 || opts.Figure == n }

	var exports []func() error
	export := func(name string, tbl *storage.Table) {
		if opts.CSVDir == "" {
			return
		}
		exports = append(exports, func() error {
			return tbl.SaveCSV(filepath.Join(opts.CSVDir, name))
		})
	}
	svg := func(name, doc string) {
		if opts.SVGDir == "" {
			return
		}
		exports = append(exports, func() error {
			if err := os.MkdirAll(opts.SVGDir, 0o755); err != nil {
				return err
			}
			return os.WriteFile(filepath.Join(opts.SVGDir, name), []byte(doc), 0o644)
		})
	}

	if show(1) {
		fmt.Fprintln(w, report.Table1(queries.Table1Terms()))
	}
	if show(2) {
		cells := d.NoiseByGranularity()
		fmt.Fprintln(w, report.Figure2(cells))
		export("figure2.csv", report.Figure2CSV(cells))
		svg("figure2_edit.svg", report.Figure2SVG(cells))
		svg("figure2_jaccard.svg", report.Figure2JaccardSVG(cells))
	}
	if show(3) {
		terms := d.NoisePerTerm("local")
		fmt.Fprintln(w, report.Figure3(terms))
		export("figure3.csv", report.Figure3CSV(terms))
		svg("figure3.svg", report.Figure3SVG(terms))
	}
	if show(4) {
		attr := d.NoiseByResultType("local", "county")
		fmt.Fprintln(w, report.Figure4(attr))
		export("figure4.csv", report.Figure4CSV(attr))
		svg("figure4.svg", report.Figure4SVG(attr))
	}
	if show(5) {
		cells := d.PersonalizationByGranularity()
		fmt.Fprintln(w, report.Figure5(cells))
		export("figure5.csv", report.Figure5CSV(cells))
		svg("figure5.svg", report.Figure5SVG(cells))
	}
	if show(6) {
		terms := d.PersonalizationPerTerm("local")
		fmt.Fprintln(w, report.Figure6(terms))
		export("figure6.csv", report.Figure6CSV(terms))
		svg("figure6.svg", report.Figure6SVG(terms))
	}
	if show(7) {
		cells := d.PersonalizationByResultType()
		fmt.Fprintln(w, report.Figure7(cells))
		export("figure7.csv", report.Figure7CSV(cells))
		svg("figure7.svg", report.Figure7SVG(cells))
	}
	if show(8) {
		series := d.ConsistencyOverTime("local")
		fmt.Fprintln(w, report.Figure8(series))
		export("figure8.csv", report.Figure8CSV(series))
		for _, s := range series {
			svg("figure8_"+s.Granularity+".svg", report.Figure8SVG(s))
		}
	}
	if opts.Figure == 0 {
		rows := d.DemographicCorrelations(geo.StudyDataset(), "local")
		fmt.Fprintln(w, report.Demographics(rows))
		export("demographics.csv", report.DemographicsCSV(rows))
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
			clusters := m.Clusters(threshold)
			fmt.Fprintln(w, report.Clusters(g, clusters, threshold))
			export("clusters_"+g+".csv", report.ClustersCSV(g, clusters))
		}
		scopes := d.PoliticianScopeBreakdown(queries.StudyCorpus())
		fmt.Fprintln(w, report.ScopeBreakdown(scopes))
		export("politician_scopes.csv", report.ScopeBreakdownCSV(scopes))
		fmt.Fprintln(w, report.CommonNames(d.CommonNameAmbiguity(queries.StudyCorpus())))
		bias := d.DomainBiasByLocation("state", "local", 0.02)
		fmt.Fprintln(w, report.DomainBias(bias, 25))
		export("domain_bias.csv", report.DomainBiasCSV(bias))
		rc := d.ReorderingVsComposition()
		fmt.Fprintln(w, report.Reordering(rc))
		export("reordering.csv", report.ReorderingCSV(rc))
		bins, fit := d.DistanceDecay(geo.StudyDataset(), "local")
		fmt.Fprintln(w, report.DistanceDecay(bins, fit))
		export("distance_decay.csv", report.DistanceDecayCSV(bins))
		svg("distance_decay.svg", report.DistanceDecaySVG(bins))
	}

	if opts.CSVDir != "" {
		if err := os.MkdirAll(opts.CSVDir, 0o755); err != nil {
			return err
		}
	}
	for _, fn := range exports {
		if err := fn(); err != nil {
			return err
		}
	}
	if opts.HTMLPath != "" {
		doc, err := report.RenderHTML(report.BuildHTMLReport(d, geo.StudyDataset()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(opts.HTMLPath, []byte(doc), 0o644); err != nil {
			return err
		}
	}
	return nil
}
