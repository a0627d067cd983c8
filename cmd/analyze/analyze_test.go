package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"geoserp/internal/serp"
	"geoserp/internal/storage"
)

// writeFixture writes a tiny two-location campaign file.
func writeFixture(t *testing.T) string {
	t.Helper()
	page := func(links ...string) *serp.Page {
		p := &serp.Page{Query: "Coffee", Location: "41.000000,-81.000000"}
		for _, l := range links {
			p.Cards = append(p.Cards, serp.Card{
				Type:    serp.Organic,
				Results: []serp.Result{{URL: l, Title: l}},
			})
		}
		return p
	}
	mk := func(loc string, role storage.Role, links ...string) storage.Observation {
		return storage.Observation{
			Term: "Coffee", Category: "local", Granularity: "county",
			LocationID: loc, Role: role, Day: 0, MachineIP: "10.0.0.1",
			FetchedAt: time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC),
			Page:      page(links...),
		}
	}
	obs := []storage.Observation{
		mk("d/1", storage.Treatment, "a", "b"),
		mk("d/1", storage.Control, "a", "b"),
		mk("d/2", storage.Treatment, "a", "c"),
		mk("d/2", storage.Control, "a", "c"),
	}
	path := filepath.Join(t.TempDir(), "obs.jsonl")
	if err := storage.SaveJSONL(path, obs); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunAnalyzeAllFigures(t *testing.T) {
	path := writeFixture(t)
	var buf strings.Builder
	if err := runAnalyze(options{In: path}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 1", "Figure 2", "Figure 5", "Figure 8",
		"Demographics", "Fidelity scorecard"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q", want)
		}
	}
}

func TestRunAnalyzeSingleFigure(t *testing.T) {
	path := writeFixture(t)
	var buf strings.Builder
	if err := runAnalyze(options{In: path, Figure: 2}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Figure 2") {
		t.Fatal("Figure 2 missing")
	}
	if strings.Contains(out, "Figure 5") || strings.Contains(out, "Table 1") {
		t.Fatal("unrequested figures printed")
	}
}

func TestRunAnalyzeCSVExport(t *testing.T) {
	path := writeFixture(t)
	csvDir := filepath.Join(t.TempDir(), "csv")
	var buf strings.Builder
	if err := runAnalyze(options{In: path, CSVDir: csvDir, Extended: true}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"figure2.csv", "figure5.csv", "figure8.csv",
		"demographics.csv", "domain_bias.csv", "distance_decay.csv", "clusters_county.csv"} {
		if _, err := os.Stat(filepath.Join(csvDir, f)); err != nil {
			t.Fatalf("missing export %s: %v", f, err)
		}
	}
}

func TestRunAnalyzeErrors(t *testing.T) {
	var buf strings.Builder
	if err := runAnalyze(options{In: "/nonexistent.jsonl"}, &buf); err == nil {
		t.Fatal("missing input accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(bad, []byte("{garbage}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runAnalyze(options{In: bad}, &buf); err == nil {
		t.Fatal("garbage input accepted")
	}
}

// TestRunAnalyzeBadFigure: a figure the paper does not have is rejected
// before the input is read, with nothing printed.
func TestRunAnalyzeBadFigure(t *testing.T) {
	for _, fig := range []int{-1, 9} {
		var buf strings.Builder
		err := runAnalyze(options{In: "/nonexistent.jsonl", Figure: fig}, &buf)
		if err == nil || !strings.Contains(err.Error(), "-figure") {
			t.Fatalf("-figure %d: err = %v, want a -figure error", fig, err)
		}
		if buf.Len() != 0 {
			t.Fatalf("-figure %d printed %q", fig, buf.String())
		}
	}
}

func TestRunAnalyzeSVGExport(t *testing.T) {
	path := writeFixture(t)
	svgDir := filepath.Join(t.TempDir(), "svg")
	var buf strings.Builder
	if err := runAnalyze(options{In: path, SVGDir: svgDir, Extended: true}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"figure2_edit.svg", "figure2_jaccard.svg", "figure3.svg",
		"figure4.svg", "figure5.svg", "figure6.svg", "figure7.svg",
		"figure8_county.svg", "distance_decay.svg"} {
		b, err := os.ReadFile(filepath.Join(svgDir, f))
		if err != nil {
			t.Fatalf("missing SVG %s: %v", f, err)
		}
		if !strings.HasPrefix(string(b), "<svg") {
			t.Fatalf("%s is not SVG", f)
		}
	}
}

func TestRunAnalyzeHTMLReport(t *testing.T) {
	path := writeFixture(t)
	htmlPath := filepath.Join(t.TempDir(), "report.html")
	var buf strings.Builder
	if err := runAnalyze(options{In: path, HTMLPath: htmlPath}, &buf); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(htmlPath)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(b)
	for _, want := range []string{"<!doctype html>", "Fidelity scorecard",
		"Figure 5", "<svg", "reproduction report"} {
		if !strings.Contains(doc, want) {
			t.Fatalf("HTML report missing %q", want)
		}
	}
}
