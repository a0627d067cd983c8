package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"geoserp/internal/storage"
)

func TestRunReproTable1Only(t *testing.T) {
	var buf strings.Builder
	if err := runRepro(options{Table: 1}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "Gay Marriage") {
		t.Fatalf("out = %s", out)
	}
	if strings.Contains(out, "Figure 2") {
		t.Fatal("table-only run printed figures")
	}
}

func TestRunReproBadTable(t *testing.T) {
	var buf strings.Builder
	if err := runRepro(options{Table: 7}, &buf); err == nil {
		t.Fatal("table 7 accepted (the paper has one table)")
	}
}

// TestRunReproBadFigure: a figure the paper does not have is rejected
// before any campaign runs, with nothing printed.
func TestRunReproBadFigure(t *testing.T) {
	for _, fig := range []int{-1, 9} {
		var buf strings.Builder
		err := runRepro(options{Figure: fig, TermsPerCategory: 1, Days: 1}, &buf)
		if err == nil || !strings.Contains(err.Error(), "-figure") {
			t.Fatalf("-figure %d: err = %v, want a -figure error", fig, err)
		}
		if buf.Len() != 0 {
			t.Fatalf("-figure %d printed %q", fig, buf.String())
		}
	}
}

// TestRunReproFigure1IsTable1: -figure 1 prints Table 1, as -table 1
// does, without running a campaign.
func TestRunReproFigure1IsTable1(t *testing.T) {
	var fig, table strings.Builder
	if err := runRepro(options{Figure: 1}, &fig); err != nil {
		t.Fatal(err)
	}
	if err := runRepro(options{Table: 1}, &table); err != nil {
		t.Fatal(err)
	}
	if fig.String() != table.String() {
		t.Fatalf("-figure 1 printed:\n%s\nwant -table 1's:\n%s", fig.String(), table.String())
	}
}

func TestRunReproValidationOnly(t *testing.T) {
	var buf strings.Builder
	err := runRepro(options{
		Experiment:       "validation",
		TermsPerCategory: 3,
		Validators:       8,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Validation (§2.2)") {
		t.Fatalf("out = %s", out)
	}
	if strings.Contains(out, "Figure") {
		t.Fatal("validation-only run printed figures")
	}
}

func TestRunReproScaledEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is slow")
	}
	save := filepath.Join(t.TempDir(), "raw.jsonl")
	var buf strings.Builder
	err := runRepro(options{
		TermsPerCategory: 3,
		Days:             1,
		Validators:       6,
		Save:             save,
		Extended:         true,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Validation (§2.2)", "Table 1", "Figure 2", "Figure 3", "Figure 4",
		"Figure 5", "Figure 6", "Figure 7", "Figure 8", "Demographics",
		"Fidelity scorecard", "Location clusters", "Content analysis",
		"Personalization vs distance",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q", want)
		}
	}
	obs, err := storage.LoadJSONL(save)
	if err != nil {
		t.Fatal(err)
	}
	// (3+3 terms) × 59 × 2 roles + (3 politicians) × 59 × 2 roles, 1 day each.
	if want := 9 * 59 * 2; len(obs) != want {
		t.Fatalf("saved %d observations, want %d", len(obs), want)
	}
}

// TestRunReproIsByteDeterministic is the repro contract: two runs with the
// same seed print byte-identical artifacts. Request noise is keyed on the
// minted trace ID, so goroutine scheduling and request arrival order
// cannot perturb the output.
func TestRunReproIsByteDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is slow")
	}
	run := func() string {
		var buf strings.Builder
		err := runRepro(options{
			TermsPerCategory: 2,
			Days:             1,
			Validators:       6,
			Seed:             42,
		}, &buf)
		if err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := run(), run()
	if a != b {
		line := 1
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				t.Fatalf("outputs diverge at byte %d (line %d)", i, line)
			}
			if a[i] == '\n' {
				line++
			}
		}
		t.Fatalf("outputs differ in length: %d vs %d bytes", len(a), len(b))
	}
	if !strings.Contains(a, "Figure 2") {
		t.Fatal("determinism run produced no figures")
	}
}

func TestRunReproSingleFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is slow")
	}
	var buf strings.Builder
	err := runRepro(options{TermsPerCategory: 2, Days: 1, Figure: 5}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Figure 5:") {
		t.Fatal("Figure 5 missing")
	}
	if strings.Contains(out, "Figure 2:") || strings.Contains(out, "Fidelity") {
		t.Fatal("unrequested artifacts printed")
	}
}

// TestRunReproTraceOutIsByteDeterministic extends the repro contract to
// the -trace-out artifact: spans are timed on the study's virtual clock
// and span IDs are minted from stable keys, so two same-seed runs write
// byte-identical Chrome trace files.
func TestRunReproTraceOutIsByteDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is slow")
	}
	run := func(path string) []byte {
		var buf strings.Builder
		err := runRepro(options{
			TermsPerCategory: 2,
			Days:             1,
			Validators:       6,
			Seed:             42,
			TraceOut:         path,
		}, &buf)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	dir := t.TempDir()
	a := run(filepath.Join(dir, "a.json"))
	b := run(filepath.Join(dir, "b.json"))
	if !bytes.Equal(a, b) {
		line := 1
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				t.Fatalf("trace files diverge at byte %d (line %d)", i, line)
			}
			if a[i] == '\n' {
				line++
			}
		}
		t.Fatalf("trace files differ in length: %d vs %d bytes", len(a), len(b))
	}

	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			names[ev.Name] = true
		}
	}
	for _, want := range []string{
		"crawler.campaign", "crawler.phase", "crawler.sweep",
		"crawler.validation", "browser.fetch", "serpd.request",
		"engine.parse", "engine.retrieve", "engine.rerank", "engine.assemble",
	} {
		if !names[want] {
			t.Fatalf("trace has no %q span; span names: %v", want, names)
		}
	}
}
