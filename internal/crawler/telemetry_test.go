package crawler

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"geoserp/internal/geo"
	"geoserp/internal/telemetry"
)

func TestPhaseReportsProgressCounters(t *testing.T) {
	rig := newRig(t, DefaultConfig(), nil)
	var buf bytes.Buffer
	rig.cr.Logger = telemetry.NewLogger(&buf, "text")
	phase := smallPhase(2, geo.County, 1)
	obs, err := rig.cr.RunCampaign(context.Background(), []Phase{phase})
	if err != nil {
		t.Fatal(err)
	}

	reg := rig.cr.Telemetry
	if reg == nil {
		t.Fatal("crawler did not create a telemetry registry")
	}
	var rendered bytes.Buffer
	if err := reg.WritePrometheus(&rendered); err != nil {
		t.Fatal(err)
	}
	out := rendered.String()

	// 2 terms × 15 county locations × 2 roles.
	wantQueries := 2 * 15 * 2
	for _, want := range []string{
		"crawler_queries_total 60",
		"crawler_terms_completed_total 2",
		"browser_fetches_total 60",
		"crawler_round_duration_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("registry missing %q:\n%s", want, out)
		}
	}
	if len(obs) != wantQueries {
		t.Fatalf("observations = %d, want %d", len(obs), wantQueries)
	}

	// Structured day summary reaches the logger.
	log := buf.String()
	for _, want := range []string{"phase day complete", "terms_completed=2", "queries_issued=60"} {
		if !strings.Contains(log, want) {
			t.Fatalf("day summary missing %q:\n%s", want, log)
		}
	}
}

func TestTraceIDsEndToEnd(t *testing.T) {
	rig := newRig(t, DefaultConfig(), nil)
	phase := smallPhase(1, geo.County, 1)
	obs, err := rig.cr.RunCampaign(context.Background(), []Phase{phase})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, o := range obs {
		// The stored ID must match the deterministic mint for the
		// observation's coordinates — proving the crawler-minted ID made
		// the round trip through the wire and the server's echo.
		want := telemetry.MintTraceID(0, phase.Name, o.Granularity, "0", o.Term, o.LocationID, string(o.Role))
		if o.TraceID != want {
			t.Fatalf("observation %s/%s trace = %q, want %q", o.LocationID, o.Role, o.TraceID, want)
		}
		if o.Page.TraceID != o.TraceID {
			t.Fatalf("page trace %q != observation trace %q", o.Page.TraceID, o.TraceID)
		}
		if seen[o.TraceID] {
			t.Fatalf("trace %s minted twice", o.TraceID)
		}
		seen[o.TraceID] = true
	}
}

func TestValidationBrowsersShareRegistry(t *testing.T) {
	rig := newRig(t, DefaultConfig(), nil)
	corpus := smallPhase(1, geo.County, 1).Terms
	if _, err := rig.cr.RunValidation(corpus, geo.Point{Lat: 41.4993, Lon: -81.6944}, 3); err != nil {
		t.Fatal(err)
	}
	if got := rig.cr.Telemetry.Counter("browser_fetches_total", "").Value(); got != 3 {
		t.Fatalf("browser_fetches_total = %d, want 3", got)
	}
}
