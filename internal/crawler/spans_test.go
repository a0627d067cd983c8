package crawler

import (
	"bytes"
	"context"
	"net/http/httptest"
	"sort"
	"strconv"
	"testing"
	"time"

	"geoserp/internal/browser"
	"geoserp/internal/engine"
	"geoserp/internal/geo"
	"geoserp/internal/queries"
	"geoserp/internal/serpserver"
	"geoserp/internal/simclock"
	"geoserp/internal/telemetry"
)

// spanRig builds a full traced stack — crawler, chaos transport, real
// HTTP server, engine — sharing one virtual clock and one span recorder,
// the in-test equivalent of `crawl -trace-out` against a flaky network.
func spanRig(t *testing.T, cfg Config, chaosCfg browser.ChaosConfig) (*Crawler, *telemetry.SpanRecorder) {
	t.Helper()
	clk := simclock.NewManual(time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC))
	rec := telemetry.NewSpanRecorder(1<<16, clk)
	eng := engine.New(engine.DefaultConfig(), clk)
	srv := httptest.NewServer(serpserver.NewHandler(eng, serpserver.WithSpans(rec)))
	t.Cleanup(srv.Close)
	cr, err := New(cfg, clk, srv.URL, geo.StudyDataset(), queries.StudyCorpus())
	if err != nil {
		t.Fatal(err)
	}
	chaosCfg.Clock = clk
	cr.Transport = browser.NewChaosTransport(chaosCfg, srv.Client().Transport)
	cr.Spans = rec
	return cr, rec
}

// chaosSpanConfig is shared by the attempt-span and determinism tests so
// both exercise the identical fault schedule.
func chaosSpanConfig() (Config, browser.ChaosConfig) {
	cfg := DefaultConfig()
	cfg.Fetch = browser.Policy{Attempts: 3, Backoff: time.Second}
	cfg.FailureBudget = 0.5
	return cfg, browser.ChaosConfig{Seed: 7, ErrorRate: 0.2}
}

// TestChaosRetriesRecordOneSpanPerAttempt pins the client-side span
// contract: under an injected-fault transport, every retried fetch leaves
// one "browser.fetch" span per attempt, numbered 1..n, with every
// non-final attempt recording outcome=retry.
func TestChaosRetriesRecordOneSpanPerAttempt(t *testing.T) {
	cfg, chaos := chaosSpanConfig()
	cr, rec := spanRig(t, cfg, chaos)
	if _, err := cr.RunCampaign(context.Background(), []Phase{smallPhase(2, geo.County, 1)}); err != nil {
		t.Fatal(err)
	}

	byTrace := map[string][]telemetry.SpanRecord{}
	for _, s := range rec.Snapshot() {
		if s.Name == "browser.fetch" {
			byTrace[s.TraceID] = append(byTrace[s.TraceID], s)
		}
	}
	// 2 terms × 15 county locations × 2 roles = 60 fetch slots.
	if len(byTrace) != 60 {
		t.Fatalf("fetch traces = %d, want 60", len(byTrace))
	}
	retried := 0
	for trace, spans := range byTrace {
		sort.Slice(spans, func(i, j int) bool {
			return spans[i].Attr("attempt") < spans[j].Attr("attempt")
		})
		for i, s := range spans {
			if got, _ := strconv.Atoi(s.Attr("attempt")); got != i+1 {
				t.Fatalf("trace %s: attempt attrs not 1..n: %+v", trace, spans)
			}
			outcome := s.Attr("outcome")
			switch {
			case i < len(spans)-1 && outcome != "retry":
				t.Fatalf("trace %s attempt %d: outcome = %q, want retry", trace, i, outcome)
			case i == len(spans)-1 && outcome == "retry":
				t.Fatalf("trace %s: final attempt still marked retry", trace)
			}
			if s.Attr("term") == "" {
				t.Fatalf("trace %s attempt %d: missing term attr", trace, i)
			}
		}
		if len(spans) > cfg.Fetch.Attempts {
			t.Fatalf("trace %s: %d attempts exceed the retry cap %d", trace, len(spans), cfg.Fetch.Attempts)
		}
		if len(spans) > 1 {
			retried++
		}
	}
	if retried == 0 {
		t.Fatal("chaos transport injected no retries; the test exercises nothing")
	}
}

// TestChaosCampaignTimelineIsByteDeterministic runs the same chaos
// campaign twice at one seed and requires the exported Chrome trace —
// fetch attempts, server spans, engine stages, crawler hierarchy — to be
// byte-identical: span IDs come from stable keys and times from the
// virtual clock, so goroutine scheduling cannot perturb the file.
func TestChaosCampaignTimelineIsByteDeterministic(t *testing.T) {
	run := func() []byte {
		cfg, chaos := chaosSpanConfig()
		cr, rec := spanRig(t, cfg, chaos)
		if _, err := cr.RunCampaign(context.Background(), []Phase{smallPhase(2, geo.County, 1)}); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := telemetry.WriteChromeTrace(&buf, rec.Snapshot()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("chaos campaign timelines differ: %d vs %d bytes", len(a), len(b))
	}
}

// TestCampaignSpanHierarchy checks the crawler-side span tree: one
// campaign root, one phase child per phase, one sweep span per
// (term, granularity, day) parented under its phase.
func TestCampaignSpanHierarchy(t *testing.T) {
	cfg := DefaultConfig()
	cr, rec := spanRig(t, cfg, browser.ChaosConfig{})
	phase := smallPhase(2, geo.County, 2)
	if _, err := cr.RunCampaign(context.Background(), []Phase{phase}); err != nil {
		t.Fatal(err)
	}
	var campaign, phases, sweeps []telemetry.SpanRecord
	for _, s := range rec.Snapshot() {
		switch s.Name {
		case "crawler.campaign":
			campaign = append(campaign, s)
		case "crawler.phase":
			phases = append(phases, s)
		case "crawler.sweep":
			sweeps = append(sweeps, s)
		}
	}
	if len(campaign) != 1 || len(phases) != 1 {
		t.Fatalf("campaign spans = %d, phase spans = %d; want 1 and 1", len(campaign), len(phases))
	}
	// 2 terms × 1 granularity × 2 days.
	if len(sweeps) != 4 {
		t.Fatalf("sweep spans = %d, want 4", len(sweeps))
	}
	if phases[0].ParentID != campaign[0].SpanID {
		t.Fatal("phase span not parented under the campaign span")
	}
	for _, s := range sweeps {
		if s.ParentID != phases[0].SpanID {
			t.Fatalf("sweep %q not parented under its phase", s.Attr("term"))
		}
		if s.TraceID != campaign[0].TraceID {
			t.Fatal("sweep span left the campaign trace")
		}
	}
	if got := campaign[0].Attr("phases"); got != "1" {
		t.Fatalf("campaign phases attr = %q, want 1", got)
	}
}
