package engine

import (
	"slices"
	"strings"
	"testing"
	"time"

	"geoserp/internal/simclock"
	"geoserp/internal/telemetry"
)

func TestTelemetryInstrumentsSearch(t *testing.T) {
	reg := telemetry.NewRegistry()
	clk := simclock.NewManual(time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC))
	cfg := DefaultConfig()
	cfg.RateBurst = 2
	cfg.RatePerMinute = 0.001
	e := New(cfg, clk, WithTelemetry(reg))

	req := Request{Query: "Coffee", ClientIP: "10.0.0.1", Datacenter: "dc-0"}
	for i := 0; i < 2; i++ {
		if _, err := e.Search(req); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Search(req); err != ErrRateLimited {
		t.Fatalf("third request: err = %v, want rate limited", err)
	}

	if e.Served() != 2 || e.RateLimited() != 1 {
		t.Fatalf("served=%d limited=%d", e.Served(), e.RateLimited())
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"engine_served_total 2",
		"engine_ratelimited_total 1",
		`engine_requests_total{datacenter="dc-0"} 2`,
		"# TYPE engine_stage_duration_seconds histogram",
		`engine_stage_duration_seconds_count{stage="history"} 2`,
		`engine_stage_duration_seconds_count{stage="retrieve"} 2`,
		`engine_stage_duration_seconds_count{stage="rerank"} 2`,
		`engine_stage_duration_seconds_count{stage="assemble"} 2`,
		"engine_ratelimit_check_duration_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
}

func TestTelemetryPrivateRegistryByDefault(t *testing.T) {
	clk := simclock.NewManual(time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC))
	a := New(DefaultConfig(), clk)
	b := New(DefaultConfig(), clk)
	if a.Telemetry() == nil || a.Telemetry() == b.Telemetry() {
		t.Fatal("engines without WithTelemetry must get private registries")
	}
}

// TestStageVocabulary: one traced search records exactly the stage
// table's stages in each of three forms — engine.* child spans of the
// request span and search.wide stages, both in table order, and one
// engine_stage_duration_seconds observation per stage. The table itself
// is pinned to the names perfbench's ledger and docs/OBSERVABILITY.md use.
func TestStageVocabulary(t *testing.T) {
	want := []string{"parse", "noise", "history", "retrieve", "rerank", "assemble"}
	if !slices.Equal(stageNames[:], want) {
		t.Fatalf("stage table = %v, want %v", stageNames, want)
	}

	reg := telemetry.NewRegistry()
	clk := simclock.NewManual(time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC))
	e := New(quietConfig(), clk, WithTelemetry(reg))
	spans := telemetry.NewSpanRecorder(64, clk)
	root := spans.StartRoot("5eed0123456789ab", "test.request")
	rootID := root.ID()
	var wide telemetry.WideEvent
	if _, err := e.Search(Request{Query: "Coffee", GPS: &cleveland, ClientIP: "1.2.3.4",
		TraceID: "5eed0123456789ab", Span: root, Wide: &wide}); err != nil {
		t.Fatal(err)
	}
	root.End()

	var spanStages []string
	for _, s := range spans.Snapshot() {
		if s.SpanID == rootID {
			continue
		}
		name, ok := strings.CutPrefix(s.Name, "engine.")
		if !ok || s.ParentID != rootID {
			t.Fatalf("span %q (parent %s) is not an engine.* child of the request span", s.Name, s.ParentID)
		}
		spanStages = append(spanStages, name)
	}
	if !slices.Equal(spanStages, want) {
		t.Fatalf("engine.* spans = %v, want %v", spanStages, want)
	}

	var wideStages []string
	for _, s := range wide.Stages() {
		wideStages = append(wideStages, s.Name)
	}
	if !slices.Equal(wideStages, want) {
		t.Fatalf("search.wide stages = %v, want %v", wideStages, want)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var histStages []string
	for _, line := range strings.Split(b.String(), "\n") {
		rest, ok := strings.CutPrefix(line, `engine_stage_duration_seconds_count{stage="`)
		if !ok {
			continue
		}
		name, count, _ := strings.Cut(rest, `"} `)
		if count != "1" {
			t.Fatalf("stage %q observed %s times, want 1", name, count)
		}
		histStages = append(histStages, name)
	}
	slices.Sort(histStages)
	sorted := slices.Sorted(slices.Values(want))
	if !slices.Equal(histStages, sorted) {
		t.Fatalf("engine_stage_duration_seconds children = %v, want %v", histStages, sorted)
	}
}
