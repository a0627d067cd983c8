package engine

import (
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
	e := NewCustom(cfg, clk, WithTelemetry(reg))

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
