package engine

import (
	"errors"
	"testing"
	"time"

	"geoserp/internal/simclock"
	"geoserp/internal/telemetry"
)

func TestSearchAbandonsPastDeadline(t *testing.T) {
	reg := telemetry.NewRegistry()
	clk := simclock.NewManual(time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC))
	e := New(DefaultConfig(), clk, WithTelemetry(reg))

	req := Request{Query: "Coffee", ClientIP: "1.2.3.4", Deadline: clk.Now().Add(-time.Millisecond)}
	if _, err := e.Search(req); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	abandoned := reg.Counter("engine_deadline_abandoned_total", "")
	if got := abandoned.Value(); got != 1 {
		t.Fatalf("engine_deadline_abandoned_total = %d, want 1", got)
	}

	// A deadline still in the future is honoured without abandoning.
	req.Deadline = clk.Now().Add(time.Hour)
	if _, err := e.Search(req); err != nil {
		t.Fatalf("future-deadline search failed: %v", err)
	}
	// And the zero value means no deadline at all.
	req.Deadline = time.Time{}
	if _, err := e.Search(req); err != nil {
		t.Fatalf("deadline-free search failed: %v", err)
	}
	if got := abandoned.Value(); got != 1 {
		t.Fatalf("engine_deadline_abandoned_total = %d after live requests, want still 1", got)
	}
}
