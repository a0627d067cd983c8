package crawler

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"geoserp/internal/geo"
	"geoserp/internal/queries"
	"geoserp/internal/simclock"
)

// sheddingRig points a crawler at a server that sheds every request — an
// admission gate that never finds a free slot.
func sheddingRig(t *testing.T, cfg Config) (*Crawler, *atomic.Int64) {
	t.Helper()
	clk := simclock.NewManual(time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC))
	var count atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		count.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "server overloaded, request shed (queue_full)", http.StatusServiceUnavailable)
	}))
	t.Cleanup(srv.Close)
	cr, err := New(cfg, clk, srv.URL, geo.StudyDataset(), queries.StudyCorpus())
	if err != nil {
		t.Fatal(err)
	}
	return cr, &count
}

func TestShedBudgetRecordsShedObservations(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ShedBudget = 1.0 // tolerate a fully shedding server
	cfg.Fetch.Backoff = time.Second
	cr, count := sheddingRig(t, cfg)

	obs, err := cr.RunCampaign(context.Background(), []Phase{smallPhase(2, geo.County, 1)})
	if err != nil {
		t.Fatalf("campaign aborted despite shed budget: %v", err)
	}
	if want := 2 * 15 * 2; len(obs) != want {
		t.Fatalf("observations = %d, want %d (every slot recorded)", len(obs), want)
	}
	for _, o := range obs {
		if verr := o.Validate(); verr != nil {
			t.Fatalf("invalid observation: %v", verr)
		}
		if !o.Failed || !o.Shed {
			t.Fatalf("shed slot recorded as failed=%v shed=%v", o.Failed, o.Shed)
		}
	}
	// Every query rode out the full shed-retry wave before giving up.
	if got := count.Load(); got < int64(len(obs))*2 {
		t.Fatalf("requests = %d: sheds were not retried", got)
	}
	// Sheds are budgeted apart from failures: the default (strict, zero)
	// failure budget never fired, and the shed counter owns every loss.
	inst := cr.instruments()
	if got := inst.fetchShed.With("test").Value(); got != uint64(len(obs)) {
		t.Fatalf("crawler_fetch_shed_total{test} = %d, want %d", got, len(obs))
	}
	if got := inst.fetchFailures.With("test").Value(); got != 0 {
		t.Fatalf("crawler_fetch_failures_total{test} = %d, want 0 — sheds leaked into the failure ledger", got)
	}
}

func TestShedBudgetZeroAbortsOnFirstShed(t *testing.T) {
	cfg := DefaultConfig() // ShedBudget 0: strict
	cfg.Fetch.Backoff = time.Second
	cr, _ := sheddingRig(t, cfg)
	_, err := cr.RunCampaign(context.Background(), []Phase{smallPhase(2, geo.County, 1)})
	if err == nil {
		t.Fatal("zero-shed-budget campaign tolerated a shedding server")
	}
	if !strings.Contains(err.Error(), "shed") {
		t.Fatalf("abort error does not name shedding: %v", err)
	}
}

func TestShedBudgetValidation(t *testing.T) {
	clk := simclock.NewManual(time.Now())
	ds, corpus := geo.StudyDataset(), queries.StudyCorpus()
	bad := DefaultConfig()
	bad.ShedBudget = 1.5
	if _, err := New(bad, clk, "http://x", ds, corpus); err == nil {
		t.Fatal("shed budget > 1 accepted")
	}
}
