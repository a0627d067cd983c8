package crawler

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"geoserp/internal/engine"
	"geoserp/internal/geo"
	"geoserp/internal/queries"
	"geoserp/internal/serpserver"
	"geoserp/internal/simclock"
)

// faultProxy forwards to a real handler but fails every nth request with
// the given status — the crawler-facing failure injection.
type faultProxy struct {
	next    http.Handler
	every   int64
	status  int
	counter atomic.Int64
}

func (f *faultProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.counter.Add(1)%f.every == 0 {
		http.Error(w, "injected fault", f.status)
		return
	}
	f.next.ServeHTTP(w, r)
}

func faultRig(t *testing.T, every int64, status int) *Crawler {
	t.Helper()
	clk := simclock.NewManual(time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC))
	eng := engine.New(engine.DefaultConfig(), clk)
	srv := httptest.NewServer(&faultProxy{
		next:   serpserver.NewHandler(eng),
		every:  every,
		status: status,
	})
	t.Cleanup(srv.Close)
	// Single-attempt, zero-budget config: these tests pin the strict
	// failure surface, before retries or the failure budget soften it.
	cfg := DefaultConfig()
	cfg.RetryAttempts = 1
	cr, err := New(cfg, clk, srv.URL, geo.StudyDataset(), queries.StudyCorpus())
	if err != nil {
		t.Fatal(err)
	}
	return cr
}

func TestCampaignSurfacesServerFaults(t *testing.T) {
	// A server failing 1-in-5 requests with 500s must fail the campaign
	// loudly — partial, silently corrupted datasets are worse than none.
	cr := faultRig(t, 5, http.StatusInternalServerError)
	_, err := cr.RunCampaign(context.Background(), []Phase{smallPhase(3, geo.County, 1)})
	if err == nil {
		t.Fatal("campaign succeeded despite injected 500s")
	}
}

func TestCampaignSurfacesGarbageResponses(t *testing.T) {
	clk := simclock.NewManual(time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("<html>this is not a results page</html>"))
	}))
	t.Cleanup(srv.Close)
	cr, err := New(DefaultConfig(), clk, srv.URL, geo.StudyDataset(), queries.StudyCorpus())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cr.RunCampaign(context.Background(), []Phase{smallPhase(1, geo.County, 1)}); err == nil {
		t.Fatal("campaign accepted unparseable pages")
	}
}

func TestCampaignAgainstUnreachableServer(t *testing.T) {
	clk := simclock.NewManual(time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC))
	// A port that nothing listens on.
	cr, err := New(DefaultConfig(), clk, "http://127.0.0.1:1", geo.StudyDataset(), queries.StudyCorpus())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cr.RunCampaign(context.Background(), []Phase{smallPhase(1, geo.County, 1)}); err == nil {
		t.Fatal("campaign succeeded against an unreachable server")
	}
}

func TestValidationSurfacesFaults(t *testing.T) {
	cr := faultRig(t, 3, http.StatusBadGateway)
	terms := queries.StudyCorpus().Category(queries.Controversial)[:2]
	if _, err := cr.RunValidation(terms, geo.Point{Lat: 41.5, Lon: -81.7}, 8); err == nil {
		t.Fatal("validation succeeded despite injected 502s")
	}
}
