package engine_test

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"geoserp/internal/engine"
	"geoserp/internal/serp"
	"geoserp/internal/serpserver"
	"geoserp/internal/simclock"
)

// The paper's prior work found browser/OS choice does not trigger
// personalization; our engine honours that. engine.Request carries no
// User-Agent, so the only way one could reach the ranking is through the
// HTTP front end that builds the Request: drive the engine through it.
func TestUserAgentDoesNotPersonalize(t *testing.T) {
	// Every stochastic mechanism off, as in the package's quiet engine, so
	// two searches differ only in what the front end passes on.
	cfg := engine.DefaultConfig()
	cfg.WebJitterSigma = 0
	cfg.PlaceJitterSigma = 0
	cfg.NewsJitterSigma = 0
	cfg.Buckets = 1
	cfg.BucketWeightSpread = 0
	cfg.Datacenters = 1
	cfg.ReplicaSkew = 0
	cfg.MapsCardProb = 1.0
	cfg.IPGeoErrorKm = 0
	cfg.RateBurst = 1 << 20
	cfg.RatePerMinute = 1 << 20
	clk := simclock.NewManual(time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC))
	h := serpserver.NewHandler(engine.New(cfg, clk))

	search := func(ua string) []string {
		t.Helper()
		req := httptest.NewRequest("GET", "/search?q=Coffee&ll=41.4993,-81.6944", nil)
		req.RemoteAddr = "1.2.3.4:54321"
		req.Header.Set("User-Agent", ua)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("User-Agent %q: status = %d", ua, w.Code)
		}
		page, err := serp.ParseHTML(w.Body.String())
		if err != nil {
			t.Fatalf("User-Agent %q: %v", ua, err)
		}
		return page.Links()
	}
	r1 := search("Mozilla/5.0 (iPhone; CPU iPhone OS 8_0 like Mac OS X) Safari/600.1.4")
	r2 := search("Mozilla/5.0 (X11; Linux x86_64) Firefox/38.0")
	if len(r1) == 0 {
		t.Fatal("no results")
	}
	if len(r1) != len(r2) {
		t.Fatalf("user agent changed results: %d links vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("user agent changed results: link %d is %q vs %q", i, r1[i], r2[i])
		}
	}
}
