package browser

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"geoserp/internal/engine"
	"geoserp/internal/geo"
	"geoserp/internal/httpheader"
	"geoserp/internal/serpserver"
	"geoserp/internal/simclock"
	"geoserp/internal/telemetry"
)

var cleveland = geo.Point{Lat: 41.4993, Lon: -81.6944}

func testServer(t *testing.T, mutate func(*engine.Config)) *httptest.Server {
	t.Helper()
	clk := simclock.NewManual(time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC))
	cfg := engine.DefaultConfig()
	cfg.RateBurst = 1 << 20
	cfg.RatePerMinute = 1 << 20
	if mutate != nil {
		mutate(&cfg)
	}
	srv := httptest.NewServer(serpserver.NewHandler(engine.New(cfg, clk)))
	t.Cleanup(srv.Close)
	return srv
}

// quiet turns the engine's noise off, so only location and history can
// change a page.
func quiet(cfg *engine.Config) {
	cfg.WebJitterSigma = 0
	cfg.PlaceJitterSigma = 0
	cfg.NewsJitterSigma = 0
	cfg.Buckets = 1
	cfg.BucketWeightSpread = 0
	cfg.Datacenters = 1
	cfg.ReplicaSkew = 0
	cfg.MapsCardProb = 1
}

func TestBrowserSearch(t *testing.T) {
	srv := testServer(t, nil)
	b, err := New(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	b.OverrideGeolocation(cleveland)
	page, err := b.Search("Coffee")
	if err != nil {
		t.Fatal(err)
	}
	if page.Query != "Coffee" {
		t.Fatalf("query = %q", page.Query)
	}
	if !strings.HasPrefix(page.Location, "41.4993") {
		t.Fatalf("page location %q does not match spoofed GPS", page.Location)
	}
	if b.Fetches() != 1 {
		t.Fatalf("fetches = %d", b.Fetches())
	}
	if page.Datacenter == "" {
		t.Fatal("datacenter not recorded")
	}
}

func TestBrowserValidation(t *testing.T) {
	if _, err := New("not a url::"); err == nil {
		t.Fatal("junk URL accepted")
	}
	if _, err := New("/relative"); err == nil {
		t.Fatal("relative URL accepted")
	}
	srv := testServer(t, nil)
	b, _ := New(srv.URL)
	if _, err := b.Search(""); err == nil {
		t.Fatal("empty term accepted")
	}
}

// An override applies to every search until another replaces it, and the
// engine personalizes on it; a browser that installs none is located by
// its IP.
func TestBrowserGeolocationOverrideLifecycle(t *testing.T) {
	srv := testServer(t, quiet)
	b, _ := New(srv.URL, WithSourceIP("10.5.0.1"))
	b.OverrideGeolocation(cleveland)
	p1, err := b.Search("Coffee")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(p1.Location, "41.4993") {
		t.Fatalf("override not applied: %q", p1.Location)
	}
	b.ClearCookies()
	b.OverrideGeolocation(geo.Point{Lat: 34.0522, Lon: -118.2437})
	p2, err := b.Search("Coffee")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(p2.Location, "34.0522") {
		t.Fatalf("second override not applied: %q", p2.Location)
	}
	if equal(p1.Links(), p2.Links()) {
		t.Fatal("the engine did not personalize on the spoofed coordinate")
	}
	plain, _ := New(srv.URL, WithSourceIP("10.5.0.1"))
	p3, err := plain.Search("Coffee")
	if err != nil {
		t.Fatal(err)
	}
	if strings.HasPrefix(p3.Location, "41.4993") || strings.HasPrefix(p3.Location, "34.0522") {
		t.Fatalf("a browser without an override was located at %q", p3.Location)
	}
}

func TestBrowserCookiePersistenceAndClear(t *testing.T) {
	// With a persistent jar, the session carries search history: two
	// identical quiet-engine queries in a session differ from a fresh
	// one. Clearing cookies resets to the fresh baseline.
	srv := testServer(t, quiet)
	fresh, _ := New(srv.URL, WithSourceIP("10.5.0.9"))
	fresh.OverrideGeolocation(cleveland)
	baselinePage, err := fresh.Search("Coffee")
	if err != nil {
		t.Fatal(err)
	}
	baseline := baselinePage.Links()

	b, _ := New(srv.URL, WithSourceIP("10.5.0.9"))
	b.OverrideGeolocation(cleveland)
	if _, err := b.Search("Coffee"); err != nil {
		t.Fatal(err)
	}
	second, err := b.Search("Coffee")
	if err != nil {
		t.Fatal(err)
	}
	if equal(second.Links(), baseline) {
		t.Fatal("cookie-carrying session showed no history personalization")
	}
	b.ClearCookies()
	third, err := b.Search("Coffee")
	if err != nil {
		t.Fatal(err)
	}
	if !equal(third.Links(), baseline) {
		t.Fatal("ClearCookies did not reset history personalization")
	}
}

func TestBrowserRateLimitError(t *testing.T) {
	srv := testServer(t, func(cfg *engine.Config) {
		cfg.RateBurst = 1
		cfg.RatePerMinute = 0.0001
	})
	b, _ := New(srv.URL, WithSourceIP("10.7.0.1"))
	b.OverrideGeolocation(cleveland)
	if _, err := b.Search("Coffee"); err != nil {
		t.Fatal(err)
	}
	_, err := b.Search("Coffee")
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("err = %v, want ErrRateLimited", err)
	}
}

func TestBrowserPinnedDatacenter(t *testing.T) {
	srv := testServer(t, nil)
	b, _ := New(srv.URL, WithPinnedDatacenter("dc-2"))
	b.OverrideGeolocation(cleveland)
	page, err := b.Search("Coffee")
	if err != nil {
		t.Fatal(err)
	}
	if page.Datacenter != "dc-2" {
		t.Fatalf("served by %q, want dc-2", page.Datacenter)
	}
}

// Every request presents the study's fixed fingerprint, Safari 8 on iOS,
// and its crawl machine's address.
func TestBrowserFingerprintSent(t *testing.T) {
	var got http.Header
	probe := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = r.Header.Clone()
		http.Error(w, "teapot", http.StatusTeapot)
	}))
	defer probe.Close()
	b, _ := New(probe.URL, WithSourceIP("10.8.0.3"))
	_, err := b.Search("x")
	if err == nil {
		t.Fatal("teapot response accepted")
	}
	for key, want := range map[string]string{
		"User-Agent": "Mozilla/5.0 (iPhone; CPU iPhone OS 8_0 like Mac OS X) " +
			"AppleWebKit/600.1.4 (KHTML, like Gecko) Version/8.0 Mobile/12A365 Safari/600.1.4",
		"Accept-Language":       "en-US",
		"Accept":                "text/html",
		"Viewport-Width":        "375",
		httpheader.ForwardedFor: "10.8.0.3",
	} {
		if v := got.Values(key); len(v) != 1 || v[0] != want {
			t.Errorf("%s = %q, want %q", key, v, want)
		}
	}
}

func TestBrowserParseFailureOnGarbage(t *testing.T) {
	garbage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("<html>not a results page</html>"))
	}))
	defer garbage.Close()
	b, _ := New(garbage.URL)
	if _, err := b.Search("x"); err == nil {
		t.Fatal("garbage page parsed successfully")
	}
}

// TestNoResultPageIsAPage searches terms that match nothing on a real
// handler: the server answers 200 with an empty results container, and
// that is a page with no cards — one fetch, no retry, no breaker failure,
// no campaign time — so the next query is served at once.
func TestNoResultPageIsAPage(t *testing.T) {
	srv := testServer(t, nil)
	start := time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)
	clk := simclock.NewManual(start)
	done := make(chan struct{})
	go clk.DriveUntil(done)
	defer close(done)
	reg := telemetry.NewRegistry()
	b, err := New(srv.URL, WithPolicy(Policy{Attempts: 3, Backoff: time.Second,
		BreakerThreshold: 2, BreakerCooldown: time.Minute}), WithClock(clk), WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	b.OverrideGeolocation(cleveland)
	for _, term := range []string{"zzzzqqqxx", "zzzzqqqxy"} {
		page, err := b.Search(term)
		if err != nil {
			t.Fatalf("no-result search failed: %v", err)
		}
		if page.Query != term || len(page.Cards) != 0 {
			t.Fatalf("page = %q with %d cards, want %q with none", page.Query, len(page.Cards), term)
		}
	}
	if b.Fetches() != 2 || b.Retries() != 0 || b.BreakerState() != "closed" {
		t.Fatalf("fetches=%d retries=%d breaker=%s, want 2, 0, closed",
			b.Fetches(), b.Retries(), b.BreakerState())
	}
	if page, err := b.Search("Coffee"); err != nil || len(page.Cards) == 0 {
		t.Fatalf("search after two empty pages: %v", err)
	}
	if took := clk.Now().Sub(start); took != 0 {
		t.Fatalf("three searches took %s of campaign time, want none", took)
	}
	if tr := reg.CounterVec("browser_breaker_transitions_total", "", "transition").Values(); len(tr) != 0 {
		t.Fatalf("breaker transitions %v, want none", tr)
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
