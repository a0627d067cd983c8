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
	if b.LastDatacenter() == "" {
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

func TestBrowserGeolocationOverrideLifecycle(t *testing.T) {
	srv := testServer(t, nil)
	b, _ := New(srv.URL, WithSourceIP("10.5.0.1"))
	b.OverrideGeolocation(cleveland)
	p1, err := b.Search("Gay Marriage")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(p1.Location, "41.4993") {
		t.Fatalf("override not applied: %q", p1.Location)
	}
	b.ClearGeolocation()
	p2, err := b.Search("Gay Marriage")
	if err != nil {
		t.Fatal(err)
	}
	if strings.HasPrefix(p2.Location, "41.4993") {
		t.Fatalf("override survived ClearGeolocation: %q", p2.Location)
	}
}

func TestBrowserCookiePersistenceAndClear(t *testing.T) {
	// With a persistent jar, the session carries search history: two
	// identical quiet-engine queries in a session differ from a fresh
	// one. Clearing cookies resets to the fresh baseline.
	srv := testServer(t, func(cfg *engine.Config) {
		cfg.WebJitterSigma = 0
		cfg.PlaceJitterSigma = 0
		cfg.NewsJitterSigma = 0
		cfg.Buckets = 1
		cfg.BucketWeightSpread = 0
		cfg.Datacenters = 1
		cfg.ReplicaSkew = 0
		cfg.MapsCardProb = 1
	})
	fresh, _ := New(srv.URL, WithSourceIP("10.5.0.9"))
	fresh.OverrideGeolocation(cleveland)
	baselinePage, err := fresh.SearchAndReset("Coffee")
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
	if _, err := b.Search("Coffee"); err != nil {
		t.Fatal(err)
	}
	if b.LastDatacenter() != "dc-2" {
		t.Fatalf("served by %q, want dc-2", b.LastDatacenter())
	}
}

func TestBrowserFingerprintSent(t *testing.T) {
	var gotUA, gotLang, gotXFF string
	probe := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotUA = r.UserAgent()
		gotLang = r.Header.Get("Accept-Language")
		gotXFF = r.Header.Get(httpheader.ForwardedFor)
		http.Error(w, "teapot", http.StatusTeapot)
	}))
	defer probe.Close()
	b, _ := New(probe.URL, WithSourceIP("10.8.0.3"))
	_, err := b.Search("x")
	if err == nil {
		t.Fatal("teapot response accepted")
	}
	if !strings.Contains(gotUA, "iPhone") {
		t.Fatalf("UA = %q, want iOS Safari", gotUA)
	}
	if gotLang != "en-US" {
		t.Fatalf("lang = %q", gotLang)
	}
	if gotXFF != "10.8.0.3" {
		t.Fatalf("xff = %q", gotXFF)
	}
	custom := Fingerprint{UserAgent: "TestBot/1.0", AcceptLanguage: "de-DE"}
	b2, _ := New(probe.URL, WithFingerprint(custom))
	b2.Search("x")
	if gotUA != "TestBot/1.0" || gotLang != "de-DE" {
		t.Fatalf("custom fingerprint not sent: %q %q", gotUA, gotLang)
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

// TestNoResultPageIsAPage searches terms that match nothing, on both
// surfaces of a real handler: the server answers 200 with an empty results
// container, and that is a page with no cards — one fetch, no retry, no
// breaker failure, no campaign time — so the next query is served at once.
func TestNoResultPageIsAPage(t *testing.T) {
	srv := testServer(t, nil)
	for _, fp := range []Fingerprint{IOSSafari8(), Firefox38Desktop()} {
		start := time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)
		clk := simclock.NewManual(start)
		done := make(chan struct{})
		go clk.DriveUntil(done)
		defer close(done)
		reg := telemetry.NewRegistry()
		b, err := New(srv.URL, WithFingerprint(fp), WithRetry(3, time.Second),
			WithBreaker(2, time.Minute), WithClock(clk), WithTelemetry(reg))
		if err != nil {
			t.Fatal(err)
		}
		b.OverrideGeolocation(cleveland)
		for _, term := range []string{"zzzzqqqxx", "zzzzqqqxy"} {
			page, err := b.Search(term)
			if err != nil {
				t.Fatalf("%s: no-result search failed: %v", fp.UserAgent, err)
			}
			if page.Query != term || len(page.Cards) != 0 {
				t.Fatalf("%s: page = %q with %d cards, want %q with none", fp.UserAgent, page.Query, len(page.Cards), term)
			}
		}
		if b.Fetches() != 2 || b.Retries() != 0 || b.BreakerState() != "closed" {
			t.Fatalf("%s: fetches=%d retries=%d breaker=%s, want 2, 0, closed",
				fp.UserAgent, b.Fetches(), b.Retries(), b.BreakerState())
		}
		if page, err := b.Search("Coffee"); err != nil || len(page.Cards) == 0 {
			t.Fatalf("%s: search after two empty pages: %v", fp.UserAgent, err)
		}
		if took := clk.Now().Sub(start); took != 0 {
			t.Fatalf("%s: three searches took %s of campaign time, want none", fp.UserAgent, took)
		}
		if tr := reg.CounterVec("browser_breaker_transitions_total", "", "transition").Values(); len(tr) != 0 {
			t.Fatalf("%s: breaker transitions %v, want none", fp.UserAgent, tr)
		}
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

func TestDesktopFingerprintIgnoresGeolocation(t *testing.T) {
	// The desktop surface (prior work's only option) has no Geolocation
	// API: the override must have no effect end-to-end.
	srv := testServer(t, func(cfg *engine.Config) {
		cfg.WebJitterSigma = 0
		cfg.PlaceJitterSigma = 0
		cfg.NewsJitterSigma = 0
		cfg.Buckets = 1
		cfg.BucketWeightSpread = 0
		cfg.Datacenters = 1
		cfg.ReplicaSkew = 0
		cfg.MapsCardProb = 1
	})
	b, err := New(srv.URL, WithFingerprint(Firefox38Desktop()), WithSourceIP("10.6.0.1"))
	if err != nil {
		t.Fatal(err)
	}
	b.OverrideGeolocation(cleveland)
	p1, err := b.SearchAndReset("Coffee")
	if err != nil {
		t.Fatal(err)
	}
	losAngeles := geo.Point{Lat: 34.0522, Lon: -118.2437}
	b.OverrideGeolocation(losAngeles)
	p2, err := b.SearchAndReset("Coffee")
	if err != nil {
		t.Fatal(err)
	}
	if !equal(p1.Links(), p2.Links()) {
		t.Fatal("desktop surface personalized on the spoofed GPS coordinate")
	}
	if strings.HasPrefix(p1.Location, "41.4993") {
		t.Fatalf("desktop page reports the spoofed coordinate: %s", p1.Location)
	}

	// The same two coordinates through the mobile surface DO differ.
	m, err := New(srv.URL, WithSourceIP("10.6.0.1"))
	if err != nil {
		t.Fatal(err)
	}
	m.OverrideGeolocation(cleveland)
	m1, err := m.SearchAndReset("Coffee")
	if err != nil {
		t.Fatal(err)
	}
	m.OverrideGeolocation(losAngeles)
	m2, err := m.SearchAndReset("Coffee")
	if err != nil {
		t.Fatal(err)
	}
	if equal(m1.Links(), m2.Links()) {
		t.Fatal("mobile surface did not personalize on the spoofed coordinate")
	}
}
