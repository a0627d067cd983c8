package engine

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"geoserp/internal/geo"
	"geoserp/internal/metrics"
	"geoserp/internal/serp"
	"geoserp/internal/simclock"
)

var cleveland = geo.Point{Lat: 41.4993, Lon: -81.6944}

// quietConfig disables every stochastic mechanism, producing a fully
// deterministic engine for behavioral tests.
func quietConfig() Config {
	cfg := DefaultConfig()
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
	return cfg
}

func newQuietEngine() (*Engine, *simclock.Manual) {
	clk := simclock.NewManual(time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC))
	return New(quietConfig(), clk), clk
}

func TestSearchEmptyQuery(t *testing.T) {
	e, _ := newQuietEngine()
	if _, err := e.Search(Request{Query: "  ", ClientIP: "1.2.3.4"}); !errors.Is(err, ErrEmptyQuery) {
		t.Fatalf("err = %v, want ErrEmptyQuery", err)
	}
}

func TestSearchBasicPage(t *testing.T) {
	e, _ := newQuietEngine()
	r, err := e.Search(Request{Query: "Coffee", GPS: &cleveland, ClientIP: "1.2.3.4"})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Page.Validate(); err != nil {
		t.Fatalf("invalid page: %v", err)
	}
	if n := r.Page.LinkCount(); n < 12 || n > 22 {
		t.Fatalf("page has %d links, want 12-22 (paper's observed range)", n)
	}
	if r.Page.Query != "Coffee" {
		t.Fatalf("page query = %q", r.Page.Query)
	}
	if r.LocationSource != "gps" {
		t.Fatalf("location source = %q, want gps", r.LocationSource)
	}
	if r.Page.Location != cleveland.String() {
		t.Fatalf("reported location %q, want %q (Google reports the user's "+
			"precise location at the bottom of search results)", r.Page.Location, cleveland.String())
	}
}

func TestDeterminismAcrossEngines(t *testing.T) {
	run := func() []string {
		e, _ := newQuietEngine()
		var links []string
		for _, term := range []string{"Coffee", "Gay Marriage", "Barack Obama"} {
			r, err := e.Search(Request{Query: term, GPS: &cleveland, ClientIP: "1.2.3.4"})
			if err != nil {
				t.Fatal(err)
			}
			links = append(links, r.Page.Links()...)
		}
		return links
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed engines diverge at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestGPSTakesPriorityOverIP(t *testing.T) {
	// §2.2 validation: identical queries with the same GPS coordinate
	// from completely different IPs yield identical pages (quiet config
	// removes the residual noise the paper measured at 6%).
	e, _ := newQuietEngine()
	var first []string
	for i := 0; i < 10; i++ {
		ip := fmt.Sprintf("%d.%d.0.9", 11+i*13, i*7+1)
		r, err := e.Search(Request{Query: "Gay Marriage", GPS: &cleveland, ClientIP: ip})
		if err != nil {
			t.Fatal(err)
		}
		if r.LocationSource != "gps" {
			t.Fatalf("location source = %q", r.LocationSource)
		}
		if first == nil {
			first = r.Page.Links()
			continue
		}
		links := r.Page.Links()
		if len(links) != len(first) {
			t.Fatalf("IP %s changed page length", ip)
		}
		for j := range links {
			if links[j] != first[j] {
				t.Fatalf("IP %s changed results despite fixed GPS", ip)
			}
		}
	}
}

func TestIPFallbackWhenNoGPS(t *testing.T) {
	e, _ := newQuietEngine()
	e.RegisterIPLocation("5.6.7.8", cleveland)
	r, err := e.Search(Request{Query: "Coffee", ClientIP: "5.6.7.8"})
	if err != nil {
		t.Fatal(err)
	}
	if r.LocationSource != "ip" {
		t.Fatalf("location source = %q, want ip", r.LocationSource)
	}
	if geo.DistanceKm(r.Location, cleveland) > 1 {
		t.Fatalf("registered IP geolocated to %v, want %v", r.Location, cleveland)
	}
	// Unknown IPs geolocate deterministically.
	r1, _ := e.Search(Request{Query: "Coffee", ClientIP: "99.98.97.96"})
	r2, _ := e.Search(Request{Query: "Coffee", ClientIP: "99.98.97.96"})
	if r1.Location != r2.Location {
		t.Fatal("IP geolocation not deterministic")
	}
	if !r1.Location.Valid() {
		t.Fatalf("synthesized location invalid: %v", r1.Location)
	}
	// Invalid GPS coordinates also fall back to IP.
	bad := geo.Point{Lat: 999, Lon: 0}
	r3, err := e.Search(Request{Query: "Coffee", GPS: &bad, ClientIP: "5.6.7.8"})
	if err != nil {
		t.Fatal(err)
	}
	if r3.LocationSource != "ip" {
		t.Fatalf("invalid GPS not ignored: source = %q", r3.LocationSource)
	}
}

func TestCardPolicies(t *testing.T) {
	e, _ := newQuietEngine()
	cases := []struct {
		term     string
		wantMaps bool
		wantNews bool
	}{
		{"School", true, false},     // generic local: maps, never news
		{"Starbucks", false, false}, // brand: no maps (paper §3.1)
		{"Barack Obama", false, true},
	}
	for _, c := range cases {
		r, err := e.Search(Request{Query: c.term, GPS: &cleveland, ClientIP: "1.2.3.4"})
		if err != nil {
			t.Fatal(err)
		}
		gotMaps := r.Page.CardCount(serpMaps) > 0
		if gotMaps != c.wantMaps {
			t.Errorf("%s: maps card = %v, want %v", c.term, gotMaps, c.wantMaps)
		}
		gotNews := r.Page.CardCount(serpNews) > 0
		if c.wantNews != gotNews && c.term != "Barack Obama" {
			t.Errorf("%s: news card = %v, want %v", c.term, gotNews, c.wantNews)
		}
	}
	// Controversial terms: news presence is per-topic/day; across many
	// topics most should have a news card (prob 0.90).
	withNews := 0
	terms := []string{"Gay Marriage", "Abortion", "Health", "Obamacare", "Fracking",
		"Gun Control", "Minimum Wage", "Climate Change", "Net Neutrality", "Death Penalty"}
	for _, term := range terms {
		r, err := e.Search(Request{Query: term, GPS: &cleveland, ClientIP: "1.2.3.4"})
		if err != nil {
			t.Fatal(err)
		}
		if r.Page.CardCount(serpNews) > 0 {
			withNews++
		}
		if r.Page.CardCount(serpMaps) > 0 {
			t.Errorf("%s: controversial query produced a maps card", term)
		}
	}
	if withNews < 6 {
		t.Errorf("only %d/10 controversial terms had news cards", withNews)
	}
}

func TestHistoryPersonalizationWindow(t *testing.T) {
	// The paper waits 11 minutes between queries because Google
	// personalizes on the previous 10 minutes of searches. Verify both
	// sides of that boundary.
	e, clk := newQuietEngine()
	session := "sess-1"
	fresh := func() []string {
		// A no-history page for the same query from a throwaway session.
		r, err := e.Search(Request{Query: "Coffee", GPS: &cleveland, ClientIP: "1.2.3.4"})
		if err != nil {
			t.Fatal(err)
		}
		return r.Page.Links()
	}
	baseline := fresh()

	// Prime the session with a related search, then query within the
	// window: results must differ from the no-history baseline.
	if _, err := e.Search(Request{Query: "Coffee", GPS: &cleveland, ClientIP: "1.2.3.4", SessionID: session}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(5 * time.Minute)
	r, err := e.Search(Request{Query: "Coffee", GPS: &cleveland, ClientIP: "1.2.3.4", SessionID: session})
	if err != nil {
		t.Fatal(err)
	}
	within := r.Page.Links()
	if equalStrings(baseline, within) {
		t.Fatal("search history within 10 minutes had no effect")
	}

	// After 11 idle minutes the history must have expired.
	clk.Advance(11 * time.Minute)
	r, err = e.Search(Request{Query: "Coffee", GPS: &cleveland, ClientIP: "1.2.3.4", SessionID: session})
	if err != nil {
		t.Fatal(err)
	}
	after := r.Page.Links()
	if !equalStrings(baseline, after) {
		t.Fatal("history effect persisted past the 10-minute window")
	}
}

func TestCookielessSessionsHaveNoHistory(t *testing.T) {
	e, clk := newQuietEngine()
	r1, _ := e.Search(Request{Query: "Coffee", GPS: &cleveland, ClientIP: "1.2.3.4"})
	clk.Advance(time.Minute)
	r2, _ := e.Search(Request{Query: "Coffee", GPS: &cleveland, ClientIP: "1.2.3.4"})
	if !equalStrings(r1.Page.Links(), r2.Page.Links()) {
		t.Fatal("cookieless requests influenced each other")
	}
	if e.history.sessionCount() != 0 {
		t.Fatalf("cookieless requests created %d sessions", e.history.sessionCount())
	}
}

// TestHistoryStoreBound holds the history store to the bound
// docs/RELIABILITY.md states. A client that keeps no cookies is minted a
// fresh session per search and never returns to it, so only expiry keeps
// the store from growing without limit: after any search it holds
// exactly the sessions searched within the window.
func TestHistoryStoreBound(t *testing.T) {
	const (
		searches = 20000
		gap      = 180 * time.Millisecond
	)
	e, clk := newQuietEngine()
	// A session stays live while its search is at most one window old:
	// with searches gap apart, the window holds this many.
	inWindow := int(e.cfg.HistoryWindow/gap) + 1
	for i := 1; i <= searches; i++ {
		sid := "sid-" + strconv.Itoa(i)
		if _, err := e.Search(Request{Query: "Coffee", GPS: &cleveland, ClientIP: "1.2.3.4", SessionID: sid}); err != nil {
			t.Fatal(err)
		}
		if n, live := e.history.sessionCount(), min(i, inWindow); n != live {
			t.Fatalf("after search %d: %d sessions, want the %d searched within the window", i, n, live)
		}
		clk.Advance(gap)
	}
}

func TestRateLimiting(t *testing.T) {
	clk := simclock.NewManual(time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC))
	cfg := quietConfig()
	cfg.RateBurst = 5
	cfg.RatePerMinute = 60 // one token per second
	e := New(cfg, clk)
	for i := 0; i < 5; i++ {
		if _, err := e.Search(Request{Query: "Coffee", GPS: &cleveland, ClientIP: "9.9.9.9"}); err != nil {
			t.Fatalf("request %d rejected: %v", i, err)
		}
	}
	if _, err := e.Search(Request{Query: "Coffee", GPS: &cleveland, ClientIP: "9.9.9.9"}); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("err = %v, want ErrRateLimited", err)
	}
	// A different IP is unaffected — the reason the study used 44
	// machines in a /24.
	if _, err := e.Search(Request{Query: "Coffee", GPS: &cleveland, ClientIP: "9.9.9.10"}); err != nil {
		t.Fatalf("other IP rejected: %v", err)
	}
	// Tokens refill with time.
	clk.Advance(2 * time.Second)
	if _, err := e.Search(Request{Query: "Coffee", GPS: &cleveland, ClientIP: "9.9.9.9"}); err != nil {
		t.Fatalf("request after refill rejected: %v", err)
	}
	if e.RateLimited() != 1 {
		t.Fatalf("RateLimited = %d, want 1", e.RateLimited())
	}
}

func TestDatacenterPinning(t *testing.T) {
	clk := simclock.NewManual(time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC))
	cfg := quietConfig()
	cfg.Datacenters = 3
	e := New(cfg, clk)
	r, err := e.Search(Request{Query: "Coffee", GPS: &cleveland, ClientIP: "1.2.3.4", Datacenter: "dc-2"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Datacenter != "dc-2" || r.Page.Datacenter != "dc-2" {
		t.Fatalf("pinned datacenter ignored: %s / %s", r.Datacenter, r.Page.Datacenter)
	}
	// Unknown datacenter names fall back to IP-hash routing.
	r, err = e.Search(Request{Query: "Coffee", GPS: &cleveland, ClientIP: "1.2.3.4", Datacenter: "dc-99"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Datacenter == "dc-99" {
		t.Fatal("invalid datacenter accepted")
	}
	// Same IP always routes to the same replica (same /24 → same DC).
	r2, _ := e.Search(Request{Query: "Coffee", GPS: &cleveland, ClientIP: "1.2.3.4"})
	r3, _ := e.Search(Request{Query: "Coffee", GPS: &cleveland, ClientIP: "1.2.3.4"})
	if r2.Datacenter != r3.Datacenter {
		t.Fatal("IP-hash routing not stable")
	}
	if got := len(e.Datacenters()); got != 3 {
		t.Fatalf("Datacenters() = %d, want 3", got)
	}
}

func TestReplicaSkewChangesResults(t *testing.T) {
	clk := simclock.NewManual(time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC))
	cfg := quietConfig()
	cfg.Datacenters = 3
	cfg.ReplicaSkew = 0.15
	e := New(cfg, clk)
	// With meaningful skew, at least one query should come back
	// differently from different replicas.
	differs := false
	for _, term := range []string{"Coffee", "School", "Hospital", "Bank", "Park"} {
		ra, _ := e.Search(Request{Query: term, GPS: &cleveland, ClientIP: "1.1.1.1", Datacenter: "dc-0"})
		rb, _ := e.Search(Request{Query: term, GPS: &cleveland, ClientIP: "1.1.1.1", Datacenter: "dc-1"})
		if !equalStrings(ra.Page.Links(), rb.Page.Links()) {
			differs = true
			break
		}
	}
	if !differs {
		t.Fatal("replica skew produced no differences across datacenters")
	}
}

func TestDayAdvances(t *testing.T) {
	e, clk := newQuietEngine()
	if e.Day() != 0 {
		t.Fatalf("day = %d, want 0", e.Day())
	}
	clk.Advance(24*time.Hour + time.Minute)
	if e.Day() != 1 {
		t.Fatalf("day = %d, want 1", e.Day())
	}
	r, _ := e.Search(Request{Query: "Coffee", GPS: &cleveland, ClientIP: "1.2.3.4"})
	if r.Page.Day != 1 {
		t.Fatalf("page day = %d, want 1", r.Page.Day)
	}
}

func TestNewsRotatesAcrossDays(t *testing.T) {
	e, clk := newQuietEngine()
	links := func() []string {
		r, err := e.Search(Request{Query: "Health", GPS: &cleveland, ClientIP: "1.2.3.4"})
		if err != nil {
			t.Fatal(err)
		}
		return r.Page.LinksOfType(serpNews)
	}
	d0 := links()
	clk.Advance(3 * 24 * time.Hour)
	d3 := links()
	if len(d0) > 0 && len(d3) > 0 && equalStrings(d0, d3) {
		t.Fatal("news card identical across 3 days")
	}
}

func TestClassify(t *testing.T) {
	e, _ := newQuietEngine()
	cases := []struct {
		term  string
		class queryClass
	}{
		{"Starbucks", classLocalBrand},
		{"School", classLocalGeneric},
		{"Gay Marriage", classControversial},
		{"Tim Ryan", classPolitician},
		{"quantum chromodynamics", classGeneral},
		{"high school", classLocalGeneric}, // unknown casing → place-kind match
	}
	for _, c := range cases {
		got, topic := e.classify(c.term)
		if got != c.class {
			t.Errorf("classify(%q) = %v, want %v", c.term, got, c.class)
		}
		if topic == "" {
			t.Errorf("classify(%q) returned empty topic", c.term)
		}
	}
}

func TestServedCounter(t *testing.T) {
	e, _ := newQuietEngine()
	for i := 0; i < 4; i++ {
		if _, err := e.Search(Request{Query: "Coffee", GPS: &cleveland, ClientIP: "1.2.3.4"}); err != nil {
			t.Fatal(err)
		}
	}
	if e.Served() != 4 {
		t.Fatalf("Served = %d, want 4", e.Served())
	}
}

func TestConcurrentSearches(t *testing.T) {
	e, _ := newQuietEngine()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			terms := []string{"Coffee", "School", "Gay Marriage", "Barack Obama"}
			for j := 0; j < 20; j++ {
				req := Request{
					Query:     terms[(i+j)%len(terms)],
					GPS:       &cleveland,
					ClientIP:  fmt.Sprintf("10.0.%d.%d", i, j),
					SessionID: fmt.Sprintf("s-%d", i),
				}
				if _, err := e.Search(req); err != nil {
					t.Errorf("concurrent search: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if e.Served() != 16*20 {
		t.Fatalf("Served = %d, want %d", e.Served(), 16*20)
	}
}

func TestUserAgentDoesNotPersonalize(t *testing.T) {
	// The paper's prior work found browser/OS choice does not trigger
	// personalization; our engine honours that.
	e, _ := newQuietEngine()
	r1, _ := e.Search(Request{Query: "Coffee", GPS: &cleveland, ClientIP: "1.2.3.4",
		UserAgent: "Mozilla/5.0 (iPhone; CPU iPhone OS 8_0 like Mac OS X) Safari/600.1.4"})
	r2, _ := e.Search(Request{Query: "Coffee", GPS: &cleveland, ClientIP: "1.2.3.4",
		UserAgent: "Mozilla/5.0 (X11; Linux x86_64) Firefox/38.0"})
	if !equalStrings(r1.Page.Links(), r2.Page.Links()) {
		t.Fatal("user agent changed results")
	}
}

func TestNoisyEngineStillWithinLinkBudget(t *testing.T) {
	clk := simclock.NewManual(time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC))
	cfg := DefaultConfig()
	cfg.RateBurst = 1 << 20
	cfg.RatePerMinute = 1 << 20
	e := New(cfg, clk)
	terms := []string{"School", "Coffee", "Airport", "Starbucks", "Gay Marriage",
		"Barack Obama", "Tim Ryan", "Health"}
	for _, term := range terms {
		for i := 0; i < 5; i++ {
			r, err := e.Search(Request{Query: term, GPS: &cleveland, ClientIP: "1.2.3.4"})
			if err != nil {
				t.Fatal(err)
			}
			if n := r.Page.LinkCount(); n < 10 || n > 22 {
				t.Fatalf("%s: page has %d links, want 10-22", term, n)
			}
			if err := r.Page.Validate(); err != nil {
				t.Fatalf("%s: %v", term, err)
			}
		}
	}
}

func equalStrings(a, b []string) bool {
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

// Aliases keep the card-type references short in the tests above.
const (
	serpMaps = serp.Maps
	serpNews = serp.News
)

var _ = metrics.Jaccard

func TestResponseBucketPopulated(t *testing.T) {
	clk := simclock.NewManual(time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC))
	cfg := DefaultConfig()
	cfg.Buckets = 8
	cfg.RateBurst = 1 << 20
	cfg.RatePerMinute = 1 << 20
	e := New(cfg, clk)
	seen := map[int]bool{}
	for i := 0; i < 64; i++ {
		r, err := e.Search(Request{Query: "Coffee", GPS: &cleveland, ClientIP: "1.2.3.4"})
		if err != nil {
			t.Fatal(err)
		}
		if r.Bucket < 0 || r.Bucket >= 8 {
			t.Fatalf("bucket = %d", r.Bucket)
		}
		seen[r.Bucket] = true
	}
	if len(seen) < 3 {
		t.Fatalf("only %d distinct buckets over 64 requests", len(seen))
	}
}

func TestIPMethodologyCannotResolveCountyScale(t *testing.T) {
	// The paper's methodological contribution: prior work could only
	// vary the IP address, and geolocation databases carry tens of km of
	// error — far coarser than the 1-mile spacing of voting districts.
	// GPS spoofing resolves exactly.
	clk := simclock.NewManual(time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC))
	cfg := quietConfig()
	cfg.IPGeoErrorKm = 25
	e := New(cfg, clk)

	districtSpacingKm := geo.KmPerMile // ~1.6 km
	base := cleveland
	var ipErrors []float64
	for i := 0; i < 8; i++ {
		truePt := geo.Destination(base, 90, float64(i)*districtSpacingKm)
		ip := fmt.Sprintf("10.30.%d.1", i)
		e.RegisterIPLocation(ip, truePt)

		// IP-based methodology: no GPS override.
		r, err := e.Search(Request{Query: "School", ClientIP: ip})
		if err != nil {
			t.Fatal(err)
		}
		ipErrors = append(ipErrors, geo.DistanceKm(r.Location, truePt))

		// GPS methodology: exact.
		rg, err := e.Search(Request{Query: "School", GPS: &truePt, ClientIP: ip})
		if err != nil {
			t.Fatal(err)
		}
		if d := geo.DistanceKm(rg.Location, truePt); d > 0.001 {
			t.Fatalf("GPS methodology off by %.3f km", d)
		}
	}
	// Most IP resolutions must miss by more than the district spacing.
	coarse := 0
	for _, d := range ipErrors {
		if d > districtSpacingKm {
			coarse++
		}
	}
	if coarse < len(ipErrors)*3/4 {
		t.Fatalf("IP geolocation resolved %d/%d districts within 1 mile — "+
			"too accurate to motivate GPS spoofing", len(ipErrors)-coarse, len(ipErrors))
	}
}

func TestGeneralQueryServes(t *testing.T) {
	// Unknown terms fall back to the general web path: retrieval over the
	// static index only, no maps or news cards.
	e, _ := newQuietEngine()
	r, err := e.Search(Request{Query: "global warming", GPS: &cleveland, ClientIP: "1.2.3.4"})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Page.Validate(); err != nil {
		t.Fatal(err)
	}
	if r.Page.LinkCount() == 0 {
		t.Fatal("general query returned no results")
	}
	if r.Page.CardCount(serp.Maps) != 0 || r.Page.CardCount(serp.News) != 0 {
		t.Fatal("general query received meta cards")
	}
}
