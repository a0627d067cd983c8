package crawler

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"geoserp/internal/engine"
	"geoserp/internal/geo"
	"geoserp/internal/metrics"
	"geoserp/internal/queries"
	"geoserp/internal/serpserver"
	"geoserp/internal/simclock"
	"geoserp/internal/storage"
)

// testRig wires an in-process engine+server to a crawler sharing one
// virtual clock.
type testRig struct {
	clk *simclock.Manual
	eng *engine.Engine
	srv *httptest.Server
	cr  *Crawler
}

func newRig(t *testing.T, ccfg Config, mutate func(*engine.Config)) *testRig {
	t.Helper()
	clk := simclock.NewManual(time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC))
	ecfg := engine.DefaultConfig()
	if mutate != nil {
		mutate(&ecfg)
	}
	eng := engine.New(ecfg, clk)
	srv := httptest.NewServer(serpserver.NewHandler(eng))
	t.Cleanup(srv.Close)
	cr, err := New(ccfg, clk, srv.URL, geo.StudyDataset(), queries.StudyCorpus())
	if err != nil {
		t.Fatal(err)
	}
	return &testRig{clk: clk, eng: eng, srv: srv, cr: cr}
}

func smallPhase(nTerms int, g geo.Granularity, days int) Phase {
	c := queries.StudyCorpus()
	terms := c.Category(queries.Local)[:nTerms]
	return Phase{Name: "test", Terms: terms, Granularities: []geo.Granularity{g}, Days: days}
}

func TestNewValidation(t *testing.T) {
	clk := simclock.NewManual(time.Now())
	ds := geo.StudyDataset()
	corpus := queries.StudyCorpus()
	if _, err := New(Config{Machines: 0, Subnet: "10.0.0"}, clk, "http://x", ds, corpus); err == nil {
		t.Fatal("zero machines accepted")
	}
	if _, err := New(Config{Machines: 4}, clk, "http://x", ds, corpus); err == nil {
		t.Fatal("empty subnet accepted")
	}
	if _, err := New(Config{Machines: 4, Subnet: "10.0.0"}, clk, "", ds, corpus); err == nil {
		t.Fatal("empty base URL accepted")
	}
}

func TestMachineIPs(t *testing.T) {
	clk := simclock.NewManual(time.Now())
	cr, err := New(DefaultConfig(), clk, "http://x", geo.StudyDataset(), queries.StudyCorpus())
	if err != nil {
		t.Fatal(err)
	}
	ips := cr.MachineIPs()
	if len(ips) != 44 {
		t.Fatalf("machines = %d, want 44 (the study's pool)", len(ips))
	}
	if ips[0] != "10.44.7.1" || ips[43] != "10.44.7.44" {
		t.Fatalf("machine addressing wrong: %s .. %s", ips[0], ips[43])
	}
	for _, ip := range ips {
		if !strings.HasPrefix(ip, "10.44.7.") {
			t.Fatalf("machine %s outside the /24", ip)
		}
	}
}

func TestRunPhaseProducesPairedObservations(t *testing.T) {
	rig := newRig(t, DefaultConfig(), nil)
	phase := smallPhase(3, geo.County, 2)
	obs, err := rig.cr.RunCampaign(context.Background(), []Phase{phase})
	if err != nil {
		t.Fatal(err)
	}
	// 3 terms × 15 county locations × 2 roles × 2 days.
	want := 3 * 15 * 2 * 2
	if len(obs) != want {
		t.Fatalf("observations = %d, want %d", len(obs), want)
	}
	// Every (term, location, day) must have exactly one treatment and one
	// control fetched at the same instant.
	type key struct {
		term, loc string
		day       int
	}
	pairs := map[key]map[storage.Role]time.Time{}
	for _, o := range obs {
		if err := o.Validate(); err != nil {
			t.Fatalf("invalid observation: %v", err)
		}
		k := key{o.Term, o.LocationID, o.Day}
		if pairs[k] == nil {
			pairs[k] = map[storage.Role]time.Time{}
		}
		if _, dup := pairs[k][o.Role]; dup {
			t.Fatalf("duplicate %v %v", k, o.Role)
		}
		pairs[k][o.Role] = o.FetchedAt
	}
	for k, roles := range pairs {
		tr, okT := roles[storage.Treatment]
		ctl, okC := roles[storage.Control]
		if !okT || !okC {
			t.Fatalf("%v missing a role", k)
		}
		if !tr.Equal(ctl) {
			t.Fatalf("%v treatment and control not simultaneous: %v vs %v", k, tr, ctl)
		}
	}
}

func TestLockStepAcrossLocations(t *testing.T) {
	rig := newRig(t, DefaultConfig(), nil)
	phase := smallPhase(2, geo.County, 1)
	obs, err := rig.cr.RunCampaign(context.Background(), []Phase{phase})
	if err != nil {
		t.Fatal(err)
	}
	// All observations of one term on one day share a fetch instant
	// (lock-step), and distinct terms are >= 11 virtual minutes apart.
	byTerm := map[string]time.Time{}
	for _, o := range obs {
		if prev, ok := byTerm[o.Term]; ok {
			if !prev.Equal(o.FetchedAt) {
				t.Fatalf("term %q not lock-step: %v vs %v", o.Term, prev, o.FetchedAt)
			}
		} else {
			byTerm[o.Term] = o.FetchedAt
		}
	}
	if len(byTerm) != 2 {
		t.Fatalf("terms = %d", len(byTerm))
	}
	var times []time.Time
	for _, ts := range byTerm {
		times = append(times, ts)
	}
	gap := times[0].Sub(times[1])
	if gap < 0 {
		gap = -gap
	}
	if gap < 11*time.Minute {
		t.Fatalf("terms only %v apart, want >= 11m", gap)
	}
}

func TestDatacenterPinningInCampaign(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PinnedDatacenter = "dc-1"
	rig := newRig(t, cfg, nil)
	obs, err := rig.cr.RunCampaign(context.Background(), []Phase{smallPhase(2, geo.County, 1)})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range obs {
		if o.Datacenter != "dc-1" {
			t.Fatalf("observation served by %q, want dc-1", o.Datacenter)
		}
	}
}

func TestDayAlignmentWithEngine(t *testing.T) {
	rig := newRig(t, DefaultConfig(), nil)
	obs, err := rig.cr.RunCampaign(context.Background(), []Phase{smallPhase(2, geo.County, 3)})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range obs {
		if o.Page.Day != o.Day {
			t.Fatalf("crawler day %d but engine served day %d", o.Day, o.Page.Day)
		}
	}
}

func TestMachineSpreadAvoidsRateLimits(t *testing.T) {
	// With the engine's default (stingy) rate limiter and the full
	// machine pool, a 15-location sweep must succeed — the point of
	// distributing load over 44 machines.
	rig := newRig(t, DefaultConfig(), nil)
	if _, err := rig.cr.RunCampaign(context.Background(), []Phase{smallPhase(4, geo.County, 1)}); err != nil {
		t.Fatalf("campaign tripped the rate limiter: %v", err)
	}
	// Sanity: a single-machine crawler with the same limiter fails.
	// Retries are disabled: with backoff on the virtual clock the limiter
	// would refill and mask the overload this test exists to observe.
	cfg := DefaultConfig()
	cfg.Machines = 1
	cfg.RetryAttempts = 1
	clk2 := simclock.NewManual(time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC))
	eng2 := engine.New(engine.DefaultConfig(), clk2)
	srv2 := httptest.NewServer(serpserver.NewHandler(eng2))
	defer srv2.Close()
	cr2, err := New(cfg, clk2, srv2.URL, geo.StudyDataset(), queries.StudyCorpus())
	if err != nil {
		t.Fatal(err)
	}
	phase := Phase{
		Name:          "overload",
		Terms:         queries.StudyCorpus().Category(queries.Local),
		Granularities: []geo.Granularity{geo.State},
		Days:          1,
	}
	if _, err := cr2.RunCampaign(context.Background(), []Phase{phase}); err == nil {
		t.Fatal("single-machine crawl did not trip the rate limiter")
	}
}

// TestRunCampaignVirtualRefusesForeignClock: the crawler drives only its
// own clock, so naming any other Manual clock is an error — not a
// campaign parked forever on a clock that nobody drives.
func TestRunCampaignVirtualRefusesForeignClock(t *testing.T) {
	rig := newRig(t, DefaultConfig(), nil)
	phases := []Phase{smallPhase(1, geo.County, 1)}
	done := make(chan error, 1)
	go func() {
		_, err := rig.cr.RunCampaignVirtual(simclock.NewManual(rig.clk.Now()), phases)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("campaign ran on a clock that is not the crawler's")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunCampaignVirtual on a foreign clock did not return")
	}
	obs, err := rig.cr.RunCampaignVirtual(rig.clk, phases)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 15*2 {
		t.Fatalf("observations = %d, want 30", len(obs))
	}
}

func TestRunValidationGPSDominates(t *testing.T) {
	rig := newRig(t, DefaultConfig(), nil)
	terms := queries.StudyCorpus().Category(queries.Controversial)[:6]
	gps := geo.Point{Lat: 41.4993, Lon: -81.6944}
	out, err := rig.cr.RunValidation(terms, gps, 12)
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports "94% of the search results received by the
	// machines are identical" — a per-result overlap across vantage
	// points, which we measure as the mean Jaccard index against the
	// first vantage.
	var overlapSum float64
	var n int
	for term, ps := range out {
		if len(ps) != 12 {
			t.Fatalf("term %q has %d pages", term, len(ps))
		}
		for i := 1; i < len(ps); i++ {
			overlapSum += metrics.Jaccard(ps[0].Links(), ps[i].Links())
			n++
		}
		for _, p := range ps {
			if p.Location != gps.String() {
				t.Fatalf("term %q: page personalized for %q, want spoofed GPS %q",
					term, p.Location, gps.String())
			}
		}
	}
	frac := overlapSum / float64(n)
	if frac < 0.85 {
		t.Fatalf("only %.0f%% of validation results identical; GPS not dominating IP (paper: 94%%)", frac*100)
	}
}

func TestStudyPhases(t *testing.T) {
	phases := ScaledPhases(queries.StudyCorpus(), 0, 0)
	if len(phases) != 2 {
		t.Fatalf("phases = %d, want 2", len(phases))
	}
	if len(phases[0].Terms) != 120 || len(phases[1].Terms) != 120 {
		t.Fatalf("phase terms = %d/%d, want 120/120",
			len(phases[0].Terms), len(phases[1].Terms))
	}
	for _, p := range phases {
		if p.Days != 5 {
			t.Fatalf("phase %s days = %d, want 5", p.Name, p.Days)
		}
		if len(p.Granularities) != 3 {
			t.Fatalf("phase %s granularities = %d", p.Name, len(p.Granularities))
		}
	}
}

func TestObservationsSorted(t *testing.T) {
	rig := newRig(t, DefaultConfig(), nil)
	obs, err := rig.cr.RunCampaign(context.Background(), []Phase{smallPhase(3, geo.County, 2)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(obs); i++ {
		a, b := obs[i-1], obs[i]
		if a.Day > b.Day {
			t.Fatal("observations not sorted by day")
		}
		if a.Day == b.Day && a.Term > b.Term {
			t.Fatal("observations not sorted by term within day")
		}
	}
}

// TestPhaseKeepsConnectionsAlive pins the crawler's own transport: over a
// six-sweep phase, browsers that leave Transport nil share one keep-alive
// pool sized to the machine pool, so the server sees at most Machines
// connections dialed, and each is closed once the phase returns. On
// http.DefaultTransport, which keeps two idle connections per host, every
// 30-fetch sweep re-dialed 28.
func TestPhaseKeepsConnectionsAlive(t *testing.T) {
	clk := simclock.NewManual(time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC))
	eng := engine.New(engine.DefaultConfig(), clk)
	var dialed, closed atomic.Int64
	srv := httptest.NewUnstartedServer(serpserver.NewHandler(eng))
	srv.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		switch state {
		case http.StateNew:
			dialed.Add(1)
		case http.StateClosed, http.StateHijacked:
			closed.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	cfg := DefaultConfig()
	cfg.Machines = 2 * len(geo.StudyDataset().At(geo.County)) // one per fetch of a sweep
	cr, err := New(cfg, clk, srv.URL, geo.StudyDataset(), queries.StudyCorpus())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cr.RunCampaign(context.Background(), []Phase{smallPhase(3, geo.County, 2)}); err != nil {
		t.Fatal(err)
	}
	if n := dialed.Load(); n == 0 || n > int64(cfg.Machines) {
		t.Fatalf("phase dialed %d connections, want 1..%d (one per machine)", n, cfg.Machines)
	}
	// The server sees each close once the client's FIN arrives.
	for i := 0; i < 200 && closed.Load() < dialed.Load(); i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if c, n := closed.Load(), dialed.Load(); c != n {
		t.Fatalf("%d of %d connections still open after the phase returned", n-c, n)
	}
}
