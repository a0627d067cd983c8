package router

import (
	"crypto/sha256"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"geoserp/internal/engine"
	"geoserp/internal/httpheader"
	"geoserp/internal/serpserver"
	"geoserp/internal/simclock"
	"geoserp/internal/telemetry"
)

var epoch = time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)

// testConfig returns an engine config with rate limiting effectively off,
// so request sequences in these tests never draw 429s.
func testConfig(seed uint64) engine.Config {
	cfg := engine.DefaultConfig()
	cfg.Seed = seed
	cfg.RateBurst = 100000
	cfg.RatePerMinute = 100000
	return cfg
}

func TestRingDeterministicExhaustiveBalanced(t *testing.T) {
	a := NewRing(4, 0)
	b := NewRing(4, 0)
	counts := make([]int, 4)
	const keys = 4000
	for i := 0; i < keys; i++ {
		key := "http://example.org/page-" + strconv.Itoa(i)
		own := a.Owner(key)
		if got := b.Owner(key); got != own {
			t.Fatalf("rings disagree on %q: %d vs %d", key, own, got)
		}
		if own < 0 || own >= 4 {
			t.Fatalf("Owner(%q) = %d out of range", key, own)
		}
		counts[own]++
	}
	// Consistent hashing with 64 virtual nodes is not perfectly uniform,
	// but every shard must own a substantial slice — an empty or
	// overwhelmingly dominant shard means the ring is broken.
	for s, c := range counts {
		if c < keys/16 {
			t.Fatalf("shard %d owns only %d/%d keys: %v", s, c, keys, counts)
		}
	}
}

func TestRingMinimalMovementOnGrowth(t *testing.T) {
	small, big := NewRing(3, 0), NewRing(4, 0)
	moved := 0
	const keys = 4000
	for i := 0; i < keys; i++ {
		key := "http://example.org/page-" + strconv.Itoa(i)
		o1, o2 := small.Owner(key), big.Owner(key)
		if o1 != o2 {
			moved++
			if o2 != 3 {
				t.Fatalf("key %q moved between pre-existing shards %d -> %d", key, o1, o2)
			}
		}
	}
	// Expect ~1/4 of keys to move to the new shard; far more means the
	// hash is not consistent.
	if moved > keys/2 {
		t.Fatalf("%d/%d keys moved when growing 3 -> 4 shards", moved, keys)
	}
}

// fetch issues one /search against h and returns status, the partial
// header, and the body.
func fetch(t testing.TB, h http.Handler, query, trace, ip string) (int, string, string) {
	t.Helper()
	r := httptest.NewRequest(http.MethodGet, "/search?q="+strings.ReplaceAll(query, " ", "+")+"&ll=41.4993,-81.6944&format=json", nil)
	r.Header.Set("User-Agent", "Mozilla/5.0 (Linux; Android 5.1) Mobile")
	r.Header.Set(httpheader.ForwardedFor, ip)
	if trace != "" {
		r.Header.Set(httpheader.TraceID, trace)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w.Code, w.Header().Get(httpheader.SerpPartial), w.Body.String()
}

var clusterQueries = []string{
	"pizza", "coffee shop", "high school", "joe's crab shack",
	"barack obama", "gun control", "car repair", "university",
}

// runSequence drives the same deterministic request sequence against a
// handler and returns the concatenated JSON pages.
func runSequence(t *testing.T, h http.Handler) []string {
	t.Helper()
	out := make([]string, 0, len(clusterQueries))
	for i, q := range clusterQueries {
		code, _, body := fetch(t, h, q, "trace-"+strconv.Itoa(i), "10.1.2.3")
		if code != http.StatusOK {
			t.Fatalf("query %q: status %d: %s", q, code, body)
		}
		out = append(out, body)
	}
	return out
}

// TestClusterMatchesMonolith is the tentpole acceptance test: a sharded
// cluster's pages are byte-identical to a monolithic engine's, at every
// shard count, and same-seed runs are byte-identical to each other.
func TestClusterMatchesMonolith(t *testing.T) {
	cfg := testConfig(7)
	mono := serpserver.NewHandler(engine.New(cfg, simclock.NewManual(epoch)))
	want := runSequence(t, mono)

	for _, shards := range []int{1, 2, 3} {
		for run := 0; run < 2; run++ {
			cl := NewLocalCluster(ClusterConfig{
				Shards: shards,
				Engine: cfg,
				Clock:  simclock.NewManual(epoch),
			})
			got := runSequence(t, cl.Handler)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("shards=%d run=%d query %q: cluster page differs from monolith\ncluster:  %s\nmonolith: %s",
						shards, run, clusterQueries[i], got[i], want[i])
				}
			}
			if p := cl.Client.BreakerStates(); len(p) != shards {
				t.Fatalf("BreakerStates = %v, want %d entries", p, shards)
			}
		}
	}
}

// shardFault is a ShardMiddleware hook: while broken, the wrapped shard
// answers 500 to every request.
type shardFault struct{ broken bool }

func (f *shardFault) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if f.broken {
			http.Error(w, "injected fault", http.StatusInternalServerError)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// TestClusterPartialDegradation covers the graded-degradation ladder: a
// failing shard yields 200s marked partial (never an error), the breaker
// trips after the threshold and fails fast, and after the shard heals the
// half-open probe recloses the breaker and pages go complete again. The
// router's metrics and leg spans must tell the same story: partial but
// never unavailable retrievals, every leg outcome exercised, a balanced
// breaker ledger, and every fault attributed to the broken shard.
func TestClusterPartialDegradation(t *testing.T) {
	clock := simclock.NewManual(epoch)
	fault := &shardFault{}
	reg := telemetry.NewRegistry()
	cl := NewLocalCluster(ClusterConfig{
		Shards:           3,
		Engine:           testConfig(7),
		Clock:            clock,
		BreakerThreshold: 3,
		BreakerCooldown:  45 * time.Second,
		SpanCapacity:     256,
		Registry:         reg,
		ShardMiddleware: func(shard, replica int, next http.Handler) http.Handler {
			if shard == 1 {
				return fault.middleware(next)
			}
			return next
		},
	})

	// Healthy cluster: complete pages, no partial marker.
	code, partial, _ := fetch(t, cl.Handler, "pizza", "t-0", "10.0.0.1")
	if code != http.StatusOK || partial != "" {
		t.Fatalf("healthy cluster: code=%d partial=%q", code, partial)
	}

	// Break shard 1: every page is still a 200, marked partial.
	fault.broken = true
	for i := 0; i < 6; i++ {
		code, partial, body := fetch(t, cl.Handler, "pizza", "t-bad-"+strconv.Itoa(i), "10.0.0.1")
		if code != http.StatusOK {
			t.Fatalf("degraded fetch %d: status %d: %s", i, code, body)
		}
		if partial != "web" {
			t.Fatalf("degraded fetch %d: partial header = %q, want \"web\"", i, partial)
		}
	}
	// After threshold=3 failures the breaker is open and failing fast.
	if s := cl.Client.BreakerStates()[1][0]; s != "open" {
		t.Fatalf("shard 1 breaker = %q after failure streak, want open", s)
	}
	// Heal the shard; before the cooldown the breaker still fails fast
	// (pages stay partial), after it the probe succeeds and recloses. The
	// clock moves first: a trip only takes effect after its own instant
	// (same-instant siblings are admitted, interleaving-independent).
	fault.broken = false
	clock.Advance(time.Second)
	_, partial, _ = fetch(t, cl.Handler, "pizza", "t-heal-0", "10.0.0.1")
	if partial != "web" {
		t.Fatal("breaker open but page not partial before cooldown")
	}
	clock.Advance(46 * time.Second)
	_, partial, _ = fetch(t, cl.Handler, "pizza", "t-heal-1", "10.0.0.1")
	if partial != "" {
		t.Fatalf("probe after cooldown did not restore complete pages (partial=%q)", partial)
	}
	if s := cl.Client.BreakerStates()[1][0]; s != "closed" {
		t.Fatalf("shard 1 breaker = %q after successful probe, want closed", s)
	}

	retrievals := reg.Counter("router_retrievals_total", "").Value()
	partials := reg.Counter("router_partial_results_total", "").Value()
	if partials == 0 || partials >= retrievals {
		t.Fatalf("router_partial_results_total = %d of %d retrievals, want some but not all (healthy fetches merge complete)", partials, retrievals)
	}
	if n := reg.Counter("router_unavailable_total", "").Value(); n != 0 {
		t.Fatalf("router_unavailable_total = %d, want 0: healthy shards must keep answering", n)
	}
	legs := reg.CounterVec("router_shard_requests_total", "", "outcome").Values()
	if legs[outcomeOK] == 0 || legs[outcomeError] == 0 || legs[outcomeBreakerOpen] == 0 {
		t.Fatalf("router_shard_requests_total = %v, want ok, error and breaker_open all exercised", legs)
	}
	trans := reg.CounterVec("router_breaker_transitions_total", "", "event").Values()
	if trans["open"] == 0 || trans["open"] != trans["close"] {
		t.Fatalf("router_breaker_transitions_total = %v, want open == close > 0 once the shard healed", trans)
	}

	// Fault attribution: every error leg hit shard 1 while it was broken
	// (all at the epoch), and only shard 1's breaker ever failed fast.
	errorLegs := 0
	for _, sp := range cl.Spans.Snapshot() {
		if sp.Name != spanShardLeg {
			continue
		}
		switch sp.Attr("outcome") {
		case outcomeError:
			errorLegs++
			if sp.Attr("shard") != "1" || !sp.Start.Equal(epoch) {
				t.Fatalf("error leg on shard %s at %s, want shard 1 at %s", sp.Attr("shard"), sp.Start, epoch)
			}
		case outcomeBreakerOpen:
			if sp.Attr("shard") != "1" {
				t.Fatalf("breaker_open leg on shard %s, want only shard 1", sp.Attr("shard"))
			}
		}
	}
	if errorLegs == 0 {
		t.Fatal("no leg span carries an error outcome despite the broken shard")
	}
}

// TestClusterAllShardsDown: when no shard contributes, /search answers 503
// with Retry-After — a shed, not a broken page.
func TestClusterAllShardsDown(t *testing.T) {
	cl := NewLocalCluster(ClusterConfig{
		Shards: 2,
		Engine: testConfig(7),
		Clock:  simclock.NewManual(epoch),
		ShardMiddleware: func(shard, replica int, next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				http.Error(w, "down", http.StatusInternalServerError)
			})
		},
	})
	r := httptest.NewRequest(http.MethodGet, "/search?q=pizza&format=json", nil)
	r.Header.Set("User-Agent", "Mozilla/5.0 (Linux; Android 5.1) Mobile")
	w := httptest.NewRecorder()
	cl.Handler.ServeHTTP(w, r)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("all shards down: status %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After hint")
	}
}

// TestShardHandlerSurface covers the shard node's own HTTP contract.
func TestShardHandlerSurface(t *testing.T) {
	clock := simclock.NewManual(epoch)
	cl := NewLocalCluster(ClusterConfig{Shards: 2, Engine: testConfig(7), Clock: clock})
	sh := cl.ShardHandlers[0][0]

	// A normal search returns one frame of at most k hits, stamped with
	// this node's shard, replica and partition fingerprint.
	r := httptest.NewRequest(http.MethodGet, SearchPath+"?q=coffee&k=5", nil)
	w := httptest.NewRecorder()
	sh.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("shard search: status %d: %s", w.Code, w.Body.String())
	}
	sr, err := decodeFrame(w.Body.Bytes(), cl.Client.cfg.Docs)
	if err != nil {
		t.Fatalf("shard reply does not decode: %v", err)
	}
	if sr.Shard != 0 || sr.Replica != 0 || sr.Corpus != cl.Client.corpus {
		t.Fatalf("shard reply header = shard %d replica %d corpus %s, want 0, 0, %s",
			sr.Shard, sr.Replica, corpusHex(sr.Corpus), corpusHex(cl.Client.corpus))
	}
	if len(sr.Hits) == 0 || len(sr.Hits) > 5 {
		t.Fatalf("shard reply carries %d hits, want 1..5", len(sr.Hits))
	}

	// An already-expired propagated deadline is refused as a shed.
	r = httptest.NewRequest(http.MethodGet, SearchPath+"?q=pizza", nil)
	httpheader.SetDeadline(r.Header, epoch.Add(-time.Second))
	w = httptest.NewRecorder()
	sh.ServeHTTP(w, r)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("expired deadline: status %d, want 503", w.Code)
	}

	// Empty query and malformed k are client errors.
	for _, path := range []string{SearchPath, SearchPath + "?q=pizza&k=bogus"} {
		r = httptest.NewRequest(http.MethodGet, path, nil)
		w = httptest.NewRecorder()
		sh.ServeHTTP(w, r)
		if w.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", path, w.Code)
		}
	}

	// The rest of the surface, recorded when every request went through
	// the handler's ServeMux, so a direct /shard/search dispatch cannot
	// change what any other request gets. A frame body is pinned by its
	// SHA-256.
	const text = "text/plain; charset=utf-8"
	surface := []struct {
		method, target     string
		code               int
		allow, ctype, body string
	}{
		{http.MethodHead, SearchPath + "?q=coffee&k=5", http.StatusOK, "", "application/octet-stream",
			"sha256:220c6c1bcbd10991862287015e66bb441bebdb3e59f3b8fab768a44810563243"},
		{http.MethodPost, SearchPath + "?q=coffee&k=5", http.StatusMethodNotAllowed, "GET, HEAD", text,
			"Method Not Allowed\n"},
		{http.MethodGet, SearchPath + "/?q=coffee&k=5", http.StatusNotFound, "", text, "404 page not found\n"},
		{http.MethodGet, "/shard//search?q=coffee&k=5", http.StatusMovedPermanently, "", "text/html; charset=utf-8",
			"<a href=\"/shard/search?q=coffee&amp;k=5\">Moved Permanently</a>.\n\n"},
		{http.MethodGet, SearchPath + "?q=coffee&k=0", http.StatusBadRequest, "", text, "bad k\n"},
		// 626 of this shard's documents match "local": the frame is
		// clamped to maxShardK hits, 24 + 12*512 = 6168 bytes.
		{http.MethodGet, SearchPath + "?q=local&k=9999", http.StatusOK, "", "application/octet-stream",
			"sha256:e4a95434fbd42b00121d1aa15535f4d7e8b0e003a6578c42210e4794819ae30e"},
		{http.MethodGet, "/healthz", http.StatusOK, "", "application/json",
			`{"corpus":"da735b218ea26221","docs":2194,"replica":0,"shard":0,"status":"ok"}` + "\n"},
		{http.MethodGet, "/nope", http.StatusNotFound, "", text, "404 page not found\n"},
	}
	for _, c := range surface {
		w = httptest.NewRecorder()
		sh.ServeHTTP(w, httptest.NewRequest(c.method, c.target, nil))
		body := w.Body.String()
		if strings.HasPrefix(c.body, "sha256:") {
			body = fmt.Sprintf("sha256:%x", sha256.Sum256(w.Body.Bytes()))
		}
		if w.Code != c.code || w.Header().Get("Allow") != c.allow ||
			w.Header().Get("Content-Type") != c.ctype || body != c.body {
			t.Errorf("%s %s: got %d, Allow %q, Content-Type %q, body %q; want %d, %q, %q, %q",
				c.method, c.target, w.Code, w.Header().Get("Allow"), w.Header().Get("Content-Type"), body,
				c.code, c.allow, c.ctype, c.body)
		}
	}

	// The partition is exhaustive: the shard views' docs sum to the
	// monolithic corpus.
	total := 0
	for _, s := range cl.ShardHandlers {
		total += s[0].Docs()
	}
	mono := NewLocalCluster(ClusterConfig{Shards: 1, Engine: testConfig(7), Clock: simclock.NewManual(epoch)})
	if want := mono.ShardHandlers[0][0].Docs(); total != want {
		t.Fatalf("shard docs sum to %d, monolithic corpus has %d", total, want)
	}
}
