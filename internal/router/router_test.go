package router

import (
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

func TestBreakerLifecycle(t *testing.T) {
	var events []string
	br := newBreaker(3, 45*time.Second)
	br.onTransition = func(l string) { events = append(events, l) }
	now := epoch

	// Failures below the threshold keep it closed; a success resets.
	br.failure(now)
	br.failure(now)
	br.success()
	br.failure(now)
	br.failure(now)
	if !br.allow(now) {
		t.Fatal("breaker tripped below threshold")
	}
	// Third consecutive failure trips it. The trip is deferred to the next
	// clock instant: siblings sharing the tripping request's instant are
	// still admitted (interleaving-independent), later instants fail fast.
	br.failure(now)
	if !br.allow(now) {
		t.Fatal("breaker denied a request sharing the trip instant")
	}
	if br.allow(now.Add(time.Millisecond)) {
		t.Fatal("open breaker admitted a request after the trip instant")
	}
	if br.stateName() != "open" {
		t.Fatalf("state = %q, want open", br.stateName())
	}

	// After the cooldown exactly one probe goes through.
	later := now.Add(45 * time.Second)
	if !br.allow(later) {
		t.Fatal("cooldown elapsed but no probe admitted")
	}
	if br.allow(later) {
		t.Fatal("second concurrent probe admitted")
	}
	// Failed probe reopens for another full cooldown.
	br.failure(later)
	if br.allow(later.Add(44 * time.Second)) {
		t.Fatal("reopened breaker admitted before cooldown")
	}
	probeAt := later.Add(45 * time.Second)
	if !br.allow(probeAt) {
		t.Fatal("no probe after reopen cooldown")
	}
	// Pushback resolves the probe slot without closing or reopening.
	br.pushback()
	if br.stateName() != "half-open" {
		t.Fatalf("state after pushback = %q, want half-open", br.stateName())
	}
	if !br.allow(probeAt) {
		t.Fatal("pushback did not free the probe slot")
	}
	br.success()
	if br.stateName() != "closed" {
		t.Fatalf("state after successful probe = %q, want closed", br.stateName())
	}

	want := []string{"open", "half_open", "reopen", "half_open", "close"}
	if strings.Join(events, ",") != strings.Join(want, ",") {
		t.Fatalf("transitions = %v, want %v", events, want)
	}
	// Pushback while closed must not count toward the failure streak.
	br.failure(probeAt)
	br.failure(probeAt)
	br.pushback()
	br.failure(probeAt)
	if br.stateName() != "open" {
		t.Fatal("three failures with interleaved pushback did not trip")
	}
}

// fetch issues one /search against h and returns status, the partial
// header, and the body.
func fetch(t *testing.T, h http.Handler, query, trace, ip string) (int, string, string) {
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
	mono := serpserver.NewHandler(engine.NewCustom(cfg, simclock.NewManual(epoch)))
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
// half-open probe recloses the breaker and pages go complete again.
func TestClusterPartialDegradation(t *testing.T) {
	clock := simclock.NewManual(epoch)
	fault := &shardFault{}
	cl := NewLocalCluster(ClusterConfig{
		Shards:           3,
		Engine:           testConfig(7),
		Clock:            clock,
		BreakerThreshold: 3,
		BreakerCooldown:  45 * time.Second,
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
	// this node's shard, replica and corpus fingerprint.
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
	r.Header.Set(httpheader.DeadlineMs, strconv.FormatInt(epoch.Add(-time.Second).UnixMilli(), 10))
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
