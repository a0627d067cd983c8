package router

import (
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"geoserp/internal/engine"
	"geoserp/internal/index"
	"geoserp/internal/simclock"
)

// replicaDown fails replica r of every shard: retrieval 500s and — so the
// background prober sees the node dark too — /healthz as well. With alien
// set, the replica instead stays up but answers both from alien, a node
// of another world. The switch is atomic so tests can heal the replica
// mid-run.
type replicaDown struct {
	replica int
	alien   http.Handler
	down    atomic.Bool
}

func (f *replicaDown) middleware(shard, replica int, next http.Handler) http.Handler {
	if replica != f.replica {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if f.down.Load() && (r.URL.Path == SearchPath || r.URL.Path == "/healthz") {
			if f.alien != nil {
				f.alien.ServeHTTP(w, r)
				return
			}
			http.Error(w, "injected replica outage", http.StatusInternalServerError)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// TestReplicaFailoverMatchesMonolith is the replication acceptance test:
// with replica 0 of EVERY shard dark for the whole run, a 2-replica
// cluster still serves every page byte-identical to a monolith — zero
// partial pages — because each leg that prefers the dead replica fails
// over to its healthy sibling (and, once the breaker trips, skips the
// dead one without even paying for the error).
func TestReplicaFailoverMatchesMonolith(t *testing.T) {
	cfg := testConfig(7)
	monoClock := simclock.NewManual(epoch)
	mono := NewLocalCluster(ClusterConfig{
		Shards: 1,
		Engine: cfg,
		Clock:  monoClock,
	})

	fault := &replicaDown{replica: 0}
	fault.down.Store(true)
	clock := simclock.NewManual(epoch)
	cl := NewLocalCluster(ClusterConfig{
		Shards:           3,
		Replicas:         2,
		Engine:           cfg,
		Clock:            clock,
		BreakerThreshold: 3,
		BreakerCooldown:  45 * time.Second,
		ShardMiddleware:  fault.middleware,
	})
	// Both clocks advance in lockstep, one second per query: requests land
	// on distinct instants (so tripped breakers are visible to later
	// queries — a trip only takes effect after its own instant) while the
	// monolith sees the identical timeline for byte comparison.
	for i, q := range clusterQueries {
		monoClock.Advance(time.Second)
		clock.Advance(time.Second)
		wantCode, _, want := fetch(t, mono.Handler, q, "trace-"+strconv.Itoa(i), "10.1.2.3")
		if wantCode != http.StatusOK {
			t.Fatalf("monolith query %q: status %d: %s", q, wantCode, want)
		}
		code, partial, body := fetch(t, cl.Handler, q, "trace-"+strconv.Itoa(i), "10.1.2.3")
		if code != http.StatusOK {
			t.Fatalf("query %q: status %d: %s", q, code, body)
		}
		if partial != "" {
			t.Fatalf("query %q went partial (%q) despite a healthy replica per shard", q, partial)
		}
		if body != want {
			t.Fatalf("query %q: replicated page differs from monolith\nreplicated: %s\nmonolith:   %s", q, body, want)
		}
	}
	// Vacuity guards: the dead replica was actually routed to (failover
	// happened), and errors plus breaker_open skips were both recorded.
	if cl.Client.failovers.Value() == 0 {
		t.Fatal("no leg ever failed over — every trace preferred the healthy replica, the test proved nothing")
	}
	got := cl.Client.perReplica.Values()
	if got["error"] == 0 || got["breaker_open"] == 0 || got["ok"] == 0 {
		t.Fatalf("replica attempt outcomes = %v, want ok, error, and breaker_open all exercised", got)
	}
	// Every leg itself must still read ok: replication absorbed the fault.
	if legs := cl.Client.perShard.Values(); len(legs) != 1 || legs["ok"] == 0 {
		t.Fatalf("leg outcomes = %v, want only ok", legs)
	}
}

// TestClusterAllReplicasDown: when every replica of a shard is gone the
// cluster degrades exactly as the single-replica topology did — here with
// every shard fully dark, /search answers 503 with Retry-After, a shed,
// never a broken page.
func TestClusterAllReplicasDown(t *testing.T) {
	cl := NewLocalCluster(ClusterConfig{
		Shards:   2,
		Replicas: 2,
		Engine:   testConfig(7),
		Clock:    simclock.NewManual(epoch),
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
		t.Fatalf("all replicas down: status %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After hint")
	}
}

// hangingReplica parks every retrieval against replica 0 until the
// request context is cancelled — the canonical straggler an attempt
// timeout must cut short.
func hangingReplica(shard, replica int, next http.Handler) http.Handler {
	if replica != 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != SearchPath {
			next.ServeHTTP(w, r)
			return
		}
		<-r.Context().Done()
		http.Error(w, "cancelled", http.StatusInternalServerError)
	})
}

// replicaZeroTrace returns a trace ID whose preferred replica is 0 on
// both shards of a two-replica cluster.
func replicaZeroTrace() string {
	for i := 0; ; i++ {
		trace := "r0-trace-" + strconv.Itoa(i)
		if preferredReplica(trace, 0, 2) == 0 && preferredReplica(trace, 1, 2) == 0 {
			return trace
		}
	}
}

// TestAttemptTimeoutFailsOver pins ClientConfig.Timeout as a bound on
// each replica attempt: a preferred replica that never answers costs its
// leg one timeout, and the other replica then serves the leg in full.
func TestAttemptTimeoutFailsOver(t *testing.T) {
	trace := replicaZeroTrace() // prefers replica 0, the hanging one
	req := engine.RetrieveRequest{Query: "coffee", K: 48, TraceID: trace}
	healthy := NewLocalCluster(ClusterConfig{Shards: 1, Replicas: 2, Engine: testConfig(7),
		Clock: simclock.NewManual(epoch)})
	want, err := healthy.Client.Retrieve(req)
	if err != nil || len(want.Hits) == 0 {
		t.Fatalf("healthy cluster: %d hits, err %v", len(want.Hits), err)
	}

	cl := NewLocalCluster(ClusterConfig{
		Shards:          1,
		Replicas:        2,
		Engine:          testConfig(7),
		Clock:           simclock.NewManual(epoch),
		ShardTimeout:    50 * time.Millisecond,
		ShardMiddleware: hangingReplica,
	})
	type retrieved struct {
		res engine.RetrieveResult
		err error
	}
	done := make(chan retrieved, 1)
	go func() {
		res, err := cl.Client.Retrieve(req)
		done <- retrieved{res, err}
	}()
	var got engine.RetrieveResult
	select {
	case r := <-done:
		got, err = r.res, r.err
	case <-time.After(time.Second):
		t.Fatal("Retrieve still blocked 1s into a 50ms attempt timeout")
	}
	if err != nil || got.Partial {
		t.Fatalf("Retrieve: partial %v, err %v; want the other replica's full answer", got.Partial, err)
	}
	// The two clusters hold separate document tables, so compare the
	// hits by (ID, Score), not by their Doc pointers.
	if !slices.EqualFunc(got.Hits, want.Hits, func(a, b index.Hit) bool { return a.ID == b.ID && a.Score == b.Score }) {
		t.Fatalf("hits differ from the unblocked cluster's:\n got  %v\n want %v", got.Hits, want.Hits)
	}
	outcomes := cl.Client.perReplica.Values()
	if len(outcomes) != 2 || outcomes[outcomeError] != 1 || outcomes[outcomeOK] != 1 {
		t.Fatalf("replica attempt outcomes = %v, want one error (the timed-out attempt) and one ok", outcomes)
	}
}

// TestProberReadmitsRecoveredReplica: a replica that dies, trips its
// breaker, and then heals is re-admitted by the background /healthz
// prober alone — no search traffic spends a half-open probe on it. A
// replica serving another world (seed 8 behind a seed-7 router) answers
// /healthz with 200, but the prober keeps it out until it serves this
// world's corpus again.
func TestProberReadmitsRecoveredReplica(t *testing.T) {
	for _, tc := range []struct {
		name  string
		alien http.Handler
	}{
		{"dark", nil},
		{"other seed", NewShardHandler(0, 1, BuildShardIndex(8, nil, 0, 1))},
	} {
		t.Run(tc.name, func(t *testing.T) { testProberReadmits(t, tc.alien) })
	}
}

func testProberReadmits(t *testing.T, alien http.Handler) {
	const interval = time.Minute
	clock := simclock.NewManual(epoch)
	fault := &replicaDown{replica: 0, alien: alien}
	fault.down.Store(true)
	cl := NewLocalCluster(ClusterConfig{
		Shards:           1,
		Replicas:         2,
		Engine:           testConfig(7),
		Clock:            clock,
		BreakerThreshold: 1,
		BreakerCooldown:  30 * time.Second,
		ProbeInterval:    interval,
		ShardMiddleware:  fault.middleware,
	})
	defer cl.StopProber()

	// Find a trace that prefers the dead replica so one fetch trips its
	// threshold-1 breaker.
	trace := ""
	for i := 0; ; i++ {
		trace = "probe-trace-" + strconv.Itoa(i)
		if preferredReplica(trace, 0, 2) == 0 {
			break
		}
	}
	code, partial, _ := fetch(t, cl.Handler, "pizza", trace, "10.1.2.3")
	if code != http.StatusOK || partial != "" {
		t.Fatalf("outage fetch: code=%d partial=%q, want failover to the healthy replica", code, partial)
	}
	if s := cl.Client.BreakerStates()[0][0]; s != "open" {
		t.Fatalf("replica 0 breaker = %q after the failed attempt, want open", s)
	}

	// awaitSweep advances the clock across the prober's next tick (the
	// prober parks passively, so only this advancement can wake it) and
	// waits out the sweep it triggers. It waits for the prober to park
	// first — launched asynchronously by NewLocalCluster, it may not have
	// reached its first sleep yet, and an advance before the park would
	// push its whole tick grid past everything this test drives.
	awaitSweep := func() {
		before := cl.Client.probes.Total()
		clock.WaitForSleepers(1)
		clock.Advance(interval + probePhase)
		deadline := time.Now().Add(5 * time.Second)
		for cl.Client.probes.Total() == before {
			if time.Now().After(deadline) {
				t.Fatal("prober never swept after the clock crossed its tick")
			}
			time.Sleep(time.Millisecond)
		}
	}

	// While the replica is still dark (or foreign) the probe fails and
	// the breaker stays open.
	awaitSweep()
	if cl.Client.probes.Values()[outcomeError] == 0 {
		t.Fatalf("probes = %v, want a failed probe against the faulted replica", cl.Client.probes.Values())
	}
	if s := cl.Client.BreakerStates()[0][0]; s != "open" {
		t.Fatalf("replica 0 breaker = %q after probing the faulted replica, want open", s)
	}

	// Heal it; the next sweep re-closes the breaker with no search
	// traffic at all.
	fault.down.Store(false)
	awaitSweep()
	if s := cl.Client.BreakerStates()[0][0]; s != "closed" {
		t.Fatalf("replica 0 breaker = %q after probing the healed replica, want closed", s)
	}
	if n := cl.Client.readmits.Value(); n != 1 {
		t.Fatalf("readmissions = %d, want exactly 1", n)
	}

	// The re-admitted replica serves again: the same trace now lands on
	// replica 0 directly, no failover.
	before := cl.Client.failovers.Value()
	code, partial, _ = fetch(t, cl.Handler, "pizza", trace, "10.1.2.3")
	if code != http.StatusOK || partial != "" {
		t.Fatalf("post-readmission fetch: code=%d partial=%q", code, partial)
	}
	if cl.Client.failovers.Value() != before {
		t.Fatal("re-admitted replica still failed over")
	}
}
