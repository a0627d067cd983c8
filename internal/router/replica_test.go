package router

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
// request context is cancelled — the canonical straggler a hedged backup
// request must absorb.
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

// hedgeTrace returns a trace ID whose preferred replica is 0 on BOTH
// shards of a 2x2 cluster. With replica 0 hanging, every leg then stalls
// until its hedge fires — no leg resolves synchronously, so the test's
// clock advancement is the only schedule and runs replay byte-identically
// even under -race scheduling jitter.
func hedgeTrace() string {
	for i := 0; ; i++ {
		trace := "hedge-trace-" + strconv.Itoa(i)
		if preferredReplica(trace, 0, 2) == 0 && preferredReplica(trace, 1, 2) == 0 {
			return trace
		}
	}
}

// hedgeRun drives one query against a 2x2 cluster whose replica 0 hangs
// forever, advancing the Manual clock past HedgeAfter only once every
// leg's hedge timer is parked — the deterministic schedule the soak's
// campaign driver produces — and returns the page plus the filtered
// /clustertracez and Chrome exports for byte comparison.
func hedgeRun(t *testing.T, trace string) (page, tracez, chrome string) {
	t.Helper()
	const hedgeAfter = 30 * time.Second
	clock := simclock.NewManual(epoch)
	cl := NewLocalCluster(ClusterConfig{
		Shards:          2,
		Replicas:        2,
		Engine:          testConfig(7),
		Clock:           clock,
		HedgeAfter:      hedgeAfter,
		SpanCapacity:    256,
		ShardMiddleware: hangingReplica,
	})

	type result struct {
		code    int
		partial string
		body    string
	}
	done := make(chan result, 1)
	go func() {
		code, partial, body := fetch(t, cl.Handler, "pizza", trace, "10.1.2.3")
		done <- result{code, partial, body}
	}()
	// One hedge timer parks per fan-out leg, and — by hedgeTrace's
	// construction — both legs stall on the hanging preferred replica, so
	// nothing can resolve until the clock moves. Advancing exactly
	// HedgeAfter fires both timers and the backup requests win against
	// the stalled primaries.
	clock.WaitForSleepers(2)
	clock.Advance(hedgeAfter)
	res := <-done
	if res.code != http.StatusOK {
		t.Fatalf("hedged fetch: status %d: %s", res.code, res.body)
	}
	if res.partial != "" {
		t.Fatalf("hedged fetch went partial (%q): the backup request must deliver the full leg", res.partial)
	}
	if won := cl.Client.hedges.Values()[hedgeWon]; won == 0 {
		t.Fatalf("hedges = %v, want at least one win over the hanging replica", cl.Client.hedges.Values())
	}

	ct := NewClusterTracez(cl.Spans, cl.Client)
	serve := func(target string) string {
		r := httptest.NewRequest(http.MethodGet, target, nil)
		w := httptest.NewRecorder()
		ct.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d", target, w.Code)
		}
		return w.Body.String()
	}
	return res.body, serve("/clustertracez?trace=" + trace), serve("/clustertracez?trace=" + trace + "&format=chrome")
}

// TestHedgedRequestsDeterministic: hedging never changes page bytes — the
// hedged cluster's page equals an unhedged healthy monolith's — and two
// same-seed hedged runs reproduce byte-identical pages AND byte-identical
// stitched trace exports: the hedge instant, the winner, and the losing
// attempt's cancellation are all functions of the seed and the clock.
func TestHedgedRequestsDeterministic(t *testing.T) {
	trace := hedgeTrace()
	mono := NewLocalCluster(ClusterConfig{
		Shards: 1,
		Engine: testConfig(7),
		Clock:  simclock.NewManual(epoch),
	})
	code, _, want := fetch(t, mono.Handler, "pizza", trace, "10.1.2.3")
	if code != http.StatusOK {
		t.Fatalf("monolith fetch: status %d", code)
	}

	page1, tracez1, chrome1 := hedgeRun(t, trace)
	page2, tracez2, chrome2 := hedgeRun(t, trace)
	if page1 != want {
		t.Fatalf("hedged page differs from monolith\nhedged:   %s\nmonolith: %s", page1, want)
	}
	if page1 != page2 {
		t.Fatalf("same-seed hedged pages diverged\nfirst:  %s\nsecond: %s", page1, page2)
	}
	if tracez1 != tracez2 {
		t.Fatalf("same-seed hedged /clustertracez exports diverged\nfirst:\n%s\nsecond:\n%s", tracez1, tracez2)
	}
	if chrome1 != chrome2 {
		t.Fatalf("same-seed hedged Chrome exports diverged\nfirst:\n%s\nsecond:\n%s", chrome1, chrome2)
	}
	// The export must actually carry the hedge story: a backup attempt
	// marked hedge and a cancelled loser.
	if !strings.Contains(tracez1, `"hedge"`) || !strings.Contains(tracez1, `"canceled"`) {
		t.Fatalf("hedged trace export missing hedge/canceled attempts:\n%s", tracez1)
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
		{"other seed", NewShardHandler(0, BuildShardIndex(8, nil, 0, 1, 0))},
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

// TestBreakerProbeElection pins the half-open race satellite: when many
// concurrent fan-outs hit an open breaker whose cooldown has elapsed,
// exactly ONE is elected to carry the probe — run under -race this also
// proves the state machine's locking. A failed probe re-arms the
// election for the next cooldown; a successful one re-opens the floor to
// everyone.
func TestBreakerProbeElection(t *testing.T) {
	br := newBreaker(1, 45*time.Second)
	br.failure(epoch)
	if br.stateName() != "open" {
		t.Fatalf("state = %q, want open", br.stateName())
	}

	elect := func(now time.Time) int {
		const fanouts = 32
		var admitted atomic.Int32
		var wg sync.WaitGroup
		wg.Add(fanouts)
		start := make(chan struct{})
		for i := 0; i < fanouts; i++ {
			go func() {
				defer wg.Done()
				<-start
				if br.allow(now) {
					admitted.Add(1)
				}
			}()
		}
		close(start)
		wg.Wait()
		return int(admitted.Load())
	}

	probeAt := epoch.Add(45 * time.Second)
	if n := elect(probeAt); n != 1 {
		t.Fatalf("%d concurrent fan-outs admitted past the open breaker, want exactly 1 probe", n)
	}
	// The elected probe fails: the breaker re-opens and a fresh election
	// happens only after another full cooldown.
	br.failure(probeAt)
	if n := elect(probeAt.Add(44 * time.Second)); n != 0 {
		t.Fatalf("%d fan-outs admitted before the reopen cooldown elapsed, want 0", n)
	}
	reprobeAt := probeAt.Add(45 * time.Second)
	if n := elect(reprobeAt); n != 1 {
		t.Fatalf("%d fan-outs admitted at the second election, want exactly 1", n)
	}
	// While that probe is outstanding the out-of-band prober must not
	// interfere: the breaker is half-open, so it is neither due nor
	// force-closable.
	if br.probeDue(reprobeAt.Add(time.Hour)) {
		t.Fatal("half-open breaker reported probeDue — the search-path probe owns the slot")
	}
	if br.probeClose() {
		t.Fatal("probeClose closed a half-open breaker over the in-flight probe's head")
	}
	// The probe succeeds: closed, everyone admitted again.
	br.success()
	if n := elect(reprobeAt); n != 32 {
		t.Fatalf("%d fan-outs admitted through the closed breaker, want all 32", n)
	}
}
