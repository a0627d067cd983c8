package breaker

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var epoch = time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)

// recorder returns a transition hook that appends each label to *seq.
func recorder(seq *[]string) func(string) {
	return func(label string) { *seq = append(*seq, label) }
}

// TestBreakerStateMachine walks a non-deferring breaker — the browser's —
// through every transition, including failing fast at the trip's own
// instant with the remaining cooldown.
func TestBreakerStateMachine(t *testing.T) {
	var seq []string
	br := New(2, time.Minute, false, recorder(&seq))
	now := epoch

	if _, ok := br.Allow(now); !ok {
		t.Fatal("new breaker refused traffic")
	}
	// A success between failures resets the consecutive-failure streak.
	br.Failure(now)
	br.Success()
	br.Failure(now)
	if br.State() != "closed" {
		t.Fatalf("state = %s after a broken streak, want closed", br.State())
	}
	br.Failure(now)
	if br.State() != "open" {
		t.Fatalf("state = %s after %d consecutive failures, want open", br.State(), 2)
	}
	// Open: traffic fails fast with the remaining cooldown, from the trip's
	// own instant on.
	if wait, ok := br.Allow(now); ok || wait != time.Minute {
		t.Fatalf("Allow at the trip instant = (%s, %v), want (1m0s, false)", wait, ok)
	}
	wait, ok := br.Allow(now.Add(20 * time.Second))
	if ok || wait != 40*time.Second {
		t.Fatalf("Allow mid-cooldown = (%s, %v), want (40s, false)", wait, ok)
	}
	// Cooldown elapsed: a single half-open probe is admitted.
	if _, ok := br.Allow(now.Add(time.Minute)); !ok {
		t.Fatal("probe refused after the cooldown elapsed")
	}
	if br.State() != "half-open" {
		t.Fatalf("state = %s, want half-open", br.State())
	}
	// A failing probe reopens and restarts the cooldown from its instant.
	br.Failure(now.Add(time.Minute))
	if _, ok := br.Allow(now.Add(90 * time.Second)); ok {
		t.Fatal("reopened breaker admitted traffic mid-cooldown")
	}
	if _, ok := br.Allow(now.Add(2 * time.Minute)); !ok {
		t.Fatal("second probe refused")
	}
	// A succeeding probe closes the breaker for good.
	br.Success()
	if br.State() != "closed" {
		t.Fatalf("state = %s after a successful probe, want closed", br.State())
	}
	want := []string{"open", "half_open", "reopen", "half_open", "close"}
	if fmt.Sprint(seq) != fmt.Sprint(want) {
		t.Fatalf("transitions = %v, want %v", seq, want)
	}
}

// TestBreakerLifecycle walks a deferring breaker — the router's — through
// its lifecycle: the trip takes effect after its own instant, one probe at
// a time, and pushback frees the probe slot without counting.
func TestBreakerLifecycle(t *testing.T) {
	var events []string
	br := New(3, 45*time.Second, true, recorder(&events))
	now := epoch

	// Failures below the threshold keep it closed; a success resets.
	br.Failure(now)
	br.Failure(now)
	br.Success()
	br.Failure(now)
	br.Failure(now)
	if _, ok := br.Allow(now); !ok {
		t.Fatal("breaker tripped below threshold")
	}
	// Third consecutive failure trips it. The trip is deferred to the next
	// clock instant: siblings sharing the tripping request's instant are
	// still admitted (interleaving-independent), later instants fail fast.
	br.Failure(now)
	if _, ok := br.Allow(now); !ok {
		t.Fatal("breaker denied a request sharing the trip instant")
	}
	if _, ok := br.Allow(now.Add(time.Millisecond)); ok {
		t.Fatal("open breaker admitted a request after the trip instant")
	}
	if br.State() != "open" {
		t.Fatalf("state = %q, want open", br.State())
	}

	// After the cooldown exactly one probe goes through.
	later := now.Add(45 * time.Second)
	if _, ok := br.Allow(later); !ok {
		t.Fatal("cooldown elapsed but no probe admitted")
	}
	if _, ok := br.Allow(later); ok {
		t.Fatal("second concurrent probe admitted")
	}
	// Failed probe reopens for another full cooldown.
	br.Failure(later)
	if _, ok := br.Allow(later.Add(44 * time.Second)); ok {
		t.Fatal("reopened breaker admitted before cooldown")
	}
	probeAt := later.Add(45 * time.Second)
	if _, ok := br.Allow(probeAt); !ok {
		t.Fatal("no probe after reopen cooldown")
	}
	// Pushback resolves the probe slot without closing or reopening.
	br.Pushback()
	if br.State() != "half-open" {
		t.Fatalf("state after pushback = %q, want half-open", br.State())
	}
	if _, ok := br.Allow(probeAt); !ok {
		t.Fatal("pushback did not free the probe slot")
	}
	br.Success()
	if br.State() != "closed" {
		t.Fatalf("state after successful probe = %q, want closed", br.State())
	}

	want := []string{"open", "half_open", "reopen", "half_open", "close"}
	if fmt.Sprint(events) != fmt.Sprint(want) {
		t.Fatalf("transitions = %v, want %v", events, want)
	}
	// Pushback while closed must not count toward the failure streak.
	br.Failure(probeAt)
	br.Failure(probeAt)
	br.Pushback()
	br.Failure(probeAt)
	if br.State() != "open" {
		t.Fatal("three failures with interleaved pushback did not trip")
	}
}

// TestBreakerProbeElection pins the half-open race: when many concurrent
// fan-outs hit an open breaker whose cooldown has elapsed, exactly ONE is
// elected to carry the probe — run under -race this also proves the state
// machine's locking. A failed probe re-arms the election for the next
// cooldown; a successful one re-opens the floor to everyone.
func TestBreakerProbeElection(t *testing.T) {
	br := New(1, 45*time.Second, true, nil)
	br.Failure(epoch)
	if br.State() != "open" {
		t.Fatalf("state = %q, want open", br.State())
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
				if _, ok := br.Allow(now); ok {
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
	br.Failure(probeAt)
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
	if br.ProbeDue(reprobeAt.Add(time.Hour)) {
		t.Fatal("half-open breaker reported ProbeDue — the search-path probe owns the slot")
	}
	if br.ProbeClose() {
		t.Fatal("ProbeClose closed a half-open breaker over the in-flight probe's head")
	}
	// The probe succeeds: closed, everyone admitted again.
	br.Success()
	if n := elect(reprobeAt); n != 32 {
		t.Fatalf("%d fan-outs admitted through the closed breaker, want all 32", n)
	}
}

// TestNilBreakerAdmitsAll pins the disabled breaker: a nil *Breaker admits
// every call, ignores every outcome and is never due for a probe.
func TestNilBreakerAdmitsAll(t *testing.T) {
	var br *Breaker
	for i := 0; i < 3; i++ {
		br.Failure(epoch)
	}
	br.Pushback()
	br.Success()
	if wait, ok := br.Allow(epoch); !ok || wait != 0 {
		t.Fatalf("nil breaker Allow = (%s, %v), want (0s, true)", wait, ok)
	}
	if br.ProbeDue(epoch.Add(time.Hour)) {
		t.Fatal("nil breaker reported ProbeDue")
	}
}
