// Package breaker is the circuit breaker both ends of geoserp's wire use:
// the crawler's browser guards its search endpoint with one, and the
// cluster router guards every shard replica with one. The machine is the
// classic three-state breaker: closed (traffic flows, consecutive failures
// are counted), open (traffic fails fast until a cooldown elapses) and
// half-open (one probe is admitted; success closes the breaker, failure
// reopens it).
//
// A Breaker is driven entirely by the clock instants its owner passes in —
// it never reads a clock itself — so under a Manual campaign clock its
// transitions are a pure function of the deterministic outcome sequence.
// It is safe for concurrent use: many router fan-outs consult one replica's
// breaker at once, and in half-open state exactly one of them carries the
// probe.
//
// Every call Allow admits must be resolved by exactly one of Success,
// Failure or Pushback; an unresolved half-open probe would hold the probe
// slot forever.
package breaker

import (
	"sync"
	"time"
)

const (
	closed = iota
	open
	halfOpen
)

// Breaker is one endpoint's circuit breaker. A nil *Breaker is disabled:
// it admits every call and ignores every outcome.
type Breaker struct {
	threshold int           // consecutive failures that trip the breaker
	cooldown  time.Duration // open-state dwell before a half-open probe
	deferTrip bool          // admit calls at the trip's own instant
	// onTransition, when set, observes every state change with its label:
	// "open" (a trip from closed), "reopen" (a failed half-open probe),
	// "half_open" and "close". At quiescence open == close. It is called
	// after the lock is released, so concurrent callers may report out of
	// transition order; a counter does not mind.
	onTransition func(label string)

	mu        sync.Mutex
	state     int
	failures  int       // consecutive failures while closed
	openedAt  time.Time // instant of the most recent trip or reopen
	trippedAt time.Time // instant of the most recent closed→open trip
	probing   bool      // half-open: a probe is in flight
}

// New returns a closed breaker that trips after threshold consecutive
// failures and stays open for cooldown.
//
// deferTrip makes a trip take effect strictly after the instant it
// happened at: calls sharing the tripping call's instant are still
// admitted. Concurrent callers want this — fan-out siblings at one instant
// were already committed when the threshold failure landed, and without
// the deferral whether they contact the endpoint or fail fast would depend
// on goroutine interleaving. A sequential caller that retries on the
// campaign clock must not defer: its retries at the trip's instant would
// be spent against the endpoint the breaker just declared dead. Reopens
// after a failed probe never defer — same-instant callers were denied
// before the reopen (probe slot taken) and after it (cooldown restarted).
//
// onTransition, when non-nil, observes every state change (see Breaker).
func New(threshold int, cooldown time.Duration, deferTrip bool, onTransition func(label string)) *Breaker {
	return &Breaker{threshold: threshold, cooldown: cooldown, deferTrip: deferTrip, onTransition: onTransition}
}

// report passes a transition's label to onTransition. Callers defer it
// before taking the lock, so it runs once the lock is released.
func (b *Breaker) report(label string) {
	if label != "" && b.onTransition != nil {
		b.onTransition(label)
	}
}

// Allow reports whether a call may be issued at instant now. Open fails
// fast with the remaining cooldown until it elapses, then moves to
// half-open and admits a single probe; while that probe is outstanding
// every other caller fails fast too.
func (b *Breaker) Allow(now time.Time) (wait time.Duration, ok bool) {
	if b == nil {
		return 0, true
	}
	var label string
	defer func() { b.report(label) }()
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case closed:
		return 0, true
	case open:
		if b.deferTrip && now.Equal(b.trippedAt) {
			return 0, true
		}
		if wait := b.openedAt.Add(b.cooldown).Sub(now); wait > 0 {
			return wait, false
		}
		b.state, label = halfOpen, "half_open"
		b.probing = true
		return 0, true
	default: // half-open
		if b.probing {
			return 0, false
		}
		b.probing = true
		return 0, true
	}
}

// Success records a call the endpoint answered usefully. A successful
// half-open probe closes the breaker; in the closed state it resets the
// failure streak.
func (b *Breaker) Success() {
	if b == nil {
		return
	}
	var label string
	defer func() { b.report(label) }()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == halfOpen {
		b.probing = false
		b.state, label = closed, "close"
	}
	b.failures = 0
}

// Failure records a breaker-eligible failure at instant now: the endpoint
// stopped answering usefully (transport errors, timeouts, 5xx other than
// sheds). A failed half-open probe reopens the breaker for another full
// cooldown.
func (b *Breaker) Failure(now time.Time) {
	if b == nil {
		return
	}
	var label string
	defer func() { b.report(label) }()
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case halfOpen:
		b.probing = false
		b.openedAt = now
		b.state, label = open, "reopen"
	case closed:
		b.failures++
		if b.failures >= b.threshold {
			b.openedAt = now
			b.trippedAt = now
			b.state, label = open, "open"
		}
	}
}

// Pushback records an admitted call that was neither a success nor a
// breaker-eligible failure: explicit pushback from a live endpoint (a 429,
// a 503 shed), a permanent error, or a cancelled call. It must not trip
// the breaker and must not count as success; its only effect is that a
// half-open probe resolved this way frees the probe slot for the next
// caller.
func (b *Breaker) Pushback() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == halfOpen {
		b.probing = false
	}
}

// ProbeDue reports whether the breaker has sat open for at least its
// cooldown at instant now — an out-of-band health prober's admission
// test. Half-open breakers are not due: an in-flight probe owns the slot,
// and closed breakers need no re-admission.
func (b *Breaker) ProbeDue(now time.Time) bool {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == open && now.Sub(b.openedAt) >= b.cooldown
}

// ProbeClose closes an open breaker on the strength of an out-of-band
// health probe, reporting whether it transitioned. It emits the same
// "close" label as a successful half-open probe, so the open/close ledger
// stays balanced no matter which path re-admitted the endpoint. A breaker
// that moved on since ProbeDue (a concurrent caller took it half-open) is
// left alone — the in-flight probe decides.
func (b *Breaker) ProbeClose() bool {
	var label string
	defer func() { b.report(label) }()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != open {
		return false
	}
	b.failures = 0
	b.state, label = closed, "close"
	return true
}

// State names the breaker's state: "closed", "open" or "half-open".
func (b *Breaker) State() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case open:
		return "open"
	case halfOpen:
		return "half-open"
	default:
		return "closed"
	}
}
