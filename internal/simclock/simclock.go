// Package simclock provides a virtual clock so that the crawl campaigns —
// which in the paper span 30 days of wall-clock time with 11-minute waits
// between queries — can execute in milliseconds while preserving lock-step
// semantics (every treatment of a search term fires at the same instant)
// and time-dependent engine behaviour (the 10-minute search-history window,
// day-by-day consistency analysis).
//
// Two implementations are provided: Manual, which only moves when Advance is
// called, and the real-time clock returned by Wall for code that genuinely
// wants wall time. Components accept the Clock interface so tests and the
// crawler can substitute a Manual clock.
package simclock

import (
	"context"
	"sort"
	"sync"
	"time"
)

// Clock abstracts time for the engine and the crawler. Implementations must
// be safe for concurrent use.
type Clock interface {
	// Now returns the current instant.
	Now() time.Time
	// Sleep blocks the caller until d has elapsed on this clock.
	Sleep(d time.Duration)
}

// Wall returns a Clock backed by real time.
func Wall() Clock { return wallClock{} }

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// Manual is a virtual clock that only moves when Advance or AdvanceTo is
// called, as DriveUntil does. Goroutines blocked in Sleep are released, in
// deadline order, as the clock passes their wake-up instants.
//
// The zero value is not usable; construct with NewManual.
type Manual struct {
	mu      sync.Mutex
	now     time.Time
	sleeper []*sleeper // sorted by deadline
	waiting sync.Cond  // broadcast whenever the sleeper set changes
	// arrived receives a token whenever a new sleeper parks; buffered so
	// a pending signal is never lost while the driver is advancing. See
	// SleeperArrived.
	arrived chan struct{}
	// holds counts workers doing real (wall-clock) work that virtual
	// time must not hop past; see Hold. idle is broadcast when it
	// reaches zero.
	holds int
	idle  sync.Cond
}

type sleeper struct {
	deadline time.Time
	ch       chan struct{}
	// rehold re-acquires a hold at the wake-up instant, atomically with
	// the release — the worker resumes already holding, so the driver
	// cannot hop again before it parks or finishes. See SleepHeld.
	rehold bool
	// passive marks a sleeper that rides the clock instead of driving it:
	// it wakes, in deadline order, whenever an advance crosses its
	// deadline, but it is invisible to NextDeadline — so a driver hopping
	// from sleeper to sleeper never advances virtual time *because* of it.
	// Without this, a permanently re-parking background loop (a health
	// prober) hands DriveUntil an always-available deadline and virtual
	// time races ahead at wall speed whenever the campaign workers are
	// between sleeps. See SleepHeldPassive.
	passive bool
}

// NewManual returns a Manual clock starting at the given instant.
func NewManual(start time.Time) *Manual {
	m := &Manual{now: start, arrived: make(chan struct{}, 1)}
	m.waiting.L = &m.mu
	m.idle.L = &m.mu
	return m
}

// Now returns the current virtual instant.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// Sleep blocks until the virtual clock has advanced by d. A non-positive d
// returns immediately.
func (m *Manual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	m.mu.Lock()
	s := &sleeper{deadline: m.now.Add(d), ch: make(chan struct{})}
	m.insertLocked(s)
	m.waiting.Broadcast()
	m.mu.Unlock()
	<-s.ch
}

// insertLocked adds s keeping the sleeper slice sorted by deadline.
func (m *Manual) insertLocked(s *sleeper) {
	i := sort.Search(len(m.sleeper), func(i int) bool {
		return m.sleeper[i].deadline.After(s.deadline)
	})
	m.sleeper = append(m.sleeper, nil)
	copy(m.sleeper[i+1:], m.sleeper[i:])
	m.sleeper[i] = s
	select {
	case m.arrived <- struct{}{}:
	default: // a signal is already pending; one token is enough
	}
}

// Holder is the hold/quiesce surface of a clock whose driver must not
// advance virtual time past in-flight real work. Manual implements it;
// use HolderOf to discover it behind the Clock interface.
//
// The protocol: a worker (or its dispatcher, before launching it) calls
// Hold, does its real work — HTTP fetches, parsing — and calls Release
// when done. DriveUntil, the one loop that drives the clock, advances it
// only while no holds are out, so a virtual timestamp taken mid-work is the
// instant the work logically started at, not whatever the clock hopped
// to while the I/O was in flight. Without holds, span timelines and any
// other mid-flight clock reads become racy: the driver may hop to a
// parked sleeper's deadline while another worker's fetch is still on the
// wire.
type Holder interface {
	// Hold defers clock advancement until the matching Release.
	Hold()
	// Release undoes one Hold.
	Release()
	// SleepHeld is Sleep for a holding worker: it releases the hold for
	// the duration (so the driver can advance) and re-acquires it at the
	// wake-up instant, atomically — the driver cannot hop past the wake
	// time before the worker resumes.
	SleepHeld(d time.Duration)
	// SleepHeldPassive is SleepHeld for background maintenance loops that
	// must never drag virtual time forward on their own: the parked
	// sleeper is invisible to drivers choosing the next instant to
	// advance to.
	SleepHeldPassive(d time.Duration)
}

// HolderOf returns clk's Holder when it has one (Manual does), nil
// otherwise (Wall: real time cannot be held).
func HolderOf(clk Clock) Holder {
	h, _ := clk.(Holder)
	return h
}

type heldKey struct{}

// WithHeld records in ctx that the caller runs under h.Hold(), so nested
// code that must sleep on the clock (e.g. an injected-latency transport)
// can find the hold and use SleepHeld instead of deadlocking the driver.
// A nil h returns ctx unchanged.
func WithHeld(ctx context.Context, h Holder) context.Context {
	if h == nil {
		return ctx
	}
	return context.WithValue(ctx, heldKey{}, h)
}

// HeldFrom returns the Holder recorded by WithHeld, or nil.
func HeldFrom(ctx context.Context) Holder {
	h, _ := ctx.Value(heldKey{}).(Holder)
	return h
}

// Hold marks the caller (or a worker it is about to launch) as doing
// real work; drivers will not advance the clock until Release.
func (m *Manual) Hold() {
	m.mu.Lock()
	m.holds++
	m.mu.Unlock()
}

// Release undoes one Hold, waking any driver waiting to advance.
func (m *Manual) Release() {
	m.mu.Lock()
	if m.holds > 0 {
		m.holds--
	}
	if m.holds == 0 {
		m.idle.Broadcast()
	}
	m.mu.Unlock()
}

// SleepHeld releases one hold, sleeps d on the virtual clock, and
// re-acquires the hold atomically at the wake-up instant (inside the
// Advance that releases the sleeper), so the driver cannot hop past the
// wake time before the worker runs again. A non-positive d keeps the
// hold and returns immediately.
func (m *Manual) SleepHeld(d time.Duration) {
	m.sleepHeld(d, false)
}

// SleepHeldPassive is SleepHeld for background maintenance loops: the
// sleeper still wakes — re-holding — when the clock crosses its deadline,
// but it never becomes the driver's next hop target (NextDeadline skips
// it). Campaign sleepers drive the clock; passive sleepers ride it. A
// loop that re-parks forever (a health prober ticking every interval)
// must sleep passively, or DriveUntil would hop its deadlines at wall
// speed whenever the campaign workers are momentarily between sleeps,
// racing virtual time arbitrarily far ahead of the campaign.
func (m *Manual) SleepHeldPassive(d time.Duration) {
	m.sleepHeld(d, true)
}

func (m *Manual) sleepHeld(d time.Duration, passive bool) {
	if d <= 0 {
		return
	}
	m.mu.Lock()
	if m.holds > 0 {
		m.holds--
	}
	if m.holds == 0 {
		m.idle.Broadcast()
	}
	s := &sleeper{deadline: m.now.Add(d), ch: make(chan struct{}), rehold: true, passive: passive}
	m.insertLocked(s)
	m.waiting.Broadcast()
	m.mu.Unlock()
	<-s.ch
}

// Holds reports the number of holds currently out.
func (m *Manual) Holds() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.holds
}

// quiesce blocks until no holds are out.
func (m *Manual) quiesce() {
	m.mu.Lock()
	for m.holds > 0 {
		m.idle.Wait()
	}
	m.mu.Unlock()
}

// Advance moves the clock forward by d, releasing — in deadline order — every
// sleeper whose deadline is reached. Advance sets the clock to each
// intermediate deadline before releasing the sleeper blocked on it, so a
// released goroutine observing Now sees exactly its wake-up instant or later.
func (m *Manual) Advance(d time.Duration) {
	if d < 0 {
		return
	}
	m.mu.Lock()
	target := m.now.Add(d)
	for len(m.sleeper) > 0 && !m.sleeper[0].deadline.After(target) {
		s := m.sleeper[0]
		m.sleeper = m.sleeper[1:]
		m.now = s.deadline
		if s.rehold {
			m.holds++
		}
		close(s.ch)
	}
	m.now = target
	m.mu.Unlock()
}

// AdvanceTo moves the clock to instant t (no-op if t is not after Now).
func (m *Manual) AdvanceTo(t time.Time) {
	m.mu.Lock()
	d := t.Sub(m.now)
	m.mu.Unlock()
	m.Advance(d)
}

// Sleepers returns the number of goroutines currently blocked in Sleep.
// It is primarily useful to drivers that want to advance the clock only
// once all workers have parked (see WaitForSleepers).
func (m *Manual) Sleepers() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sleeper)
}

// WaitForSleepers blocks until at least n goroutines are parked in Sleep.
// It lets a driver implement the "advance once everyone is waiting" pattern
// without polling.
func (m *Manual) WaitForSleepers(n int) {
	m.mu.Lock()
	for len(m.sleeper) < n {
		m.waiting.Wait()
	}
	m.mu.Unlock()
}

// NextDeadline reports the earliest pending driving sleeper deadline —
// passive sleepers (SleepHeldPassive) are skipped, so a driver consulting
// it never advances the clock on a background loop's account. ok is false
// when no driving goroutine is sleeping.
func (m *Manual) NextDeadline() (t time.Time, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, s := range m.sleeper {
		if !s.passive {
			return s.deadline, true
		}
	}
	return time.Time{}, false
}

// nextAnyDeadline reports the earliest pending deadline including passive
// sleepers. Drivers that have already decided to advance (a driving
// sleeper exists) hop here first, so a passive sleeper parked earlier
// wakes — and, via rehold, finishes its work under quiesce — strictly
// before the clock reaches the driving deadline. That keeps background
// sweeps serialized against campaign rounds even at shared instants.
func (m *Manual) nextAnyDeadline() (t time.Time, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.sleeper) == 0 {
		return time.Time{}, false
	}
	return m.sleeper[0].deadline, true
}

// SleeperArrived returns a channel that receives a token when a goroutine
// parks in Sleep. The channel is buffered (capacity one), so a signal sent
// while the driver is busy advancing is held rather than lost; a stale
// token only costs the driver one extra NextDeadline check. Drivers use it
// to block — instead of busy-polling — while workers are off doing real
// (wall-clock) work between virtual sleeps.
func (m *Manual) SleeperArrived() <-chan struct{} { return m.arrived }

// DriveUntil advances virtual time until done is closed (or receives).
// Whenever a sleeper is pending, the clock hops to its deadline; when none
// is, the driver blocks until either a new sleeper parks or done fires —
// no polling, no burned core. The crawler runs each campaign in a
// goroutine and closes done when it returns; meanwhile DriveUntil elides
// every idle wait while the workers' real fetch work proceeds at hardware
// speed.
func (m *Manual) DriveUntil(done <-chan struct{}) {
	for {
		select {
		case <-done:
			return
		default:
		}
		if _, ok := m.NextDeadline(); ok {
			// Let in-flight real work finish before hopping (see Holder),
			// then hop to the earliest deadline of ANY sleeper — passive
			// included, and re-read after quiescing: a worker that was
			// mid-fetch may have parked an earlier one while we waited.
			// Passive sleepers never trigger this branch, but once a
			// driving deadline exists the hop must visit each earlier
			// passive deadline first, one quiesce per hop, so background
			// sweeps land at their exact instants instead of racing the
			// workers released at the driving deadline.
			m.quiesce()
			if next, ok := m.nextAnyDeadline(); ok {
				m.AdvanceTo(next)
			}
			continue
		}
		// No sleeper: workers are mid-fetch (or finishing). Block until
		// one parks or the campaign completes.
		select {
		case <-done:
			return
		case <-m.arrived:
		}
	}
}
