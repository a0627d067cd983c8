package serpserver

import (
	"container/list"
	"net/http"
	"strconv"
	"sync"
	"time"

	"geoserp/internal/httpheader"
	"geoserp/internal/simclock"
	"geoserp/internal/telemetry"
)

// AdmissionConfig bounds concurrent /search work. MaxInflight requests run
// at once; up to QueueDepth more wait in FIFO order for a slot; everything
// beyond that is shed with 503 and a Retry-After hint so well-behaved
// clients back off instead of hammering an overloaded server. Only /search
// is gated — health, stats, metrics, and trace endpoints must stay
// reachable precisely when the server is drowning.
type AdmissionConfig struct {
	// MaxInflight is the concurrency bound; <= 0 disables admission
	// control entirely.
	MaxInflight int
	// QueueDepth bounds how many requests may wait for a slot. 0 means no
	// queue: a full server sheds immediately.
	QueueDepth int
	// ServiceTime is the operator's estimate of one request's service
	// time. It scales the Retry-After hint (queue backlog x estimate /
	// slots) and the shed-on-arrival prediction for deadlined requests.
	// Defaults to one second.
	ServiceTime time.Duration
	// Clock supplies the instants for deadline checks and Retry-After
	// arithmetic — the campaign clock in virtual-time rigs. Defaults to
	// the wall clock. Queue WAITING never sleeps on this clock: waiters
	// block on channel handoff from a releasing request, so a held
	// virtual clock cannot deadlock the gate.
	Clock simclock.Clock
}

// Enabled reports whether admission control is configured.
func (c AdmissionConfig) Enabled() bool { return c.MaxInflight > 0 }

// Shed reasons, as exposed through serpd_admission_shed_total{reason}.
const (
	shedQueueFull = "queue_full" // all slots busy and the queue is full
	shedDeadline  = "deadline"   // the request could not make its deadline
	shedCanceled  = "canceled"   // the client gave up while queued
)

// admission is the gate middleware, built by WithAdmission/NewAdmission.
// The slot accounting lives behind a plain mutex; a request that frees a
// slot hands it directly to the oldest live waiter through that waiter's
// channel, so admission order is FIFO and a handoff never wakes more
// goroutines than slots.
type admission struct {
	cfg   AdmissionConfig
	next  http.Handler
	spans *telemetry.SpanRecorder
	wall  simclock.Clock

	admitted  *telemetry.Counter    // serpd_admission_admitted_total
	shed      *telemetry.CounterVec // serpd_admission_shed_total{reason}
	inflightG *telemetry.Gauge      // serpd_admission_inflight
	queuedG   *telemetry.Gauge      // serpd_admission_queued
	queueWait *telemetry.Histogram  // serpd_admission_queue_wait_seconds

	gate *gate
}

// WithAdmission wraps next (usually h itself, possibly already wrapped in
// chaos middleware — admission sits outermost so deliberate faults cannot
// bypass the gate) with admission control per cfg. Metrics register on h's
// telemetry registry; when h records spans, every shed produces a
// "serpd.shed" span carrying the reason and the Retry-After hint.
func WithAdmission(cfg AdmissionConfig, h *Handler, next http.Handler) http.Handler {
	return NewAdmission(cfg, h.Telemetry(), h.spans, next)
}

// NewAdmission is WithAdmission for servers that are not a full SERP
// Handler — a cluster shard node gates its /shard/search endpoint with
// exactly the same FIFO machinery, registering metrics and shed spans on
// its own registry and recorder. spans may be nil (no shed spans).
func NewAdmission(cfg AdmissionConfig, reg *telemetry.Registry, spans *telemetry.SpanRecorder, next http.Handler) http.Handler {
	if !cfg.Enabled() {
		return next
	}
	if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 0
	}
	if cfg.ServiceTime <= 0 {
		cfg.ServiceTime = time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = simclock.Wall()
	}
	return &admission{
		cfg:   cfg,
		next:  next,
		spans: spans,
		wall:  simclock.Wall(),
		admitted: reg.Counter("serpd_admission_admitted_total",
			"Search requests admitted past the concurrency gate."),
		shed: reg.CounterVec("serpd_admission_shed_total",
			"Search requests shed by the admission gate, by reason.", "reason"),
		inflightG: reg.Gauge("serpd_admission_inflight",
			"Search requests currently executing."),
		queuedG: reg.Gauge("serpd_admission_queued",
			"Search requests currently waiting for an execution slot."),
		queueWait: reg.Histogram("serpd_admission_queue_wait_seconds",
			"Wall-clock time admitted requests spent queued for a slot.", nil),
		gate: newGate(cfg.MaxInflight, cfg.QueueDepth),
	}
}

func (a *admission) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/search" && r.URL.Path != "/shard/search" {
		a.next.ServeHTTP(w, r)
		return
	}
	deadline := httpheader.Deadline(r.Header)
	now := a.cfg.Clock.Now()
	if !deadline.IsZero() && now.After(deadline) {
		// Already dead on arrival: even an idle server cannot answer in
		// time, so don't waste a slot rendering a page nobody will read.
		a.shedRequest(w, r, shedDeadline)
		return
	}

	ticket, verdict := a.gate.acquire(func(queuedAhead int) bool {
		// Enqueue predicate, called under the gate lock when no slot is
		// free: a deadlined request only queues if the backlog ahead of it
		// can plausibly drain in time. Refusing here turns a guaranteed
		// timeout into an immediate, cheap shed with an honest hint.
		if deadline.IsZero() {
			return true
		}
		est := a.cfg.ServiceTime * time.Duration(queuedAhead+1) / time.Duration(a.cfg.MaxInflight)
		return !now.Add(est).After(deadline)
	})
	switch verdict {
	case gateQueueFull:
		a.shedRequest(w, r, shedQueueFull)
		return
	case gateWontMakeIt:
		a.shedRequest(w, r, shedDeadline)
		return
	}

	if ticket != nil { // queued: wait for a handoff, not a clock tick
		a.queuedG.Add(1)
		waitStart := a.wall.Now()
		select {
		case <-ticket.ready:
			a.queuedG.Add(-1)
			a.queueWait.Observe(a.wall.Now().Sub(waitStart).Seconds())
			if !deadline.IsZero() && a.cfg.Clock.Now().After(deadline) {
				// The slot arrived too late; pass it straight on.
				a.gate.release()
				a.shedRequest(w, r, shedDeadline)
				return
			}
		case <-r.Context().Done():
			a.queuedG.Add(-1)
			if a.gate.abandon(ticket) {
				// The handoff raced our cancellation and won; the slot is
				// ours to return.
				a.gate.release()
			}
			a.shed.With(shedCanceled).Inc()
			a.shedSpan(r, shedCanceled, 0)
			return
		}
	}

	a.admitted.Inc()
	a.inflightG.Add(1)
	defer func() {
		// Deferred so a chaos-injected panic (http.ErrAbortHandler) still
		// returns the slot — a fault rehearsal must not leak capacity.
		a.inflightG.Add(-1)
		a.gate.release()
	}()
	a.next.ServeHTTP(w, r)
}

// retryAfter computes the shed hint: the estimated time for the current
// backlog to drain through the configured slots, in whole seconds, at
// least one. Derived from gate state and config only — no randomness — so
// seeded campaigns see reproducible hints.
func (a *admission) retryAfter() time.Duration {
	backlog := a.gate.backlog() + 1
	est := a.cfg.ServiceTime * time.Duration(backlog) / time.Duration(a.cfg.MaxInflight)
	secs := (est + time.Second - 1) / time.Second
	if secs < 1 {
		secs = 1
	}
	return secs * time.Second
}

// shedRequest answers a request the gate refused: 503 with a Retry-After
// hint, plus the shed counter and span.
func (a *admission) shedRequest(w http.ResponseWriter, r *http.Request, reason string) {
	ra := a.retryAfter()
	a.shed.With(reason).Inc()
	a.shedSpan(r, reason, ra)
	w.Header().Set("Retry-After", strconv.Itoa(int(ra/time.Second)))
	http.Error(w, "server overloaded, request shed ("+reason+")", http.StatusServiceUnavailable)
}

// shedSpan records the shed on the request's trace so campaign timelines
// show why the fetch bounced.
func (a *admission) shedSpan(r *http.Request, reason string, ra time.Duration) {
	if a.spans == nil {
		return
	}
	attempt, _ := httpheader.Attempt(r.Header)
	s := a.spans.StartRootSeq(r.Header.Get(httpheader.TraceID), "serpd.shed", attempt)
	s.SetAttr("reason", reason)
	if ra > 0 {
		s.SetAttr("retry_after", ra.String())
	}
	s.End()
}

// gate verdicts from acquire.
const (
	gateAdmitted = iota // slot granted immediately, ticket is nil
	gateQueued          // no slot; wait on the returned ticket
	gateQueueFull
	gateWontMakeIt // the mayQueue predicate refused
)

// ticket is one queued request's place in line. ready is buffered so a
// releasing request can hand a slot to a waiter that is simultaneously
// abandoning — the abandon path detects the race and re-releases.
type ticket struct {
	ready chan struct{}
	elem  *list.Element
}

// gate is the slot ledger: a count of running requests plus a FIFO of
// waiting tickets. All methods are safe for concurrent use.
type gate struct {
	max, depth int

	mu       sync.Mutex
	inflight int
	queue    *list.List // of *ticket
}

func newGate(max, depth int) *gate {
	return &gate{max: max, depth: depth, queue: list.New()}
}

// acquire claims a slot. mayQueue is consulted (under the lock, with the
// number of requests already queued) only when the request would have to
// wait; returning false sheds instead of queueing.
func (g *gate) acquire(mayQueue func(queuedAhead int) bool) (*ticket, int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.inflight < g.max {
		g.inflight++
		return nil, gateAdmitted
	}
	if g.queue.Len() >= g.depth {
		return nil, gateQueueFull
	}
	if mayQueue != nil && !mayQueue(g.queue.Len()) {
		return nil, gateWontMakeIt
	}
	t := &ticket{ready: make(chan struct{}, 1)}
	t.elem = g.queue.PushBack(t)
	return t, gateQueued
}

// release returns a slot: the oldest waiter inherits it directly (the
// inflight count is unchanged — the slot never goes idle while the queue
// is non-empty); with no waiters the count drops.
func (g *gate) release() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if front := g.queue.Front(); front != nil {
		t := g.queue.Remove(front).(*ticket)
		t.elem = nil
		//lint:allow lockhold ready has capacity 1 and exactly one sender; the handoff send never blocks
		t.ready <- struct{}{}
		return
	}
	g.inflight--
}

// abandon removes a canceled waiter from the queue. It reports true when
// the ticket was already dequeued — meaning a handoff won the race and the
// abandoning caller must release the slot it was just given.
func (g *gate) abandon(t *ticket) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if t.elem == nil {
		return true
	}
	g.queue.Remove(t.elem)
	t.elem = nil
	return false
}

// backlog reports inflight plus queued, the load figure behind Retry-After.
func (g *gate) backlog() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inflight + g.queue.Len()
}
