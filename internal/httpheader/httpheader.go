// Package httpheader is the single home of every custom X-* HTTP header
// name the cluster protocol rides on. The geoserplint headerkey analyzer
// forbids raw "X-*" string literals everywhere else in the module, so a
// header name can only be spelled through these constants — the compiler
// catches a misspelled identifier, whereas a typo'd literal silently
// reads as an absent header: the trace degrades to orphan roots, the
// deadline stops propagating, the partial-page marker vanishes.
//
// Constants are named after the header's suffix (X-Trace-Id -> TraceID)
// so call sites read as the wire protocol does. Add new headers here,
// never inline. A header with a structured value keeps its codec here
// too (SetDeadline/Deadline, SetAttempt/Attempt).
package httpheader

import (
	"net/http"
	"strconv"
	"time"
)

const (
	// TraceID carries the request's trace ID: the stable identity that
	// joins a browser-side fetch span, the router's fan-out legs, and
	// each shard's server spans into one cross-process trace.
	TraceID = "X-Trace-Id"

	// TraceAttempt carries the client's 1-based fetch attempt number
	// beside TraceID. The server folds it into its span IDs so each
	// retry of a request yields distinct, attributable server spans.
	TraceAttempt = "X-Trace-Attempt"

	// ParentSpan carries the caller's span ID across a process boundary
	// beside TraceID, so a server can mint its span as a remote child of
	// the caller's leg and the stitcher can hang it under the right
	// parent.
	ParentSpan = "X-Parent-Span"

	// DeadlineMs carries the client's absolute request deadline as unix
	// milliseconds on the shared virtual clock, letting every hop shed
	// work that cannot finish in time.
	DeadlineMs = "X-Deadline-Ms"

	// Datacenter pins a request to a named replica, emulating a client
	// whose DNS resolved the search frontend to a specific datacenter.
	Datacenter = "X-Datacenter"

	// SerpPartial marks a 200 response whose named vertical was
	// assembled fail-soft after a dependency fault ("web": organic
	// results degraded).
	SerpPartial = "X-Serp-Partial"

	// StatzRing names the ring-buffer window a /statz snapshot was
	// computed over, so scrapers can detect a truncated audit window.
	StatzRing = "X-Statz-Ring"

	// ServedBy echoes the replica that actually served the page, for
	// datacenter-pinning assertions and scatter-gather attribution.
	ServedBy = "X-Served-By"

	// ForwardedFor carries the emulated client IP driving server-side
	// geolocation — the independent variable of the whole study.
	ForwardedFor = "X-Forwarded-For"
)

// SetDeadline stamps an absolute deadline on h as DeadlineMs carries it:
// unix milliseconds in base 10. A zero t sets nothing.
func SetDeadline(h http.Header, t time.Time) {
	if !t.IsZero() {
		h.Set(DeadlineMs, strconv.FormatInt(t.UnixMilli(), 10))
	}
}

// Deadline reads the propagated absolute deadline from h's DeadlineMs. An
// absent, empty, non-numeric or non-positive value means no deadline: the
// zero time.
func Deadline(h http.Header) time.Time {
	v := h.Get(DeadlineMs)
	if v == "" {
		return time.Time{}
	}
	ms, err := strconv.ParseInt(v, 10, 64)
	if err != nil || ms <= 0 {
		return time.Time{}
	}
	return time.UnixMilli(ms)
}

// SetAttempt stamps the fetch attempt number n on h as TraceAttempt
// carries it: base 10.
func SetAttempt(h http.Header, n int) {
	h.Set(TraceAttempt, strconv.Itoa(n))
}

// Attempt reads the attempt number from h's TraceAttempt. ok is true only
// when the value is a base-10 int (strconv.Atoi's syntax and range); n is
// 0 whenever ok is false. Callers that need a positive attempt check n.
func Attempt(h http.Header) (n int, ok bool) {
	n, err := strconv.Atoi(h.Get(TraceAttempt))
	if err != nil {
		return 0, false
	}
	return n, true
}
