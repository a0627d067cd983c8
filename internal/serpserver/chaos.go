package serpserver

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"geoserp/internal/detrand"
	"geoserp/internal/httpheader"
	"geoserp/internal/simclock"
	"geoserp/internal/telemetry"
)

// ChaosConfig describes server-side fault injection: serpd can be asked to
// misbehave deliberately (the -chaos-* flags) so crawler deployments can
// rehearse their fail-soft behaviour against a real wire. Faults only hit
// /search — health, stats, and metrics endpoints stay reliable so the
// injected failures remain observable.
//
// Draws are keyed on the request's trace ID plus a per-trace attempt
// counter (global sequence number for untraced traffic), making a chaos
// run with a fixed seed exactly reproducible.
type ChaosConfig struct {
	// Seed keys every fault draw.
	Seed uint64
	// AbortRate is the probability the connection is severed before any
	// response bytes are written — the client sees a transport error.
	AbortRate float64
	// ServerErrorRate is the probability the request is answered 500.
	ServerErrorRate float64
	// TruncateRate is the probability the response body is cut off
	// half-way, with a Content-Length promising the full page.
	TruncateRate float64
	// Latency, when positive, delays every affected request (slept on
	// Clock, so virtual-time rigs absorb it).
	Latency time.Duration
	// Clock times the injected latency; defaults to the wall clock.
	Clock simclock.Clock
}

// Enabled reports whether any fault is configured.
func (c ChaosConfig) Enabled() bool {
	return c.AbortRate > 0 || c.ServerErrorRate > 0 || c.TruncateRate > 0 || c.Latency > 0
}

// chaosMiddleware injects faults in front of next.
type chaosMiddleware struct {
	cfg   ChaosConfig
	next  http.Handler
	ctr   *telemetry.CounterVec // serpd_chaos_injected_total{kind}
	spans *telemetry.SpanRecorder

	mu       sync.Mutex
	attempts map[string]int
	seq      atomic.Uint64
}

// chaosNoteKey carries the injected-fault kind to the handler's request
// span when the handler still runs (the truncate fault renders the full
// page before the cut, so the fault is only visible as an attribute).
type chaosNoteKey struct{}

// chaosNote returns the fault kind the chaos middleware noted on the
// context ("" when none).
func chaosNote(ctx context.Context) string {
	kind, _ := ctx.Value(chaosNoteKey{}).(string)
	return kind
}

// WithChaos wraps a handler with fault injection per cfg. The injected
// fault counts are exposed through reg (the handler's own registry) as
// serpd_chaos_injected_total{kind}; when the handler records spans, faults
// that short-circuit it (abort, 5xx) are recorded as "serpd.chaos" spans
// so the timeline still explains the client-visible failure.
func WithChaos(cfg ChaosConfig, h *Handler) http.Handler {
	return NewChaos(cfg, h.Telemetry(), h.spans, h)
}

// NewChaos is WithChaos for servers that are not a full SERP Handler — a
// cluster shard node injects faults on its /shard/search endpoint with the
// same draw keying, registering the fault counters and chaos spans on its
// own registry and recorder. spans may be nil (no chaos spans).
func NewChaos(cfg ChaosConfig, reg *telemetry.Registry, spans *telemetry.SpanRecorder, next http.Handler) http.Handler {
	if cfg.Clock == nil {
		cfg.Clock = simclock.Wall()
	}
	return &chaosMiddleware{
		cfg:  cfg,
		next: next,
		ctr: reg.CounterVec("serpd_chaos_injected_total",
			"Faults deliberately injected by the chaos middleware, by kind.", "kind"),
		spans:    spans,
		attempts: make(map[string]int),
	}
}

// maxTrackedTraces bounds the legacy per-trace attempt map: once it holds
// this many traces it is reset wholesale. The bound only matters for
// traced clients that omit X-Trace-Attempt; the repo's browser always
// sends it, so campaign-length runs never grow the map at all.
const maxTrackedTraces = 4096

// attempt identifies one /search arrival: its trace ID ("" untraced), its
// 1-based per-trace attempt number (a global sequence number untraced),
// and the key that feeds the fault draws. The attempt number is read from
// the X-Trace-Attempt header the browser sends with every try — a
// growth-free, arrival-order-independent key; header-less traced requests
// fall back to a bounded counting map.
func (c *chaosMiddleware) attempt(r *http.Request) (trace string, n int, key string) {
	trace = r.Header.Get(httpheader.TraceID)
	if trace == "" {
		n = int(c.seq.Add(1))
		return "", n, fmt.Sprintf("seq-%d", n)
	}
	if an, ok := httpheader.Attempt(r.Header); ok && an > 0 {
		return trace, an, fmt.Sprintf("%s-%d", trace, an)
	}
	c.mu.Lock()
	if len(c.attempts) >= maxTrackedTraces {
		// Resetting restarts attempt numbering for in-flight traces, which
		// at worst replays a fault — acceptable for the legacy path, and
		// far better than one map entry per trace for a whole campaign.
		clear(c.attempts)
	}
	c.attempts[trace]++
	n = c.attempts[trace]
	c.mu.Unlock()
	return trace, n, fmt.Sprintf("%s-%d", trace, n)
}

// chaosSpan records an injected fault that short-circuits the handler.
func (c *chaosMiddleware) chaosSpan(trace string, n int, kind string) {
	if c.spans == nil {
		return
	}
	s := c.spans.StartRootSeq(trace, "serpd.chaos", n)
	s.SetAttr("kind", kind)
	s.End()
}

func (c *chaosMiddleware) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/search" && r.URL.Path != "/shard/search" {
		c.next.ServeHTTP(w, r)
		return
	}
	trace, n, key := c.attempt(r)
	rng := detrand.NewKeyed(c.cfg.Seed, "serpd-chaos", key)
	if c.cfg.Latency > 0 {
		c.cfg.Clock.Sleep(c.cfg.Latency)
	}
	switch {
	case rng.Bool(c.cfg.AbortRate):
		c.ctr.With("abort").Inc()
		c.chaosSpan(trace, n, "abort")
		// Sever the connection without a response: net/http treats this
		// panic as a deliberate abort, and the client sees a transport
		// error.
		panic(http.ErrAbortHandler)
	case rng.Bool(c.cfg.ServerErrorRate):
		c.ctr.With("5xx").Inc()
		c.chaosSpan(trace, n, "5xx")
		http.Error(w, "chaos: injected server error", http.StatusInternalServerError)
	case rng.Bool(c.cfg.TruncateRate):
		c.ctr.With("truncate").Inc()
		// Render the full response into a buffer, promise its full length,
		// deliver half, then abort — the client observes a mid-body cut,
		// not a short-but-complete page. The handler runs normally, so its
		// own span carries the fault as a chaos=truncate attribute.
		var buf bytes.Buffer
		bw := &bufferedResponse{header: make(http.Header), body: &buf}
		c.next.ServeHTTP(bw, r.WithContext(
			context.WithValue(r.Context(), chaosNoteKey{}, "truncate")))
		for k, vs := range bw.header {
			w.Header()[k] = vs
		}
		w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
		w.WriteHeader(bw.status())
		w.Write(buf.Bytes()[:buf.Len()/2])
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler)
	default:
		c.next.ServeHTTP(w, r)
	}
}

// bufferedResponse captures a handler's full response for the truncation
// fault.
type bufferedResponse struct {
	header     http.Header
	body       *bytes.Buffer
	statusCode int
}

func (b *bufferedResponse) Header() http.Header { return b.header }

func (b *bufferedResponse) WriteHeader(code int) {
	if b.statusCode == 0 {
		b.statusCode = code
	}
}

func (b *bufferedResponse) Write(p []byte) (int, error) {
	if b.statusCode == 0 {
		b.statusCode = http.StatusOK
	}
	return b.body.Write(p)
}

func (b *bufferedResponse) status() int {
	if b.statusCode == 0 {
		return http.StatusOK
	}
	return b.statusCode
}
