package browser

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"geoserp/internal/detrand"
	"geoserp/internal/httpheader"
	"geoserp/internal/simclock"
)

// ChaosConfig describes the faults a ChaosTransport injects between the
// browser and the search service. Rates are probabilities in [0, 1] and are
// drawn independently per attempt, keyed on the request's trace ID and its
// X-Trace-Attempt number — so a given (trace, attempt) pair always fails
// the same way, keeping fault-injection campaigns exactly reproducible.
type ChaosConfig struct {
	// Seed keys every fault draw; the same seed replays the same faults.
	Seed uint64
	// ErrorRate is the probability a round trip fails at the transport
	// layer (connection refused / reset) before reaching the server.
	ErrorRate float64
	// ServerErrorRate is the probability the round trip is answered with a
	// synthesized 500 instead of the real response.
	ServerErrorRate float64
	// TruncateRate is the probability the real response body is cut short
	// mid-stream, surfacing io.ErrUnexpectedEOF to the reader.
	TruncateRate float64
	// Latency, when positive, is added to every round trip (slept on
	// Clock, so virtual-time campaigns absorb it for free).
	Latency time.Duration
	// Clock times the injected latency; defaults to the wall clock.
	Clock simclock.Clock
}

// ChaosTransport is an http.RoundTripper that injects deterministic faults
// in front of another transport. It models the flaky live service the
// paper's crawlers ran against, so fail-soft behaviour can be tested
// without a misbehaving network.
type ChaosTransport struct {
	cfg  ChaosConfig
	next http.RoundTripper

	seq      atomic.Uint64 // draw key for requests without (trace, attempt)
	injected atomic.Uint64
}

// NewChaosTransport wraps next (http.DefaultTransport when nil) with fault
// injection per cfg.
func NewChaosTransport(cfg ChaosConfig, next http.RoundTripper) *ChaosTransport {
	if next == nil {
		next = http.DefaultTransport
	}
	if cfg.Clock == nil {
		cfg.Clock = simclock.Wall()
	}
	return &ChaosTransport{cfg: cfg, next: next}
}

// Injected reports how many faults have been injected so far.
func (c *ChaosTransport) Injected() uint64 { return c.injected.Load() }

// attemptKey returns the deterministic draw key for this request: the trace
// ID plus its attempt number (retries of one trace must be able to draw
// differently, or a retried fault would repeat forever). The attempt comes
// from the X-Trace-Attempt header the browser sends with every traced
// fetch — a growth-free, arrival-order-independent key. A request without
// both draws on a global sequence number instead.
func (c *ChaosTransport) attemptKey(req *http.Request) string {
	trace := req.Header.Get(httpheader.TraceID)
	if n, ok := httpheader.Attempt(req.Header); ok && n > 0 && trace != "" {
		return fmt.Sprintf("%s-%d", trace, n)
	}
	return fmt.Sprintf("seq-%d", c.seq.Add(1))
}

// RoundTrip injects at most one fault per attempt, drawn in a fixed order
// (transport error, then 5xx, then truncation) so rates compose
// predictably.
func (c *ChaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rng := detrand.NewKeyed(c.cfg.Seed, "chaos", c.attemptKey(req))
	if c.cfg.Latency > 0 {
		// A caller holding a virtual clock (see simclock.Holder) must
		// sleep through SleepHeld, or the driver it is holding off would
		// never advance past this very sleep.
		if h := simclock.HeldFrom(req.Context()); h != nil {
			h.SleepHeld(c.cfg.Latency)
		} else {
			c.cfg.Clock.Sleep(c.cfg.Latency)
		}
	}
	if rng.Bool(c.cfg.ErrorRate) {
		c.injected.Add(1)
		return nil, fmt.Errorf("chaos: injected transport error for %s", req.URL.Path)
	}
	if rng.Bool(c.cfg.ServerErrorRate) {
		c.injected.Add(1)
		body := "chaos: injected server error"
		return &http.Response{
			Status:        "500 Internal Server Error",
			StatusCode:    http.StatusInternalServerError,
			Proto:         "HTTP/1.1",
			ProtoMajor:    1,
			ProtoMinor:    1,
			Header:        http.Header{"Content-Type": []string{"text/plain; charset=utf-8"}},
			Body:          io.NopCloser(strings.NewReader(body)),
			ContentLength: int64(len(body)),
			Request:       req,
		}, nil
	}
	resp, err := c.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if rng.Bool(c.cfg.TruncateRate) {
		c.injected.Add(1)
		// Cut the body 1–128 bytes in. The wrapper surfaces
		// io.ErrUnexpectedEOF (not a clean EOF) so readers can tell a torn
		// response from a short one.
		resp.Body = &truncatedBody{r: resp.Body, remaining: 1 + rng.Intn(128)}
		resp.ContentLength = -1
	}
	return resp, nil
}

// truncatedBody passes through up to remaining bytes of r, then reports
// io.ErrUnexpectedEOF. If r ends before the cut point the response was
// genuinely short, and the clean EOF passes through untouched.
type truncatedBody struct {
	r         io.ReadCloser
	remaining int
}

func (t *truncatedBody) Read(p []byte) (int, error) {
	if t.remaining <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if len(p) > t.remaining {
		p = p[:t.remaining]
	}
	n, err := t.r.Read(p)
	t.remaining -= n
	if err == nil && t.remaining <= 0 {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

func (t *truncatedBody) Close() error { return t.r.Close() }
