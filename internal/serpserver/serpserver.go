// Package serpserver exposes the synthetic engine over HTTP as the mobile
// search endpoint the crawler scrapes. The wire contract mirrors what the
// study depended on:
//
//	GET /search?q=<term>&ll=<lat>,<lon>[&format=json]
//
// where ll is the coordinate the client's (spoofed) Geolocation API
// reported. The handler reads the session cookie (search-history
// personalization), honours X-Datacenter pinning (the study's static DNS
// mapping), attributes the request to a client IP (X-Forwarded-For from
// the crawl machines, else the socket address), and returns the mobile
// card HTML — or 429 when the per-IP rate limiter trips.
package serpserver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"geoserp/internal/engine"
	"geoserp/internal/geo"
	"geoserp/internal/httpheader"
	"geoserp/internal/serp"
	"geoserp/internal/simclock"
	"geoserp/internal/telemetry"
)

// SessionCookie is the cookie carrying the session ID.
const SessionCookie = "SID"

// Replica pinning and fail-soft marking ride on the shared wire headers:
// httpheader.Datacenter pins a request to a named replica (a client that
// statically resolved the service hostname to one datacenter), and
// httpheader.SerpPartial marks a 200 response whose web vertical was
// assembled from an incomplete retrieval backend — shards shed, timed
// out, or behind an open breaker. The page is still well-formed; the
// header lets clients and audits distinguish degraded from complete.

// Handler is the HTTP front end over an Engine. It reports through the
// engine's telemetry registry (exposed at /metricsz) and, when a logger is
// installed, emits one structured access-log line per request.
type Handler struct {
	eng    *engine.Engine
	mux    *http.ServeMux
	tel    *telemetry.Registry
	logger *slog.Logger
	spans  *telemetry.SpanRecorder
	node   string
	// wideLog, when set, gets ONE canonical wide-event line per /search:
	// per-stage durations, per-shard outcomes, partial flag, status, trace
	// ID — the flat record the continuous-audit pipeline greps.
	wideLog  *slog.Logger
	widePool sync.Pool // of *wideSlot
	// pagePool holds the buffers HTML pages are appended into, bounded
	// by maxPooledPage.
	pagePool sync.Pool // of *[]byte
	// wall times request handling for the duration histogram and access
	// log: those measure real hardware latency regardless of the virtual
	// campaign clock driving the engine.
	wall simclock.Clock
	inst httpInstruments
}

// pageBufSize is a fresh page buffer's capacity: a study page is 3–3.5 KB
// on either surface.
const pageBufSize = 4 << 10

// maxPooledPage bounds the page-buffer pool: a buffer grown past it by an
// outsized page is dropped, not pooled, so one huge page cannot pin its
// buffer for the life of the process (the rule fmt applies to its own
// printer pool, golang.org/issue/23199).
const maxPooledPage = 64 << 10

// wideSlot is a pooled wide event plus its formatting buffer, so steady-
// state wide logging allocates only inside slog itself.
type wideSlot struct {
	ev  telemetry.WideEvent
	buf []byte
}

// httpInstruments are the handler's registered metrics.
type httpInstruments struct {
	requests *telemetry.Counter    // serpd_http_requests_total
	errors   *telemetry.Counter    // serpd_http_errors_total
	sessions *telemetry.Counter    // serpd_sessions_minted_total
	byCode   *telemetry.CounterVec // serpd_http_responses_total{code}
	byCard   *telemetry.CounterVec // serpd_cards_served_total{type}
	duration *telemetry.Histogram  // serpd_http_request_duration_seconds
}

// HandlerOption configures a Handler.
type HandlerOption func(*Handler)

// WithLogger installs a structured access logger: one record per request
// with method, path, client IP, status, duration, and trace ID.
func WithLogger(l *slog.Logger) HandlerOption {
	return func(h *Handler) { h.logger = l }
}

// WithSpans installs a span recorder: every /search request gets a
// "serpd.request" span (keyed off the incoming X-Trace-Id and
// X-Trace-Attempt headers, so retried fetches get distinct spans) with the
// engine's stage spans as children, and the handler mounts GET /tracez
// over the recorder.
func WithSpans(rec *telemetry.SpanRecorder) HandlerOption {
	return func(h *Handler) { h.spans = rec }
}

// WithNode names this process in the /spanz span export (default "serpd").
// The coordinator of a cluster passes "router" so stitched traces label
// lanes by role.
func WithNode(name string) HandlerOption {
	return func(h *Handler) { h.node = name }
}

// WithWideEvents installs the wide-event canonical request log: one
// structured "search.wide" line per /search on l, carrying the whole
// request story (stage durations, shard outcomes, partial flag, trace ID).
func WithWideEvents(l *slog.Logger) HandlerOption {
	return func(h *Handler) { h.wideLog = l }
}

// NewHandler builds the front end. Its metrics live on the engine's
// telemetry registry, so constructing the engine with
// engine.WithTelemetry(reg) makes /metricsz expose both layers from one
// registry.
func NewHandler(eng *engine.Engine, opts ...HandlerOption) *Handler {
	h := &Handler{eng: eng, mux: http.NewServeMux(), tel: eng.Telemetry(), wall: simclock.Wall(), node: "serpd"}
	for _, o := range opts {
		o(h)
	}
	h.widePool.New = func() any { return &wideSlot{buf: make([]byte, 0, 512)} }
	h.pagePool.New = func() any {
		b := make([]byte, 0, pageBufSize)
		return &b
	}
	h.inst = httpInstruments{
		requests: h.tel.Counter("serpd_http_requests_total", "HTTP requests received."),
		errors:   h.tel.Counter("serpd_http_errors_total", "Requests answered with an error status."),
		sessions: h.tel.Counter("serpd_sessions_minted_total", "Fresh session cookies minted for cookieless visitors."),
		byCode:   h.tel.CounterVec("serpd_http_responses_total", "HTTP responses, by status code.", "code"),
		byCard:   h.tel.CounterVec("serpd_cards_served_total", "Cards on served result pages, by card type.", "type"),
		duration: h.tel.Histogram("serpd_http_request_duration_seconds", "Wall-clock HTTP request handling time.", nil),
	}
	h.mux.HandleFunc("GET /search", h.handleSearch)
	h.mux.HandleFunc("GET /healthz", h.handleHealth)
	h.mux.HandleFunc("GET /statz", h.handleStats)
	h.mux.Handle("GET /metricsz", h.tel.MetricsHandler())
	if h.spans != nil {
		h.mux.Handle("GET /tracez", telemetry.TracezHandler(h.spans))
		h.mux.Handle("GET "+telemetry.SpanzPath, telemetry.SpanzHandler(h.spans, h.node))
	}
	return h
}

// Telemetry returns the registry backing /metricsz and /statz.
func (h *Handler) Telemetry() *telemetry.Registry { return h.tel }

// statusRecorder captures the response status for access logging and the
// per-status-code counter. A handler that writes a body without calling
// WriteHeader — or never writes at all — is recorded as 200, matching
// net/http's implicit behaviour.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// Status returns the recorded status, defaulting to 200 when the handler
// never wrote one.
func (r *statusRecorder) Status() int {
	if r.status == 0 {
		return http.StatusOK
	}
	return r.status
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.inst.requests.Inc()
	trace := r.Header.Get(httpheader.TraceID)
	if trace != "" {
		// Echo the trace so clients can attach it to the stored page
		// record, completing the crawler → wire → log → storage chain.
		w.Header().Set(httpheader.TraceID, trace)
		r = r.WithContext(telemetry.WithTraceID(r.Context(), trace))
	}
	rec := &statusRecorder{ResponseWriter: w}
	var slot *wideSlot
	if h.wideLog != nil && r.URL.Path == "/search" {
		slot = h.widePool.Get().(*wideSlot)
		slot.ev.Reset()
		r = r.WithContext(telemetry.WithWideEvent(r.Context(), &slot.ev))
	}
	var span *telemetry.Span
	if h.spans != nil && r.URL.Path == "/search" {
		// One server span per fetch attempt: the attempt header folds into
		// the span ID, so each retry of a trace is a distinct span even
		// though trace ID and span name repeat.
		attempt, _ := httpheader.Attempt(r.Header)
		span = h.spans.StartRootSeq(trace, "serpd.request", attempt)
		r = r.WithContext(telemetry.WithSpan(
			telemetry.WithSpanRecorder(r.Context(), h.spans), span))
	}
	start := h.wall.Now()
	h.mux.ServeHTTP(rec, r)
	dur := h.wall.Now().Sub(start)
	h.inst.duration.Observe(dur.Seconds())
	h.inst.byCode.With(strconv.Itoa(rec.Status())).Inc()
	if span != nil {
		span.SetAttr("status", strconv.Itoa(rec.Status()))
		if rec.Status() == http.StatusTooManyRequests {
			span.SetAttr("ratelimited", "true")
		}
		if dc := rec.Header().Get(httpheader.ServedBy); dc != "" {
			span.SetAttr("datacenter", dc)
		}
		if kind := chaosNote(r.Context()); kind != "" {
			span.SetAttr("chaos", kind)
		}
		span.End()
	}
	if slot != nil {
		ev := &slot.ev
		ev.TraceID = trace
		ev.Status = rec.Status()
		ev.Dur = dur
		ev.Partial = rec.Header().Get(httpheader.SerpPartial)
		slot.buf = ev.AppendText(slot.buf[:0])
		h.wideLog.LogAttrs(r.Context(), slog.LevelInfo, "search.wide",
			slog.String("record", string(slot.buf)))
		h.widePool.Put(slot)
	}
	if h.logger != nil {
		h.logger.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"ip", clientIP(r),
			"status", rec.Status(),
			"dur", dur.Round(time.Microsecond).String(),
			"trace", trace)
	}
}

// isDesktopUA conservatively detects desktop browsers: a known desktop
// platform token without a mobile token. Unknown or ambiguous user agents
// get the mobile surface (the study's default).
func isDesktopUA(ua string) bool {
	if strings.Contains(ua, "Mobile") || strings.Contains(ua, "iPhone") ||
		strings.Contains(ua, "Android") || strings.Contains(ua, "iPad") {
		return false
	}
	return strings.Contains(ua, "Windows NT") ||
		strings.Contains(ua, "Macintosh") ||
		strings.Contains(ua, "X11")
}

// clientIP attributes the request to a source address: the first
// X-Forwarded-For hop when present (the crawl machines identify themselves
// this way), otherwise the socket's remote host.
func clientIP(r *http.Request) string {
	if xff := r.Header.Get(httpheader.ForwardedFor); xff != "" {
		first := strings.TrimSpace(strings.Split(xff, ",")[0])
		if first != "" {
			return first
		}
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

func (h *Handler) handleSearch(w http.ResponseWriter, r *http.Request) {
	query := r.URL.Query()
	q := query.Get("q")
	if strings.TrimSpace(q) == "" {
		h.inst.errors.Inc()
		http.Error(w, "missing q parameter", http.StatusBadRequest)
		return
	}

	// The ll parameter models the coordinate the MOBILE page obtains from
	// the JavaScript Geolocation API. The desktop surface has no such
	// pathway — its only location signal is the IP address — which is
	// precisely why the study targeted mobile (§2.2) while prior work,
	// limited to desktop, could only study IP geolocation.
	desktop := isDesktopUA(r.UserAgent())
	var gps *geo.Point
	if ll := query.Get("ll"); ll != "" && !desktop {
		pt, err := geo.ParsePoint(ll)
		if err != nil {
			h.inst.errors.Inc()
			http.Error(w, "malformed ll parameter", http.StatusBadRequest)
			return
		}
		gps = &pt
	}

	// Visitors without a session cookie are minted one, the way real
	// engines tag first-time visitors; a crawler that clears cookies
	// after every query therefore gets a fresh, history-free session
	// each time (the study's browser-state control, §2.2).
	session := ""
	if c, err := r.Cookie(SessionCookie); err == nil && c.Value != "" {
		session = c.Value
	} else {
		session = "sid-" + strconv.FormatUint(h.inst.sessions.Inc(), 10)
	}

	wide := telemetry.WideEventFrom(r.Context())
	req := engine.Request{
		Query:      q,
		GPS:        gps,
		ClientIP:   clientIP(r),
		SessionID:  session,
		Datacenter: r.Header.Get(httpheader.Datacenter),
		UserAgent:  r.UserAgent(),
		TraceID:    telemetry.TraceID(r.Context()),
		Span:       telemetry.SpanFrom(r.Context()),
		Deadline:   httpheader.Deadline(r.Header),
		Wide:       wide,
	}
	resp, err := h.eng.Search(req)
	switch {
	case errors.Is(err, engine.ErrRateLimited):
		h.inst.errors.Inc()
		wide.SetErr("ratelimited")
		w.Header().Set("Retry-After", "60")
		http.Error(w, "rate limit exceeded", http.StatusTooManyRequests)
		return
	case errors.Is(err, engine.ErrDeadlineExceeded):
		// The client's propagated deadline passed mid-pipeline and the
		// engine abandoned the request. Answer as a shed: by the time the
		// client backs off and retries, the deadline verdict is its own to
		// make.
		h.inst.errors.Inc()
		wide.SetErr("deadline")
		w.Header().Set("Retry-After", "1")
		http.Error(w, "deadline exceeded, request abandoned", http.StatusServiceUnavailable)
		return
	case errors.Is(err, engine.ErrRetrievalUnavailable):
		// Every retrieval shard is down or breaker-open: there is no page
		// to degrade to. Answer as a shed — the backend coming back is a
		// matter of time, so clients should back off and retry.
		h.inst.errors.Inc()
		wide.SetErr("retrieval_unavailable")
		w.Header().Set("Retry-After", "1")
		http.Error(w, "retrieval backend unavailable", http.StatusServiceUnavailable)
		return
	case errors.Is(err, engine.ErrEmptyQuery):
		h.inst.errors.Inc()
		wide.SetErr("empty_query")
		http.Error(w, "empty query", http.StatusBadRequest)
		return
	case err != nil:
		h.inst.errors.Inc()
		wide.SetErr("internal")
		http.Error(w, "internal error", http.StatusInternalServerError)
		return
	}

	resp.Page.TraceID = telemetry.TraceID(r.Context())
	for _, c := range resp.Page.Cards {
		h.inst.byCard.With(c.Type.String()).Inc()
	}

	http.SetCookie(w, &http.Cookie{Name: SessionCookie, Value: session, Path: "/"})
	w.Header().Set(httpheader.ServedBy, resp.Datacenter)
	if resp.Partial {
		w.Header().Set(httpheader.SerpPartial, "web")
	}

	if query.Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(resp.Page); err != nil {
			h.inst.errors.Inc()
		}
		return
	}
	// The page is appended into a pooled buffer and written once with its
	// Content-Length, so net/http sends it unchunked.
	buf := h.pagePool.Get().(*[]byte)
	page := (*buf)[:0]
	if desktop {
		page = serp.AppendDesktopHTML(page, resp.Page)
	} else {
		page = serp.AppendHTML(page, resp.Page)
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(len(page)))
	// A failed write means the client has gone: there is no one to tell.
	_, _ = w.Write(page)
	if cap(page) <= maxPooledPage {
		*buf = page
		h.pagePool.Put(buf)
	}
}

func (h *Handler) handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// Stats is the payload of /statz. The JSON shape predates the telemetry
// registry and is kept backward-compatible; the values are now read from
// the registry (the same numbers /metricsz exposes).
type Stats struct {
	Requests           uint64            `json:"requests"`
	Errors             uint64            `json:"errors"`
	Sessions           uint64            `json:"sessions"`
	Served             uint64            `json:"served"`
	RateLimited        uint64            `json:"rate_limited"`
	Day                int               `json:"day"`
	ServedByDatacenter map[string]uint64 `json:"served_by_datacenter"`
	// Build identifies the binary: toolchain, VCS revision, dirty flag.
	Build telemetry.Build `json:"build"`
}

func (h *Handler) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(Stats{
		Build:              telemetry.ReadBuild(),
		Requests:           h.inst.requests.Value(),
		Errors:             h.inst.errors.Value(),
		Sessions:           h.inst.sessions.Value(),
		Served:             h.eng.Served(),
		RateLimited:        h.eng.RateLimited(),
		Day:                h.eng.Day(),
		ServedByDatacenter: h.eng.ServedByDatacenter(),
	})
}

// Server wraps Handler in a managed net/http server with graceful
// shutdown, for cmd/serpd and the examples.
type Server struct {
	httpSrv *http.Server
	lis     net.Listener

	// fresh holds the connections that have not sent a request yet, which
	// net/http's Shutdown counts as busy until they are 5 s old
	// (golang.org/issue/22682); clients often leave one dialed and unused.
	mu    sync.Mutex
	fresh map[net.Conn]struct{}
}

// Listen binds addr (e.g. "127.0.0.1:0") and returns a ready-to-Serve
// server. h is usually a *Handler, optionally wrapped (WithChaos).
func Listen(addr string, h http.Handler) (*Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serpserver: listen %s: %w", addr, err)
	}
	s := &Server{
		httpSrv: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 10 * time.Second,
		},
		lis:   lis,
		fresh: map[net.Conn]struct{}{},
	}
	s.httpSrv.ConnState = s.trackFresh
	s.httpSrv.RegisterOnShutdown(s.closeFresh)
	return s, nil
}

// trackFresh records a connection entering StateNew and forgets it at its
// next state.
func (s *Server) trackFresh(c net.Conn, state http.ConnState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if state == http.StateNew {
		s.fresh[c] = struct{}{}
	} else {
		delete(s.fresh, c)
	}
}

// closeFresh closes the connections still waiting for their first
// request, so Shutdown need not wait out net/http's 5 s grace for them.
func (s *Server) closeFresh() {
	s.mu.Lock()
	fresh := s.fresh
	s.fresh = map[net.Conn]struct{}{}
	s.mu.Unlock()
	for c := range fresh {
		c.Close()
	}
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.lis.Addr().String() }

// URL returns the server's base URL.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Serve blocks serving requests until Shutdown (or a fatal error).
func (s *Server) Serve() error {
	err := s.httpSrv.Serve(s.lis)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Start serves in a background goroutine and returns immediately.
func (s *Server) Start() {
	go func() { _ = s.Serve() }()
}

// Shutdown drains connections and stops the server.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.httpSrv.Shutdown(ctx)
}
