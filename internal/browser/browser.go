// Package browser simulates the study's instrumented headless browser: a
// PhantomJS script that loads the mobile search page, presents a fixed
// browser fingerprint, overrides the JavaScript Geolocation API with a
// coordinate supplied on the command line, executes the query, saves the
// first page of results, and clears cookies afterwards (§2.2).
//
// Browser drives a real HTTP client against a real server; the Geolocation
// override becomes the ll= query parameter the mobile page would have
// obtained from navigator.geolocation, and the fingerprint becomes the
// request headers.
package browser

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/cookiejar"
	"net/url"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"geoserp/internal/breaker"
	"geoserp/internal/geo"
	"geoserp/internal/httpheader"
	"geoserp/internal/serp"
	"geoserp/internal/simclock"
	"geoserp/internal/telemetry"
)

// ErrRateLimited is returned when the engine answers 429.
var ErrRateLimited = errors.New("browser: rate limited by server")

// ErrShed is returned when the server sheds the request under overload
// (a 503, typically with a Retry-After from serpserver's admission gate).
// Sheds are transient — the server explicitly asked the client to come
// back — but they are budgeted separately from genuine failures: they do
// not consume WithRetry attempts (a bounded number of Retry-After waves is
// allowed instead, see WithShedRetries) and they do not trip the circuit
// breaker, because an overloaded-but-honest server is not a broken one.
var ErrShed = errors.New("browser: request shed by server")

// ErrCircuitOpen is returned when the circuit breaker (WithBreaker) is open
// and the retry policy cannot wait out the cooldown.
var ErrCircuitOpen = errors.New("browser: circuit breaker open")

// ErrBodyTooLarge marks a response body that exceeded the WithMaxBodySize
// cap. Oversize bodies are permanent failures: the page would overflow the
// cap on every retry, so retrying only hammers the server.
var ErrBodyTooLarge = errors.New("browser: response body exceeds size cap")

// IsShed reports whether err came from the server shedding load (503).
// The crawler charges these against its ShedBudget rather than its
// FailureBudget.
func IsShed(err error) bool { return errors.Is(err, ErrShed) }

// ErrTransient marks fetch failures that are plausibly temporary — transport
// errors, 5xx responses, truncated or unparsable bodies — and therefore worth
// retrying under the WithRetry policy. Client-side mistakes (4xx other than
// 429) are permanent: retrying a malformed query would never succeed.
var ErrTransient = errors.New("browser: transient fetch failure")

// IsTransient reports whether err is worth retrying: either an explicit
// transient failure or a rate-limit response.
func IsTransient(err error) bool {
	return errors.Is(err, ErrTransient) || errors.Is(err, ErrRateLimited)
}

// transientErr tags an error as transient without altering its message.
type transientErr struct{ err error }

func (e transientErr) Error() string   { return e.err.Error() }
func (e transientErr) Unwrap() []error { return []error{e.err, ErrTransient} }

func markTransient(err error) error { return transientErr{err: err} }

// shedErr tags an error as a server-side load shed (transient, but
// budgeted separately from failures).
type shedErr struct{ err error }

func (e shedErr) Error() string   { return e.err.Error() }
func (e shedErr) Unwrap() []error { return []error{e.err, ErrShed, ErrTransient} }

func markShed(err error) error { return shedErr{err: err} }

// retryAfterErr carries a server-named wait (the Retry-After header)
// alongside the error it annotates, so the retry loop can honour the
// server's request instead of its own linear policy.
type retryAfterErr struct {
	err   error
	after time.Duration
}

func (e retryAfterErr) Error() string { return e.err.Error() }
func (e retryAfterErr) Unwrap() error { return e.err }

// withRetryAfter annotates err with a server-named wait; a non-positive
// wait leaves err untouched.
func withRetryAfter(err error, after time.Duration) error {
	if after <= 0 {
		return err
	}
	return retryAfterErr{err: err, after: after}
}

// RetryAfter extracts the server-named wait from an error chain (the
// parsed Retry-After of a 429 or 503 response). ok is false when the
// server named none.
func RetryAfter(err error) (time.Duration, bool) {
	var r retryAfterErr
	if errors.As(err, &r) {
		return r.after, true
	}
	return 0, false
}

// parseRetryAfter reads an integer-seconds Retry-After value — the only
// form the servers here emit. HTTP-date forms and garbage yield 0 (no
// named wait).
func parseRetryAfter(v string) time.Duration {
	n, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || n < 0 {
		return 0
	}
	return time.Duration(n) * time.Second
}

// Fingerprint is the browser identity presented on every request. The
// study configured all treatments identically so fingerprints could not
// explain result differences.
type Fingerprint struct {
	UserAgent      string
	AcceptLanguage string
	ViewportW      int
	ViewportH      int
}

// Firefox38Desktop returns a desktop fingerprint of the study's era. The
// desktop surface ignores the Geolocation override — its only location
// signal is the IP — matching the constraint prior work operated under.
func Firefox38Desktop() Fingerprint {
	return Fingerprint{
		UserAgent:      "Mozilla/5.0 (X11; Linux x86_64; rv:38.0) Gecko/20100101 Firefox/38.0",
		AcceptLanguage: "en-US",
		ViewportW:      1366,
		ViewportH:      768,
	}
}

// IOSSafari8 returns the fingerprint the study used: Safari 8 on iOS.
func IOSSafari8() Fingerprint {
	return Fingerprint{
		UserAgent: "Mozilla/5.0 (iPhone; CPU iPhone OS 8_0 like Mac OS X) " +
			"AppleWebKit/600.1.4 (KHTML, like Gecko) Version/8.0 Mobile/12A365 Safari/600.1.4",
		AcceptLanguage: "en-US",
		ViewportW:      375,
		ViewportH:      667,
	}
}

// Browser is one scripted browser instance. It is not safe for concurrent
// use; the crawler gives each worker its own Browser, as the study gave
// each treatment its own PhantomJS process.
type Browser struct {
	base      *url.URL
	client    *http.Client
	fp        Fingerprint
	geo       *geo.Point
	sourceIP  string
	pinnedDC  string
	fetches   int
	retries   int
	lastDC    string
	transport http.RoundTripper

	// traceID, when set, is sent as the X-Trace-Id header on every
	// fetch so the server's access log and the stored page record can
	// be joined back to this request.
	traceID     string
	lastTraceID string

	// Telemetry counters, shared with the crawler's registry when set
	// (nil without WithTelemetry — the zero-cost default).
	fetchCtr     *telemetry.Counter
	rateLimitCtr *telemetry.Counter
	retryCtr     *telemetry.Counter
	shedCtr      *telemetry.Counter
	breakerCtr   *telemetry.CounterVec

	// spans, when set, records one "browser.fetch" span per attempt so
	// retry backoff and per-attempt outcomes are visible on the campaign
	// timeline (nil without WithSpans — the zero-cost default).
	spans *telemetry.SpanRecorder

	// Retry policy for transient failures (429s, 5xx, transport errors).
	maxAttempts int
	backoff     time.Duration
	timeout     time.Duration
	clock       simclock.Clock

	// maxBody caps how many response-body bytes a fetch will read; an
	// oversize body is a permanent ErrBodyTooLarge failure.
	maxBody int64
	// shedRetryLimit bounds how many 503-shed Retry-After waves one Search
	// rides out before giving up (sheds do not consume maxAttempts).
	shedRetryLimit int
	// deadlineBudget, when positive, gives every Search an absolute
	// deadline on the campaign clock, sent to the server as X-Deadline-Ms
	// and honoured by the retry loop.
	deadlineBudget time.Duration
	// brk guards the search endpoint when WithBreaker arms it; nil admits
	// every fetch.
	brk *breaker.Breaker

	// optErr records the first invalid Option; New reports it instead of
	// silently running with a half-applied policy.
	optErr error
}

// Option configures a Browser.
type Option func(*Browser)

// WithFingerprint overrides the default iOS Safari 8 fingerprint.
func WithFingerprint(fp Fingerprint) Option {
	return func(b *Browser) { b.fp = fp }
}

// WithSourceIP attributes the browser's traffic to a machine address (sent
// as X-Forwarded-For), modelling which of the crawl machines the script
// runs on.
func WithSourceIP(ip string) Option {
	return func(b *Browser) { b.sourceIP = ip }
}

// WithPinnedDatacenter statically resolves the service to one datacenter,
// as the study did with a static DNS entry.
func WithPinnedDatacenter(dc string) Option {
	return func(b *Browser) { b.pinnedDC = dc }
}

// WithTransport substitutes the HTTP transport (tests use this to run
// without sockets).
func WithTransport(rt http.RoundTripper) Option {
	return func(b *Browser) { b.transport = rt }
}

// WithRetry makes Search retry transient failures (rate limits, 5xx
// responses, transport and read errors) up to attempts total tries with
// linear backoff between them. The study sidestepped rate limits with its
// 44-machine pool; campaigns against a flaky service want this instead.
// attempts must be positive and backoff non-negative; New rejects the
// browser otherwise.
//
// Two refinements override the linear policy: a server that names a wait
// (Retry-After on a 429 or 503) is honoured exactly, and 503 sheds do not
// consume attempts at all — they are bounded by WithShedRetries instead,
// so an overloaded server asking for patience cannot exhaust the failure
// budget of a healthy request.
func WithRetry(attempts int, backoff time.Duration) Option {
	return func(b *Browser) {
		if attempts <= 0 {
			b.optErr = fmt.Errorf("browser: WithRetry attempts must be positive, got %d", attempts)
			return
		}
		if backoff < 0 {
			b.optErr = fmt.Errorf("browser: WithRetry backoff must be non-negative, got %s", backoff)
			return
		}
		b.maxAttempts = attempts
		b.backoff = backoff
	}
}

// WithTimeout bounds each fetch attempt (default 30s). The bound is wall
// time — it protects against a hung socket, which virtual clocks cannot
// model.
func WithTimeout(d time.Duration) Option {
	return func(b *Browser) {
		if d <= 0 {
			b.optErr = fmt.Errorf("browser: WithTimeout duration must be positive, got %s", d)
			return
		}
		b.timeout = d
	}
}

// WithClock substitutes the clock used for retry backoff (virtual-time
// campaigns pass the campaign clock).
func WithClock(clk simclock.Clock) Option {
	return func(b *Browser) { b.clock = clk }
}

// WithMaxBodySize caps how many bytes of a response body a fetch will read
// (default 4 MiB). A body exceeding the cap is a permanent
// ErrBodyTooLarge failure — it would overflow on every retry — so the
// retry policy gives up immediately instead of re-downloading it.
func WithMaxBodySize(n int64) Option {
	return func(b *Browser) {
		if n <= 0 {
			b.optErr = fmt.Errorf("browser: WithMaxBodySize cap must be positive, got %d", n)
			return
		}
		b.maxBody = n
	}
}

// WithShedRetries bounds how many 503-shed Retry-After waves one Search
// rides out before returning the shed error (default 8). Sheds are exempt
// from the WithRetry attempt budget — the server named a wait, and
// honouring it is flow control, not failure — so this separate cap is what
// guarantees termination under sustained overload. 0 makes sheds
// terminal on the first 503.
func WithShedRetries(n int) Option {
	return func(b *Browser) {
		if n < 0 {
			b.optErr = fmt.Errorf("browser: WithShedRetries count must be non-negative, got %d", n)
			return
		}
		b.shedRetryLimit = n
	}
}

// WithDeadline gives every Search a deadline budget on the campaign
// clock. The absolute deadline is advertised to the server as
// X-Deadline-Ms — letting its admission gate shed the request up front and
// its engine abandon doomed work mid-stage — and the retry loop stops
// scheduling attempts that could not start before it.
func WithDeadline(d time.Duration) Option {
	return func(b *Browser) {
		if d <= 0 {
			b.optErr = fmt.Errorf("browser: WithDeadline budget must be positive, got %s", d)
			return
		}
		b.deadlineBudget = d
	}
}

// WithBreaker arms a circuit breaker on the search endpoint: threshold
// consecutive breaker-eligible failures (transport errors, 5xx, unparsable
// pages — not 429s or 503 sheds, which are explicit pushback) open the
// breaker, fetches then fail fast for cooldown, after which a single
// half-open probe decides between closing it and re-opening. All timing is
// on the campaign clock.
func WithBreaker(threshold int, cooldown time.Duration) Option {
	return func(b *Browser) {
		if threshold <= 0 {
			b.optErr = fmt.Errorf("browser: WithBreaker threshold must be positive, got %d", threshold)
			return
		}
		if cooldown <= 0 {
			b.optErr = fmt.Errorf("browser: WithBreaker cooldown must be positive, got %s", cooldown)
			return
		}
		// A trip takes effect at its own instant: the browser's one
		// caller retries on the campaign clock, and at zero backoff its
		// retries would otherwise land on that instant and be spent
		// against the endpoint the breaker just declared dead.
		b.brk = breaker.New(threshold, cooldown, false, func(label string) {
			if b.breakerCtr != nil {
				b.breakerCtr.With(label).Inc()
			}
		})
	}
}

// WithTelemetry reports the browser's fetches, observed 429s, and retries
// through a shared registry — the crawler passes its own so a campaign's
// /metricsz-style snapshot covers the whole pool.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(b *Browser) {
		b.fetchCtr = reg.Counter("browser_fetches_total", "Result pages fetched across the browser pool.")
		b.rateLimitCtr = reg.Counter("browser_rate_limited_total", "429 responses observed across the browser pool.")
		b.retryCtr = reg.Counter("browser_retries_total", "Failed fetches that were retried.")
		b.shedCtr = reg.Counter("browser_shed_total", "503 shed responses observed across the browser pool.")
		b.breakerCtr = reg.CounterVec("browser_breaker_transitions_total",
			"Circuit-breaker state transitions across the browser pool, by transition.", "transition")
	}
}

// WithSpans records one client span per fetch attempt on rec. Each
// attempt also advertises its number via the X-Trace-Attempt header so the
// server's spans distinguish retries of the same trace.
func WithSpans(rec *telemetry.SpanRecorder) Option {
	return func(b *Browser) { b.spans = rec }
}

// New creates a browser pointed at the search service base URL.
func New(baseURL string, opts ...Option) (*Browser, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("browser: parse base URL: %w", err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("browser: base URL %q must be absolute", baseURL)
	}
	b := &Browser{
		base: u, fp: IOSSafari8(), maxAttempts: 1, timeout: 30 * time.Second,
		clock: simclock.Wall(), maxBody: 4 << 20, shedRetryLimit: 8,
	}
	for _, o := range opts {
		o(b)
	}
	if b.optErr != nil {
		return nil, b.optErr
	}
	jar, err := cookiejar.New(nil)
	if err != nil {
		return nil, fmt.Errorf("browser: cookie jar: %w", err)
	}
	b.client = &http.Client{
		Jar:     jar,
		Timeout: b.timeout,
	}
	if b.transport != nil {
		b.client.Transport = b.transport
	}
	return b, nil
}

// OverrideGeolocation installs the spoofed Geolocation API coordinate; all
// subsequent searches present it to the engine.
func (b *Browser) OverrideGeolocation(pt geo.Point) { p := pt; b.geo = &p }

// ClearGeolocation removes the override; searches then carry no ll=
// parameter and the engine falls back to IP geolocation.
func (b *Browser) ClearGeolocation() { b.geo = nil }

// ClearCookies empties the cookie jar, as the study's script did after
// every query to prevent the engine "remembering" prior location or
// searches.
func (b *Browser) ClearCookies() {
	jar, err := cookiejar.New(nil)
	if err != nil {
		// cookiejar.New(nil) cannot fail per its contract; guard anyway.
		panic("browser: cookie jar: " + err.Error())
	}
	b.client.Jar = jar
}

// Fetches returns the number of result pages fetched.
func (b *Browser) Fetches() int { return b.fetches }

// SourceIP returns the machine address the browser's traffic is attributed
// to ("" when unset).
func (b *Browser) SourceIP() string { return b.sourceIP }

// Retries returns how many failed fetches were retried.
func (b *Browser) Retries() int { return b.retries }

// LastDatacenter reports the replica that served the previous page (from
// the X-Served-By header).
func (b *Browser) LastDatacenter() string { return b.lastDC }

// SetTraceID installs the trace ID sent as X-Trace-Id on subsequent
// fetches ("" stops sending the header). The crawler mints one per query
// before each fetch.
func (b *Browser) SetTraceID(id string) { b.traceID = id }

// Search executes a query and parses the first page of results, retrying
// transient failures per the WithRetry policy.
func (b *Browser) Search(term string) (*serp.Page, error) {
	return b.SearchContext(context.Background(), term)
}

// SearchContext is Search with cancellation: the fetch aborts as soon as
// ctx is done, and a cancelled context is never retried — the campaign is
// shutting down, not the network flaking.
func (b *Browser) SearchContext(ctx context.Context, term string) (*serp.Page, error) {
	if term == "" {
		return nil, fmt.Errorf("browser: empty search term")
	}
	// Under a virtual clock, hold the driver while the fetch's real I/O
	// is in flight: every clock read inside the attempt — client, server,
	// and engine span timestamps — then lands on the deterministic instant
	// the attempt started at, not wherever the clock hopped to mid-wire.
	// A dispatcher that already holds (the crawler) passes its hold via
	// ctx; otherwise the browser manages its own.
	held := simclock.HeldFrom(ctx)
	if held == nil {
		if h := simclock.HolderOf(b.clock); h != nil {
			h.Hold()
			defer h.Release()
			held = h
			ctx = simclock.WithHeld(ctx, h)
		}
	}
	// Absolute per-query deadline, advertised on every attempt and
	// honoured by the retry loop (zero when WithDeadline is off).
	var deadline time.Time
	if b.deadlineBudget > 0 {
		deadline = b.clock.Now().Add(b.deadlineBudget)
	}
	var lastErr error
	// failures counts attempt-consuming outcomes (429s, 5xx, transport and
	// parse errors) against maxAttempts; sheds counts 503 Retry-After
	// waves against shedRetryLimit. attempt numbers every loop turn and is
	// what the wire header and spans carry.
	failures, sheds := 0, 0
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if wait, ok := b.brk.Allow(b.clock.Now()); !ok {
			oerr := withRetryAfter(markTransient(fmt.Errorf("%w (retry in %s)", ErrCircuitOpen, wait)), wait)
			if b.maxAttempts <= 1 {
				// No retry policy: fail fast rather than block a
				// single-shot caller for the whole cooldown.
				return nil, oerr
			}
			if !deadline.IsZero() && b.clock.Now().Add(wait).After(deadline) {
				return nil, fmt.Errorf("browser: deadline would pass waiting out the open breaker: %w", oerr)
			}
			lastErr = oerr
			b.sleepOn(held, wait)
			continue
		}
		// One client span per attempt: retries of a trace appear as
		// sibling spans whose gaps are the backoff sleeps.
		var span *telemetry.Span
		if b.spans != nil {
			span = b.spans.StartRootSeq(b.traceID, "browser.fetch", attempt)
			span.SetAttr("term", term)
			span.SetAttr("attempt", fmt.Sprint(attempt))
		}
		page, err := b.fetchOnce(ctx, term, attempt, deadline)
		if err == nil {
			b.brk.Success()
			if span != nil {
				span.SetAttr("outcome", "ok")
				span.End()
			}
			return page, nil
		}
		lastErr = err
		shed := IsShed(err)
		if shed {
			sheds++
		} else {
			failures++
		}
		// Unexplained transient failures trip the breaker. Explicit
		// pushback (a 429 or 503 shed: the server is alive and asked for
		// patience), permanent errors and a cancelled context do not, but
		// they still resolve the call the breaker admitted.
		if !shed && IsTransient(err) && !errors.Is(err, ErrRateLimited) && ctx.Err() == nil {
			b.brk.Failure(b.clock.Now())
		} else {
			b.brk.Pushback()
		}
		terminal := ctx.Err() != nil || !IsTransient(err) || b.maxAttempts <= 1 ||
			(!shed && failures >= b.maxAttempts) || (shed && sheds > b.shedRetryLimit)
		if terminal {
			if span != nil {
				span.SetAttr("outcome", "error")
				span.SetAttr("err", errAttr(err))
				span.End()
			}
			return nil, lastErr
		}
		b.retries++
		if b.retryCtr != nil {
			b.retryCtr.Inc()
		}
		// Linear backoff by default; a server-named Retry-After overrides
		// it exactly.
		sleep := time.Duration(failures) * b.backoff
		if shed {
			sleep = time.Duration(sheds) * b.backoff
		}
		if ra, ok := RetryAfter(err); ok {
			sleep = ra
		}
		if !deadline.IsZero() && b.clock.Now().Add(sleep).After(deadline) {
			if span != nil {
				span.SetAttr("outcome", "error")
				span.SetAttr("err", errAttr(err))
				span.End()
			}
			return nil, fmt.Errorf("browser: deadline would pass before the next attempt: %w", lastErr)
		}
		if span != nil {
			span.SetAttr("outcome", "retry")
			if shed {
				span.SetAttr("outcome", "shed")
			}
			span.SetAttr("err", errAttr(err))
			if sleep > 0 {
				span.SetAttr("backoff", sleep.String())
			}
			span.End()
		}
		b.sleepOn(held, sleep)
	}
}

// sleepOn parks for d on the campaign clock, through the holder when the
// caller is holding a virtual clock (see SearchContext).
func (b *Browser) sleepOn(held simclock.Holder, d time.Duration) {
	if d <= 0 {
		return
	}
	if held != nil {
		held.SleepHeld(d)
	} else {
		b.clock.Sleep(d)
	}
}

// BreakerState reports the search endpoint's circuit-breaker state
// ("closed", "open", "half-open"), or "" when WithBreaker is not
// configured.
func (b *Browser) BreakerState() string {
	if b.brk == nil {
		return ""
	}
	return b.brk.State()
}

// fetchOnce performs a single fetch+parse. attempt is the 1-based try
// number, advertised to the server so its spans key each retry distinctly;
// a non-zero deadline is advertised as X-Deadline-Ms so the server can
// shed or abandon work that cannot finish in time.
func (b *Browser) fetchOnce(ctx context.Context, term string, attempt int, deadline time.Time) (*serp.Page, error) {
	u := *b.base
	u.Path = "/search"
	q := url.Values{}
	q.Set("q", term)
	if b.geo != nil {
		q.Set("ll", b.geo.String())
	}
	u.RawQuery = q.Encode()

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u.String(), nil)
	if err != nil {
		return nil, fmt.Errorf("browser: build request: %w", err)
	}
	req.Header.Set("User-Agent", b.fp.UserAgent)
	req.Header.Set("Accept-Language", b.fp.AcceptLanguage)
	req.Header.Set("Accept", "text/html")
	if b.fp.ViewportW > 0 {
		req.Header.Set("Viewport-Width", fmt.Sprint(b.fp.ViewportW))
	}
	if b.sourceIP != "" {
		req.Header.Set(httpheader.ForwardedFor, b.sourceIP)
	}
	if b.pinnedDC != "" {
		req.Header.Set(httpheader.Datacenter, b.pinnedDC)
	}
	if b.traceID != "" {
		req.Header.Set(httpheader.TraceID, b.traceID)
		httpheader.SetAttempt(req.Header, attempt)
	}
	httpheader.SetDeadline(req.Header, deadline)

	resp, err := b.client.Do(req)
	if err != nil {
		// Transport failures are transient — unless the context itself was
		// cancelled, in which case retrying would only fail the same way.
		ferr := fmt.Errorf("browser: fetch: %w", err)
		if ctx.Err() != nil {
			return nil, ferr
		}
		return nil, markTransient(ferr)
	}
	defer resp.Body.Close()
	// Read at most one byte past the cap: enough to tell an oversize body
	// from one that exactly fits, without ever buffering more than the cap.
	body, err := io.ReadAll(io.LimitReader(resp.Body, b.maxBody+1))
	if err != nil {
		// A connection dropped mid-body; the next attempt may complete.
		return nil, markTransient(fmt.Errorf("browser: read body: %w", err))
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		// fall through
	case resp.StatusCode == http.StatusTooManyRequests:
		if b.rateLimitCtr != nil {
			b.rateLimitCtr.Inc()
		}
		ra := parseRetryAfter(resp.Header.Get("Retry-After"))
		return nil, withRetryAfter(fmt.Errorf("%w (retry-after %s)", ErrRateLimited, resp.Header.Get("Retry-After")), ra)
	case resp.StatusCode == http.StatusServiceUnavailable:
		// The server shed the request under overload (admission gate or
		// deadline abandonment). Transient, but budgeted as a shed: honour
		// its Retry-After instead of charging the failure budget.
		if b.shedCtr != nil {
			b.shedCtr.Inc()
		}
		ra := parseRetryAfter(resp.Header.Get("Retry-After"))
		return nil, withRetryAfter(markShed(fmt.Errorf("browser: server shed request (503): %s", truncate(string(body), 120))), ra)
	case resp.StatusCode >= 500:
		// Server-side faults are the canonical transient failure.
		return nil, markTransient(fmt.Errorf("browser: server returned %d: %s", resp.StatusCode, truncate(string(body), 120)))
	default:
		// Remaining 4xx: the request itself is wrong; retrying cannot help.
		return nil, fmt.Errorf("browser: server returned %d: %s", resp.StatusCode, truncate(string(body), 120))
	}
	if int64(len(body)) > b.maxBody {
		return nil, fmt.Errorf("%w: page exceeds the %d-byte cap", ErrBodyTooLarge, b.maxBody)
	}
	page, err := serp.ParseAnyHTML(string(body))
	if err != nil {
		// An unparsable page usually means a truncated or garbled response,
		// not a structurally different engine — retry it.
		return nil, markTransient(fmt.Errorf("browser: parse results: %w", err))
	}
	b.fetches++
	if b.fetchCtr != nil {
		b.fetchCtr.Inc()
	}
	b.lastDC = resp.Header.Get(httpheader.ServedBy)
	// The HTML surface does not carry the trace; the header echo does.
	// Attach it to the parsed record so storage keeps the join key.
	b.lastTraceID = resp.Header.Get(httpheader.TraceID)
	if b.lastTraceID == "" {
		b.lastTraceID = b.traceID
	}
	page.TraceID = b.lastTraceID
	return page, nil
}

// SearchAndReset performs the full treatment protocol of the study's
// script: run the query, save the page, then clear cookies so the next
// query starts from a clean browser.
func (b *Browser) SearchAndReset(term string) (*serp.Page, error) {
	page, err := b.Search(term)
	b.ClearCookies()
	return page, err
}

// errAttr renders err for a span attribute. URL errors are unwrapped to
// their transport cause first: the wrapped form embeds the full request
// URL — including the server's ephemeral port — which would make
// otherwise-deterministic campaign timelines differ across runs.
func errAttr(err error) string {
	var uerr *url.Error
	if errors.As(err, &uerr) {
		return truncate(uerr.Err.Error(), 120)
	}
	return truncate(err.Error(), 120)
}

// truncate shortens s to at most n bytes plus an ellipsis, cutting on a
// rune boundary so multi-byte UTF-8 sequences are never split mid-rune.
func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	for n > 0 && !utf8.RuneStart(s[n]) {
		n--
	}
	return s[:n] + "..."
}
