// Package crawler implements the study's measurement harness (§2.2): a
// pool of crawl machines in one /24 subnet, scripted browsers with spoofed
// Geolocation coordinates, lock-step scheduling (every treatment of a term
// fires at the same instant), simultaneous treatment/control pairs, static
// datacenter pinning, an 11-minute spacing between successive queries from
// the same browser, and multi-day campaign phases.
package crawler

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"geoserp/internal/browser"
	"geoserp/internal/geo"
	"geoserp/internal/queries"
	"geoserp/internal/serp"
	"geoserp/internal/simclock"
	"geoserp/internal/storage"
	"geoserp/internal/telemetry"
)

// Config describes the crawl infrastructure.
type Config struct {
	// Machines is the number of crawl machines (the study used 44).
	Machines int
	// Subnet is the /24 the machines share, e.g. "10.44.7".
	Subnet string
	// WaitBetweenTerms is the spacing between successive queries from
	// the same set of browsers — 11 minutes in the study, comfortably
	// past the engine's 10-minute history window.
	WaitBetweenTerms time.Duration
	// PinnedDatacenter fixes which replica serves every query (the
	// study's static DNS mapping). Empty means unpinned.
	PinnedDatacenter string
	// ClearCookies controls whether browsers reset cookies after every
	// query (the study's protocol; disable only for methodology
	// experiments).
	ClearCookies bool
	// RetryAttempts is the total tries per fetch (browser.WithRetry
	// semantics). 0 or 1 means a single attempt; negative is rejected.
	RetryAttempts int
	// RetryBackoff is the linear backoff base between retry attempts,
	// slept on the campaign clock — virtual-time campaigns absorb it
	// instantly.
	RetryBackoff time.Duration
	// FetchTimeout bounds each fetch attempt in wall time (0 keeps the
	// browser's 30s default).
	FetchTimeout time.Duration
	// FailureBudget is the fraction of fetches in one lock-step round
	// allowed to fail — after retries are exhausted — before the phase
	// aborts. Failures inside the budget are recorded as Failed
	// observations and the campaign continues; 0 keeps the strict
	// historical behaviour where any failure aborts the phase. Fetches
	// the server shed under admission control are charged to ShedBudget
	// instead — being told "not now" is a different signal from a broken
	// fetch.
	FailureBudget float64
	// ShedBudget is the fraction of fetches in one round allowed to end
	// shed (503 after the browser's shed-retry policy gave up). 0 aborts
	// on any terminal shed — the right default when the server is
	// expected to keep up with the campaign.
	ShedBudget float64
	// BreakerThreshold, when positive, arms a per-browser circuit
	// breaker: that many consecutive failed attempts against the search
	// endpoint fail fast for BreakerCooldown before a probe is let
	// through. 0 leaves the breaker off.
	BreakerThreshold int
	// BreakerCooldown is the open-state dwell; required positive when
	// BreakerThreshold is set.
	BreakerCooldown time.Duration
	// DeadlineBudget, when positive, gives every fetch an absolute
	// deadline that far ahead on the campaign clock, propagated to the
	// server (X-Deadline-Ms) so it can shed or abandon doomed work. 0
	// propagates no deadline.
	DeadlineBudget time.Duration
	// MaxBodyBytes, when positive, caps how much of a response body a
	// browser will read; oversized pages fail permanently (no retry). 0
	// keeps the browser's default cap.
	MaxBodyBytes int64
}

// DefaultConfig mirrors the study's infrastructure.
func DefaultConfig() Config {
	return Config{
		Machines:         44,
		Subnet:           "10.44.7",
		WaitBetweenTerms: 11 * time.Minute,
		PinnedDatacenter: "dc-0",
		ClearCookies:     true,
		RetryAttempts:    3,
		RetryBackoff:     30 * time.Second,
	}
}

// Phase is one sweep of a term set over a location set for several days —
// the study ran two: local+controversial for 5 days, then politicians for
// 5 days, each at all three granularities.
type Phase struct {
	// Name labels the phase in logs.
	Name string
	// Terms are the queries to execute.
	Terms []queries.Query
	// Granularities selects the vantage-point sets.
	Granularities []geo.Granularity
	// Days is how many consecutive days to repeat the sweep.
	Days int
}

// ScaledPhases plans the paper's two campaign phases over corpus: its
// local and controversial terms, then its politicians, at all three
// granularities. termsPerCategory caps each category (0 takes every term)
// and days sets each phase's length (<= 0 takes the study's 5 days).
func ScaledPhases(corpus *queries.Corpus, termsPerCategory, days int) []Phase {
	take := func(qs []queries.Query) []queries.Query {
		if termsPerCategory > 0 && len(qs) > termsPerCategory {
			return qs[:termsPerCategory]
		}
		return qs
	}
	if days <= 0 {
		days = 5
	}
	lc := append([]queries.Query{}, take(corpus.Category(queries.Local))...)
	lc = append(lc, take(corpus.Category(queries.Controversial))...)
	return []Phase{
		{Name: "local+controversial", Terms: lc, Granularities: geo.Granularities, Days: days},
		{Name: "politicians", Terms: take(corpus.Category(queries.Politician)), Granularities: geo.Granularities, Days: days},
	}
}

// Crawler runs campaigns against a search service.
type Crawler struct {
	cfg     Config
	clock   simclock.Clock
	baseURL string
	ds      *geo.Dataset
	corpus  *queries.Corpus
	// Progress is called (if set) after each term sweep with a short
	// status line.
	Progress func(string)
	// Logger, when set, receives structured progress records (Info) and
	// one per-fetch record with the minted trace ID (Debug).
	Logger *slog.Logger
	// Telemetry is the registry the campaign reports through: per-phase
	// progress counters, the lock-step round-duration histogram, and
	// the browser pool's fetch/429/retry counters. Lazily created when
	// nil; set it to share one registry with the rest of a process.
	Telemetry *telemetry.Registry
	// Transport, when set, is installed in every browser the crawler
	// builds. Fault-injection tests pass a browser.ChaosTransport here;
	// production leaves it nil, and each phase or validation run then
	// shares one keep-alive transport among its browsers (see
	// runTransport).
	Transport http.RoundTripper
	// Spans, when set, records the campaign timeline: one span per
	// campaign, phase, and term sweep (nested), plus one "browser.fetch"
	// span per fetch attempt across the pool. Campaigns on a Manual clock
	// record a deterministic timeline; cmd/crawl and cmd/repro write it
	// out in Chrome trace-event format via -trace-out.
	Spans *telemetry.SpanRecorder
	// Sink, when set, receives every completed term sweep — executed or
	// recovered from a checkpoint — from the scheduling goroutine, in
	// campaign order. This is how the streaming analysis layer (and its
	// /statz surface) watches a campaign converge; see internal/statz.
	Sink SweepSink

	inst *crawlInstruments
	ckpt *checkpointState
	// progMu guards prog: the scheduler updates it per sweep, the /statz
	// handler reads it from request goroutines.
	progMu sync.Mutex
	prog   ProgressSnapshot
	// wall times lock-step rounds for the round-duration histogram: the
	// campaign clock may be virtual, but the histogram reports how long
	// the hardware took.
	wall simclock.Clock
}

// crawlInstruments are the crawler's registered metrics.
type crawlInstruments struct {
	queries       *telemetry.Counter    // crawler_queries_total
	terms         *telemetry.Counter    // crawler_terms_completed_total
	limited       *telemetry.Counter    // browser_rate_limited_total (shared with the pool)
	roundDur      *telemetry.Histogram  // crawler_round_duration_seconds
	fetchFailures *telemetry.CounterVec // crawler_fetch_failures_total{phase}
	fetchRetries  *telemetry.CounterVec // crawler_fetch_retries_total{phase}
	fetchShed     *telemetry.CounterVec // crawler_fetch_shed_total{phase}
}

// instruments lazily registers the crawler's metrics. Called from the
// scheduling goroutine only.
func (c *Crawler) instruments() *crawlInstruments {
	if c.inst == nil {
		if c.Telemetry == nil {
			c.Telemetry = telemetry.NewRegistry()
		}
		c.inst = &crawlInstruments{
			queries: c.Telemetry.Counter("crawler_queries_total", "Queries issued across all vantages and roles."),
			terms:   c.Telemetry.Counter("crawler_terms_completed_total", "Lock-step term sweeps completed."),
			limited: c.Telemetry.Counter("browser_rate_limited_total", "429 responses observed across the browser pool."),
			roundDur: c.Telemetry.Histogram("crawler_round_duration_seconds",
				"Wall-clock time of one lock-step round (every vantage, treatment and control).", nil),
			fetchFailures: c.Telemetry.CounterVec("crawler_fetch_failures_total",
				"Fetches that still failed after the retry policy, by phase.", "phase"),
			fetchRetries: c.Telemetry.CounterVec("crawler_fetch_retries_total",
				"Fetch retry attempts across the browser pool, by phase.", "phase"),
			fetchShed: c.Telemetry.CounterVec("crawler_fetch_shed_total",
				"Fetches that ended shed by server admission control, by phase.", "phase"),
		}
	}
	return c.inst
}

// New builds a crawler. The clock must be the same clock the engine uses
// when both run in-process (virtual-time campaigns), and the crawler's run
// methods drive it; against a remote server use simclock.Wall().
func New(cfg Config, clk simclock.Clock, baseURL string, ds *geo.Dataset, corpus *queries.Corpus) (*Crawler, error) {
	if cfg.Machines <= 0 {
		return nil, fmt.Errorf("crawler: need at least one machine")
	}
	if cfg.Subnet == "" {
		return nil, fmt.Errorf("crawler: subnet must be set")
	}
	if baseURL == "" {
		return nil, fmt.Errorf("crawler: base URL must be set")
	}
	if cfg.RetryAttempts < 0 {
		return nil, fmt.Errorf("crawler: negative retry attempts %d", cfg.RetryAttempts)
	}
	if cfg.RetryBackoff < 0 {
		return nil, fmt.Errorf("crawler: negative retry backoff %s", cfg.RetryBackoff)
	}
	if cfg.FailureBudget < 0 || cfg.FailureBudget > 1 {
		return nil, fmt.Errorf("crawler: failure budget %v outside [0, 1]", cfg.FailureBudget)
	}
	if cfg.ShedBudget < 0 || cfg.ShedBudget > 1 {
		return nil, fmt.Errorf("crawler: shed budget %v outside [0, 1]", cfg.ShedBudget)
	}
	if cfg.BreakerThreshold < 0 {
		return nil, fmt.Errorf("crawler: negative breaker threshold %d", cfg.BreakerThreshold)
	}
	if cfg.BreakerThreshold > 0 && cfg.BreakerCooldown <= 0 {
		return nil, fmt.Errorf("crawler: breaker threshold %d needs a positive cooldown", cfg.BreakerThreshold)
	}
	if cfg.DeadlineBudget < 0 {
		return nil, fmt.Errorf("crawler: negative deadline budget %s", cfg.DeadlineBudget)
	}
	if cfg.MaxBodyBytes < 0 {
		return nil, fmt.Errorf("crawler: negative body cap %d", cfg.MaxBodyBytes)
	}
	return &Crawler{cfg: cfg, clock: clk, baseURL: baseURL, ds: ds, corpus: corpus, wall: simclock.Wall()}, nil
}

// MachineIPs returns the crawl machines' addresses: .1 through .N in the
// configured /24.
func (c *Crawler) MachineIPs() []string {
	out := make([]string, c.cfg.Machines)
	for i := range out {
		out[i] = fmt.Sprintf("%s.%d", c.cfg.Subnet, i+1)
	}
	return out
}

// vantage is one browser pair stationed at a location.
type vantage struct {
	loc       geo.Location
	treatment *browser.Browser
	control   *browser.Browser
}

// newVantages builds the treatment/control browser pairs for a location
// set, spreading them across the machine pool so no single IP carries
// enough load to trip the engine's rate limiter. rt is the run's
// transport (runTransport).
func (c *Crawler) newVantages(locs []geo.Location, rt http.RoundTripper) ([]vantage, error) {
	c.instruments() // ensure c.Telemetry exists for the browser pool
	machines := c.MachineIPs()
	out := make([]vantage, 0, len(locs))
	for i, loc := range locs {
		mkBrowser := func(slot int) (*browser.Browser, error) {
			opts := []browser.Option{
				browser.WithSourceIP(machines[slot%len(machines)]),
				browser.WithTelemetry(c.Telemetry),
			}
			if c.cfg.PinnedDatacenter != "" {
				opts = append(opts, browser.WithPinnedDatacenter(c.cfg.PinnedDatacenter))
			}
			opts = append(opts, c.reliabilityOptions(rt)...)
			b, err := browser.New(c.baseURL, opts...)
			if err != nil {
				return nil, err
			}
			b.OverrideGeolocation(loc.Point)
			return b, nil
		}
		t, err := mkBrowser(2 * i)
		if err != nil {
			return nil, fmt.Errorf("crawler: vantage %s: %w", loc.ID, err)
		}
		ctl, err := mkBrowser(2*i + 1)
		if err != nil {
			return nil, fmt.Errorf("crawler: vantage %s: %w", loc.ID, err)
		}
		out = append(out, vantage{loc: loc, treatment: t, control: ctl})
	}
	return out, nil
}

// reliabilityOptions translates the crawl config's retry policy into
// browser options shared by every browser the crawler builds, installing
// the run's transport rt. Retries back off on the campaign clock, so
// virtual-time campaigns replay a 30-second backoff instantly while
// wall-clock deployments genuinely wait.
func (c *Crawler) reliabilityOptions(rt http.RoundTripper) []browser.Option {
	var opts []browser.Option
	if c.cfg.RetryAttempts > 0 {
		opts = append(opts, browser.WithRetry(c.cfg.RetryAttempts, c.cfg.RetryBackoff))
	}
	if c.cfg.FetchTimeout > 0 {
		opts = append(opts, browser.WithTimeout(c.cfg.FetchTimeout))
	}
	if c.cfg.BreakerThreshold > 0 {
		opts = append(opts, browser.WithBreaker(c.cfg.BreakerThreshold, c.cfg.BreakerCooldown))
	}
	if c.cfg.DeadlineBudget > 0 {
		opts = append(opts, browser.WithDeadline(c.cfg.DeadlineBudget))
	}
	if c.cfg.MaxBodyBytes > 0 {
		opts = append(opts, browser.WithMaxBodySize(c.cfg.MaxBodyBytes))
	}
	opts = append(opts, browser.WithTransport(rt))
	if c.Spans != nil {
		opts = append(opts, browser.WithSpans(c.Spans))
	}
	opts = append(opts, browser.WithClock(c.clock))
	return opts
}

// runTransport returns the transport one phase or validation run installs
// in its browsers, and a function to call when the run returns. With
// Transport set it is that transport, left as it is. Otherwise it is a
// fresh http.DefaultTransport clone that keeps up to Machines idle
// connections per host, one per crawl machine, so a lock-step sweep
// reuses the last sweep's connections instead of re-dialing all but the
// default two; the returned function closes them.
func (c *Crawler) runTransport() (http.RoundTripper, func()) {
	if c.Transport != nil {
		return c.Transport, func() {}
	}
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = c.cfg.Machines
	t.MaxIdleConns = max(t.MaxIdleConns, c.cfg.Machines)
	return t, t.CloseIdleConnections
}

// sleepUntil parks the scheduler until an absolute instant on the campaign
// clock, doing nothing when the instant has already passed (a sweep that
// overran its slot starts the next one immediately).
func (c *Crawler) sleepUntil(t time.Time) {
	if d := t.Sub(c.clock.Now()); d > 0 {
		c.clock.Sleep(d)
	}
}

// startSpan opens a span on the campaign recorder: a child of the span
// already on ctx when there is one, else a root of the campaign trace.
// A crawler without Spans gets nil no-op spans throughout.
func (c *Crawler) startSpan(ctx context.Context, name string) (context.Context, *telemetry.Span) {
	if c.Spans == nil {
		return ctx, nil
	}
	if telemetry.SpanRecorderFrom(ctx) == nil {
		ctx = telemetry.WithSpanRecorder(ctx, c.Spans)
	}
	if telemetry.TraceID(ctx) == "" {
		ctx = telemetry.WithTraceID(ctx, telemetry.MintTraceID(0, "campaign"))
	}
	return telemetry.StartSpan(ctx, name)
}

// fetchResult carries one worker's outcome back to the scheduler.
type fetchResult struct {
	obs     storage.Observation
	err     error // the fetch failed; obs.Shed tells a terminal shed apart
	retries int
}

// drive runs fn, one whole campaign run, to completion. On a Manual clock
// the crawler drives the clock itself: fn runs on its own goroutine while
// DriveUntil hops virtual time across every inter-query and day-boundary
// sleep, and keeps hopping until fn has returned, so a cancelled run never
// strands workers parked in virtual sleeps. On any other clock fn runs
// inline and sleeps in real time.
func (c *Crawler) drive(fn func() error) error {
	clk, ok := c.clock.(*simclock.Manual)
	if !ok {
		return fn()
	}
	done := make(chan struct{})
	var err error
	go func() {
		defer close(done)
		err = fn()
	}()
	clk.DriveUntil(done)
	return err
}

// RunCampaign executes every phase in order and returns the observations,
// each phase's sorted by (day, granularity, term, location, role). The
// context is checked at every term boundary, so a cancelled multi-day
// campaign stops within one lock-step sweep (plus its inter-term wait on a
// wall clock). On a Manual clock the crawler drives virtual time itself —
// "30 days" of crawling complete in seconds, lock-step semantics intact;
// callers must not drive the crawler's clock. On any other clock the
// campaign runs in real time.
func (c *Crawler) RunCampaign(ctx context.Context, phases []Phase) ([]storage.Observation, error) {
	ctx, span := c.startSpan(ctx, "crawler.campaign")
	span.SetAttr("phases", fmt.Sprint(len(phases)))
	defer span.End()
	c.planCampaign(phases)
	var all []storage.Observation
	err := c.drive(func() error {
		for _, p := range phases {
			obs, err := c.runPhase(ctx, p)
			if err != nil {
				return fmt.Errorf("crawler: phase %q: %w", p.Name, err)
			}
			all = append(all, obs...)
		}
		return nil
	})
	if err == nil && c.ckpt != nil && c.ckpt.skipping() {
		err = fmt.Errorf("crawler: resume: checkpoint covers %d sweeps, the plan has %d", c.ckpt.ck.Sweeps, c.ckpt.seen)
	}
	if err != nil {
		return nil, err
	}
	return all, nil
}

// RunCampaignVirtual is RunCampaign(context.Background(), phases) for a
// caller that names the crawler's Manual clock; any other clock is an
// error. The benchmark module (perfbench) calls it.
func (c *Crawler) RunCampaignVirtual(clk *simclock.Manual, phases []Phase) ([]storage.Observation, error) {
	if simclock.Clock(clk) != c.clock {
		return nil, fmt.Errorf("crawler: RunCampaignVirtual: clock is not the crawler's")
	}
	return c.RunCampaign(context.Background(), phases)
}

// runPhase executes one phase of a planned campaign and returns every
// captured observation, sorted by (day, granularity, term, location, role)
// for deterministic downstream processing.
func (c *Crawler) runPhase(ctx context.Context, p Phase) ([]storage.Observation, error) {
	if p.Days <= 0 {
		return nil, fmt.Errorf("crawler: phase %q has no days", p.Name)
	}
	ctx, span := c.startSpan(ctx, "crawler.phase")
	span.SetAttr("phase", p.Name)
	span.SetAttr("days", fmt.Sprint(p.Days))
	defer span.End()
	rt, closeIdle := c.runTransport()
	defer closeIdle()
	var all []storage.Observation
	_, manualClock := c.clock.(*simclock.Manual)
	for _, g := range p.Granularities {
		locs := c.ds.At(g)
		if len(locs) == 0 {
			return nil, fmt.Errorf("crawler: no locations at %s", g)
		}
		vans, err := c.newVantages(locs, rt)
		if err != nil {
			return nil, err
		}
		for day := 0; day < p.Days; day++ {
			dayStart := c.clock.Now()
			executedThisDay := false
			for ti, q := range p.Terms {
				if err := ctx.Err(); err != nil {
					return nil, fmt.Errorf("crawler: phase %q cancelled: %w", p.Name, err)
				}
				// The lock-step schedule is ABSOLUTE: sweep i+1 starts at
				// dayStart + (i+1)*WaitBetweenTerms regardless of how much
				// (virtual) time sweep i burned on retries, Retry-After
				// waits, or breaker cooldowns. Sleeping a relative
				// WaitBetweenTerms instead would let in-round recovery work
				// push every later sweep's timestamps — and the engine's
				// history/day state — off schedule, breaking byte-for-byte
				// reproducibility whenever a fault schedule perturbs one
				// round. The study's cron-style firing behaves the same way.
				slotStart := dayStart.Add(time.Duration(ti) * c.cfg.WaitBetweenTerms)
				nextSlot := dayStart.Add(time.Duration(ti+1) * c.cfg.WaitBetweenTerms)
				if c.ckpt != nil && c.ckpt.skipping() {
					// Fast-forward over a sweep the checkpoint already
					// holds. Under a virtual clock the slot is still slept
					// out so the resumed campaign's timeline — and with it
					// the engine's day counter — replays exactly; under a
					// wall clock re-waiting would cost real hours for
					// nothing. The recovered observations still flow to the
					// sink: a resumed campaign's streaming scorecard must
					// cover the sweeps it did not re-fetch.
					obs, err := c.ckpt.recover(sweepSlot{p.Name, g.Short(), day, q.Term})
					if err != nil {
						return nil, err
					}
					all = append(all, obs...)
					c.notifySweep(p.Name, g, day, q.Term, slotStart, obs, true)
					if manualClock {
						c.sleepUntil(nextSlot)
					}
					continue
				}
				executedThisDay = true
				obs, err := c.sweepTerm(ctx, p.Name, q, g, day, vans)
				if err != nil {
					return nil, err
				}
				all = append(all, obs...)
				if c.ckpt != nil {
					if err := c.ckpt.record(p.Name, g.Short(), day, q.Term, obs); err != nil {
						return nil, err
					}
				}
				c.notifySweep(p.Name, g, day, q.Term, slotStart, obs, false)
				// Park until the next term's slot (11 minutes after this
				// one began, in the study).
				c.sleepUntil(nextSlot)
			}
			// Park until the next day boundary so the crawl's "day d"
			// labels coincide with the engine's day counter (news
			// rotation, Fig 8's day-by-day series). A wall-clock resume
			// skips the park for days it never touched.
			if rem := 24*time.Hour - c.clock.Now().Sub(dayStart); rem > 0 && (manualClock || executedThisDay) {
				c.clock.Sleep(rem)
			}
			if c.Progress != nil {
				c.Progress(fmt.Sprintf("phase %s: %s day %d/%d done (%d observations)",
					p.Name, g.Short(), day+1, p.Days, len(all)))
			}
			if c.Logger != nil {
				inst := c.instruments()
				c.Logger.Info("phase day complete",
					"phase", p.Name,
					"granularity", g.Short(),
					"day", day+1,
					"days", p.Days,
					"terms_completed", inst.terms.Value(),
					"queries_issued", inst.queries.Value(),
					"rate_limited_429s", inst.limited.Value(),
					"observations", len(all))
			}
		}
	}
	sortObservations(all)
	return all, nil
}

// lockstep runs one lock-step round: fetch(ctx, i) for every i in [0, n),
// all launched at the same campaign instant, and returns once every fetch
// has returned. It is the only place the crawler holds the clock. Each
// worker holds it from *before* launch until it returns, so DriveUntil may
// not hop to a parked retry deadline while any fetch of the round is still
// runnable but not yet on the wire; fetch's ctx carries the hold
// (simclock.WithHeld), so backoff sleeps inside SearchContext go through
// SleepHeld. The dispatcher also holds the clock until the last worker is
// launched: a worker whose first attempt fails at once drops its hold in
// SleepHeld, and without this one DriveUntil could then advance the clock
// before the later workers are even held.
func (c *Crawler) lockstep(ctx context.Context, n int, fetch func(ctx context.Context, i int)) {
	holder := simclock.HolderOf(c.clock)
	held := simclock.WithHeld(ctx, holder)
	if holder != nil {
		holder.Hold()
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		if holder != nil {
			holder.Hold()
		}
		go func(i int) {
			defer wg.Done()
			if holder != nil {
				defer holder.Release()
			}
			fetch(held, i)
		}(i)
	}
	if holder != nil {
		holder.Release()
	}
	wg.Wait()
}

// search is one fetch of a lock-step round: term from b under the given
// trace ID, with b's cookies cleared afterwards when the config asks for
// it.
func (c *Crawler) search(ctx context.Context, b *browser.Browser, trace, term string) (*serp.Page, error) {
	b.SetTraceID(trace)
	page, err := b.SearchContext(ctx, term)
	if c.cfg.ClearCookies {
		b.ClearCookies()
	}
	return page, err
}

// sweepTerm issues the query from every vantage — treatment and control —
// in lock-step: all fetches run concurrently at the same (virtual) instant.
// Each fetch carries a trace ID minted deterministically from its
// experimental coordinates, so repro campaigns stay byte-for-byte
// reproducible while every stored page joins back to its request.
//
// The sweep is fail-soft: a fetch that still fails after the retry policy
// becomes a Failed observation — slot recorded, page absent — instead of
// aborting the phase, as long as the round's failures stay within
// Config.FailureBudget. Cancellation is different from failure: once ctx is
// done the sweep returns the context's error without charging the budget.
func (c *Crawler) sweepTerm(ctx context.Context, phase string, q queries.Query, g geo.Granularity, day int, vans []vantage) ([]storage.Observation, error) {
	inst := c.instruments()
	ctx, span := c.startSpan(ctx, "crawler.sweep")
	span.SetAttr("term", q.Term)
	span.SetAttr("granularity", g.Short())
	span.SetAttr("day", fmt.Sprint(day))
	defer span.End()
	now := c.clock.Now()
	roundStart := c.wall.Now()
	// Fetch 2v is vantage v's treatment, 2v+1 its control.
	results := make([]fetchResult, len(vans)*2)
	c.lockstep(ctx, len(results), func(ctx context.Context, i int) {
		v := vans[i/2]
		role, b := storage.Treatment, v.treatment
		if i%2 == 1 {
			role, b = storage.Control, v.control
		}
		trace := telemetry.MintTraceID(0, phase, g.Short(), fmt.Sprint(day), q.Term, v.loc.ID, string(role))
		inst.queries.Inc()
		if c.Logger != nil {
			c.Logger.Debug("fetch",
				"trace", trace, "phase", phase, "term", q.Term,
				"location", v.loc.ID, "role", string(role), "day", day)
		}
		retriesBefore := b.Retries()
		page, err := c.search(ctx, b, trace, q.Term)
		r := &results[i]
		r.retries = b.Retries() - retriesBefore
		r.obs = storage.Observation{
			Phase:       phase,
			Term:        q.Term,
			Category:    q.Category.Short(),
			Granularity: g.Short(),
			LocationID:  v.loc.ID,
			Role:        role,
			Day:         day,
			MachineIP:   b.SourceIP(),
			TraceID:     trace,
			FetchedAt:   now,
		}
		if err != nil {
			r.obs.Failed = true
			r.obs.Err = err.Error()
			r.obs.Shed = browser.IsShed(err)
			r.err = fmt.Errorf("crawler: %s %s %q: %w", v.loc.ID, role, q.Term, err)
			return
		}
		r.obs.Datacenter = page.Datacenter
		r.obs.TraceID = page.TraceID
		r.obs.Page = page
	})
	inst.roundDur.ObserveSince(roundStart)

	// Shutdown, not flakiness: report the cancellation itself.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("crawler: sweep %q cancelled: %w", q.Term, err)
	}

	out := make([]storage.Observation, 0, len(results))
	failed, shed := 0, 0
	var firstErr, firstShedErr error
	for i := range results {
		r := &results[i]
		if r.retries > 0 {
			inst.fetchRetries.With(phase).Add(uint64(r.retries))
		}
		if r.err != nil {
			// Sheds and failures are charged to separate budgets: a 503
			// under admission control means the server chose not to serve,
			// which an operator tolerates (or not) independently of broken
			// fetches.
			if r.obs.Shed {
				shed++
				inst.fetchShed.With(phase).Inc()
				if firstShedErr == nil {
					firstShedErr = r.err
				}
			} else {
				failed++
				inst.fetchFailures.With(phase).Inc()
				if firstErr == nil {
					firstErr = r.err
				}
			}
			if c.Logger != nil {
				c.Logger.Warn("fetch failed", "trace", r.obs.TraceID, "phase", phase,
					"term", q.Term, "location", r.obs.LocationID, "role", string(r.obs.Role),
					"day", day, "shed", r.obs.Shed, "err", r.obs.Err)
			}
		}
		out = append(out, r.obs)
	}
	total := len(results)
	if budget := int(c.cfg.FailureBudget * float64(total)); failed > budget {
		return nil, fmt.Errorf("crawler: %d/%d fetches failed (budget %d): %w",
			failed, total, budget, firstErr)
	}
	if budget := int(c.cfg.ShedBudget * float64(total)); shed > budget {
		return nil, fmt.Errorf("crawler: %d/%d fetches shed by the server (budget %d): %w",
			shed, total, budget, firstShedErr)
	}
	inst.terms.Inc()
	// Canonicalize to (location, role) order before the sweep is
	// checkpointed or handed to a SweepSink: recovered and re-executed
	// sweeps must replay byte-identically across runs.
	sortObservations(out)
	return out, nil
}

// RunValidation reproduces the §2.2 validation experiment: identical
// queries with the same GPS coordinate issued from vantage machines spread
// across unrelated networks (the study used 50 PlanetLab sites across the
// US). It returns the fetched pages grouped by term, in vantage order.
// Vantage browsers are deliberately NOT datacenter-pinned: the experiment
// measures how much the serving path and IP address matter once GPS is
// fixed. Like RunCampaign, it drives a Manual clock itself (callers must
// not) and runs in real time on any other clock.
func (c *Crawler) RunValidation(terms []queries.Query, gps geo.Point, nVantage int) (map[string][]*serp.Page, error) {
	if nVantage <= 0 {
		return nil, fmt.Errorf("crawler: need at least one vantage")
	}
	c.instruments() // ensure c.Telemetry exists for the browser pool
	_, span := c.startSpan(context.Background(), "crawler.validation")
	span.SetAttr("vantages", fmt.Sprint(nVantage))
	span.SetAttr("terms", fmt.Sprint(len(terms)))
	defer span.End()
	rt, closeIdle := c.runTransport()
	defer closeIdle()
	browsers := make([]*browser.Browser, nVantage)
	for i := range browsers {
		// Spread vantages across distinct /8s, like PlanetLab sites at
		// different universities.
		ip := fmt.Sprintf("%d.%d.10.7", 11+(i*5)%200, (i*13)%250)
		opts := append([]browser.Option{
			browser.WithSourceIP(ip),
			browser.WithTelemetry(c.Telemetry),
		}, c.reliabilityOptions(rt)...)
		b, err := browser.New(c.baseURL, opts...)
		if err != nil {
			return nil, err
		}
		b.OverrideGeolocation(gps)
		browsers[i] = b
	}
	out := make(map[string][]*serp.Page, len(terms))
	err := c.drive(func() error {
		for _, q := range terms {
			pages := make([]*serp.Page, nVantage)
			errs := make([]error, nVantage)
			c.lockstep(context.Background(), nVantage, func(ctx context.Context, i int) {
				// Trace-keyed like campaign fetches, so the validation
				// pages — printed first by cmd/repro — are reproducible
				// regardless of goroutine arrival order.
				trace := telemetry.MintTraceID(0, "validation", q.Term, fmt.Sprint(i))
				pages[i], errs[i] = c.search(ctx, browsers[i], trace, q.Term)
			})
			for i, err := range errs {
				if err != nil {
					return fmt.Errorf("crawler: validation vantage %d term %q: %w", i, q.Term, err)
				}
			}
			out[q.Term] = pages
			c.clock.Sleep(c.cfg.WaitBetweenTerms)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func sortObservations(obs []storage.Observation) {
	sort.Slice(obs, func(i, j int) bool {
		a, b := obs[i], obs[j]
		switch {
		case a.Day != b.Day:
			return a.Day < b.Day
		case a.Granularity != b.Granularity:
			return a.Granularity < b.Granularity
		case a.Term != b.Term:
			return a.Term < b.Term
		case a.LocationID != b.LocationID:
			return a.LocationID < b.LocationID
		default:
			return a.Role < b.Role
		}
	})
}
