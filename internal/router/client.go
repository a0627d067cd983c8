package router

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"geoserp/internal/engine"
	"geoserp/internal/httpheader"
	"geoserp/internal/index"
	"geoserp/internal/simclock"
	"geoserp/internal/telemetry"
	"geoserp/internal/webcorpus"
)

// Per-leg fan-out outcomes, as exposed through
// router_shard_requests_total{outcome}; the first four also classify
// individual replica attempts (router_replica_requests_total{outcome}),
// which additionally use "canceled" for hedge losers.
const (
	outcomeOK          = "ok"           // shard answered with hits
	outcomeShed        = "shed"         // shard pushed back (503 admission shed)
	outcomeBreakerOpen = "breaker_open" // skipped: breaker failing fast
	outcomeError       = "error"        // transport error, timeout, or 5xx
	outcomeCanceled    = "canceled"     // attempt lost a hedge race and was cancelled
)

// Hedge results, as exposed through router_hedges_total{result}.
const (
	hedgeWon  = "won"
	hedgeLost = "lost"
)

// ClientConfig configures the scatter-gather client.
type ClientConfig struct {
	// Shards are the replica base URLs ("http://host:port") per shard:
	// Shards[i] is shard i's ReplicaSet, in replica-ID order. Shard order
	// matters (it must match the ring the corpus was partitioned with);
	// every replica of one shard serves the identical document slice, so
	// which replica answers never changes a byte of the merged page.
	// SingleReplica wraps a flat one-URL-per-shard list.
	Shards [][]string
	// Timeout bounds one replica request on the wall clock. <= 0 means no
	// per-request timeout (the propagated X-Deadline-Ms still applies at
	// the shard).
	Timeout time.Duration
	// BreakerThreshold is the consecutive-failure count that trips a
	// replica's breaker; <= 0 disables breakers entirely.
	BreakerThreshold int
	// BreakerCooldown is the open-state dwell before a half-open probe.
	BreakerCooldown time.Duration
	// HedgeAfter, when > 0, arms hedged requests: a fan-out leg whose
	// current replica has not answered after this long on cfg.Clock fires
	// a backup request at the next healthy replica of the same shard; the
	// first useful answer wins and the loser is cancelled. Measured on the
	// campaign clock, so same-seed virtual-time runs hedge at identical
	// instants.
	HedgeAfter time.Duration
	// ProbeInterval, when > 0, is the cadence of the background health
	// prober started by StartProber: each tick probes GET /healthz on
	// every replica whose breaker has been open past its cooldown, and a
	// 200 reporting the client's corpus fingerprint re-closes the breaker
	// — re-admitting a recovered replica even when no search traffic
	// arrives to half-open probe it.
	ProbeInterval time.Duration
	// Clock supplies the instants driving breaker cooldowns, hedge delays,
	// and probe ticks — the campaign clock in virtual-time rigs, so
	// same-seed chaos runs replay identical timelines. Defaults to the
	// wall clock.
	Clock simclock.Clock
	// Transport issues the shard requests. Defaults to
	// http.DefaultTransport; cluster tests and the soak rig install an
	// in-process transport so no sockets are involved.
	Transport http.RoundTripper
	// Docs is the corpus document table in doc-ID order: index.DocsOf of
	// the world the shards regenerate, or the Docs of an index built from
	// it. Reply frames carry doc IDs, which the client resolves through
	// this table, and a reply whose corpus fingerprint differs from the
	// table's is rejected as misrouted. Required.
	Docs []webcorpus.Doc
}

// SingleReplica wraps a flat shard URL list — one replica per shard — in
// the ReplicaSet shape ClientConfig.Shards takes.
func SingleReplica(urls []string) [][]string {
	out := make([][]string, len(urls))
	for i, u := range urls {
		out[i] = []string{u}
	}
	return out
}

// Client fans one retrieval out to every shard concurrently, merges the
// per-shard top-k rankings with the same comparator the index itself uses
// (score descending, URL ascending — URLs are unique across the disjoint
// partition, so the merged order is total and identical run to run no
// matter which shard answers first), and implements engine.Retriever so a
// coordinator engine is just engine.NewCustom(..., WithRetriever(client)).
//
// Each fan-out leg walks its shard's ReplicaSet: a preferred replica
// chosen deterministically from the trace ID, then the remaining replicas
// in ring order on transport error, breaker-open, or shed — optionally
// racing a hedged backup after HedgeAfter. A leg degrades the page only
// when EVERY replica of its shard fails; only when no shard contributes
// at all does Retrieve return engine.ErrRetrievalUnavailable (503).
type Client struct {
	cfg      ClientConfig
	corpus   uint64       // index.Fingerprint(cfg.Docs)
	breakers [][]*breaker // [shard][replica]; nil entries when disabled

	retrievals  *telemetry.Counter    // router_retrievals_total
	partial     *telemetry.Counter    // router_partial_results_total
	unavailable *telemetry.Counter    // router_unavailable_total
	perShard    *telemetry.CounterVec // router_shard_requests_total{outcome}
	perReplica  *telemetry.CounterVec // router_replica_requests_total{outcome}
	failovers   *telemetry.Counter    // router_replica_failovers_total
	hedges      *telemetry.CounterVec // router_hedges_total{result}
	probes      *telemetry.CounterVec // router_replica_probes_total{outcome}
	readmits    *telemetry.Counter    // router_replica_readmissions_total
	transitions *telemetry.CounterVec // router_breaker_transitions_total{event}
}

// NewClient builds a scatter-gather client over cfg.Shards, registering
// its metrics on reg (a private registry when nil).
func NewClient(cfg ClientConfig, reg *telemetry.Registry) *Client {
	if len(cfg.Shards) == 0 {
		panic("router: client needs at least one shard")
	}
	for i, reps := range cfg.Shards {
		if len(reps) == 0 {
			panic("router: shard " + strconv.Itoa(i) + " has no replica URLs")
		}
	}
	if len(cfg.Docs) == 0 {
		panic("router: client needs the corpus document table (ClientConfig.Docs)")
	}
	if cfg.Clock == nil {
		cfg.Clock = simclock.Wall()
	}
	if cfg.Transport == nil {
		cfg.Transport = http.DefaultTransport
	}
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	c := &Client{
		cfg:    cfg,
		corpus: index.Fingerprint(cfg.Docs),
		retrievals: reg.Counter("router_retrievals_total",
			"Scatter-gather retrievals issued by the router."),
		partial: reg.Counter("router_partial_results_total",
			"Retrievals that merged fewer than all shards (degraded pages)."),
		unavailable: reg.Counter("router_unavailable_total",
			"Retrievals where no shard contributed (served as 503)."),
		perShard: reg.CounterVec("router_shard_requests_total",
			"Per-shard fan-out leg outcomes (after replica failover).", "outcome"),
		perReplica: reg.CounterVec("router_replica_requests_total",
			"Per-replica attempt outcomes within fan-out legs.", "outcome"),
		failovers: reg.Counter("router_replica_failovers_total",
			"Replica attempts beyond the first within a fan-out leg, contacted or skipped — legs not served by their preferred replica on the first try."),
		hedges: reg.CounterVec("router_hedges_total",
			"Hedged backup requests fired, by result.", "result"),
		probes: reg.CounterVec("router_replica_probes_total",
			"Background replica health probes, by outcome.", "outcome"),
		readmits: reg.Counter("router_replica_readmissions_total",
			"Open replica breakers re-closed by a successful health probe."),
		transitions: reg.CounterVec("router_breaker_transitions_total",
			"Replica breaker state transitions, by event.", "event"),
	}
	c.breakers = make([][]*breaker, len(cfg.Shards))
	for i, reps := range cfg.Shards {
		c.breakers[i] = make([]*breaker, len(reps))
		for r := range reps {
			if cfg.BreakerThreshold > 0 {
				br := newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown)
				br.onTransition = func(label string) { c.transitions.With(label).Inc() }
				c.breakers[i][r] = br
			}
		}
	}
	return c
}

// Shards returns the configured shard count.
func (c *Client) Shards() int { return len(c.cfg.Shards) }

// BreakerStates returns each replica breaker's current state name,
// indexed [shard][replica], for /statz surfaces ("disabled" when breakers
// are off).
func (c *Client) BreakerStates() [][]string {
	out := make([][]string, len(c.breakers))
	for i, reps := range c.breakers {
		out[i] = make([]string, len(reps))
		for r, br := range reps {
			if br == nil {
				out[i][r] = "disabled"
			} else {
				out[i][r] = br.stateName()
			}
		}
	}
	return out
}

// replicaAttempt is one replica contact (or breaker fail-fast skip)
// within a leg, in chain order.
type replicaAttempt struct {
	replica int
	hedge   bool
	outcome string
	detail  string
	span    *telemetry.Span
	dur     time.Duration
}

// shardOutcome is one shard leg's contribution to a scatter-gather round.
type shardOutcome struct {
	outcome  string
	hits     []index.Hit
	dur      time.Duration // client-observed leg duration on cfg.Clock
	replica  int           // replica that delivered the hits; -1 when none
	attempts []replicaAttempt
	hedged   bool // a hedged backup request fired on this leg
	hedgeWon bool // ... and delivered the winning answer
}

// Retrieve implements engine.Retriever: concurrent fan-out, deterministic
// merge, graded degradation.
func (c *Client) Retrieve(req engine.RetrieveRequest) (engine.RetrieveResult, error) {
	c.retrievals.Inc()
	n := len(c.cfg.Shards)
	outcomes := make([]shardOutcome, n)

	// Leg spans are started sequentially, in shard order, BEFORE the
	// fan-out: span IDs mix a per-parent sequence number, and minting them
	// from racing goroutines would leak scheduling order into the trace,
	// breaking same-seed byte-identical trace output. (Attempt spans
	// below each leg are minted by that leg's single controller goroutine,
	// so their per-leg sequence is deterministic too.)
	spans := make([]*telemetry.Span, n)
	for i := 0; i < n; i++ {
		spans[i] = req.Span.StartChild(spanShardLeg)
		spans[i].SetAttr("shard", strconv.Itoa(i))
	}

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			legStart := c.cfg.Clock.Now()
			outcomes[i] = c.callShard(i, req, spans[i])
			outcomes[i].dur = c.cfg.Clock.Now().Sub(legStart)
		}(i)
	}
	wg.Wait()
	// Spans are ended sequentially after the barrier for the same reason
	// they were started sequentially: recorder commit order must not
	// depend on which shard's goroutine finished first. Attempt spans
	// commit before their leg span, legs in shard order.
	for i := 0; i < n; i++ {
		for _, a := range outcomes[i].attempts {
			a.span.End()
		}
		spans[i].End()
	}

	var merged []index.Hit
	ok := 0
	for i := range outcomes {
		o := &outcomes[i]
		c.perShard.With(o.outcome).Inc()
		for _, a := range o.attempts {
			c.perReplica.With(a.outcome).Inc()
			// Wide-event attempts are recorded here, after the barrier, so
			// the event never sees concurrent writers.
			req.Wide.Shard(i, a.replica, a.outcome, a.hedge, a.dur)
		}
		// Failovers count every attempt beyond the leg's first, breaker-open
		// skips included: the deterministic fact is "this leg was not served
		// by its preferred replica on the first try". Whether the walk paid
		// for a doomed request or skipped it depends on the breaker's state
		// at the leg's instant — and WHICH instant a trace lands on shifts
		// with admission-gate retries, so counting only contacted attempts
		// would make the tally scheduling-dependent. Attempt-count per leg
		// is invariant: a dark replica costs its legs exactly one extra
		// attempt however the breaker absorbs it.
		if n := len(o.attempts); n > 1 {
			c.failovers.Add(uint64(n - 1))
		}
		if o.hedged {
			if o.hedgeWon {
				c.hedges.With(hedgeWon).Inc()
			} else {
				c.hedges.With(hedgeLost).Inc()
			}
			req.Wide.Hedge(o.hedgeWon)
		}
		if o.outcome == outcomeOK {
			ok++
			merged = append(merged, o.hits...)
		}
	}
	switch {
	case ok == 0:
		c.unavailable.Inc()
		return engine.RetrieveResult{}, fmt.Errorf("router: 0/%d shards answered: %w", n, engine.ErrRetrievalUnavailable)
	case ok < n:
		c.partial.Inc()
		return engine.RetrieveResult{Hits: index.MergeHits(merged, req.K), Partial: true}, nil
	default:
		return engine.RetrieveResult{Hits: index.MergeHits(merged, req.K), Partial: false}, nil
	}
}

// doRequest performs one replica request and classifies the result. It
// never touches breakers or spans — the leg controller owns those — so it
// is safe to run concurrently with a hedged sibling.
func (c *Client) doRequest(ctx context.Context, shard, replica int, req engine.RetrieveRequest, parentSpan string) attemptResult {
	u := c.cfg.Shards[shard][replica] + SearchPath + "?q=" + url.QueryEscape(req.Query) +
		"&k=" + strconv.Itoa(req.K)
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return attemptResult{outcome: outcomeError, detail: "bad_url: " + err.Error()}
	}
	if req.TraceID != "" {
		hreq.Header.Set(httpheader.TraceID, req.TraceID)
	}
	if parentSpan != "" {
		// Name the exact replica attempt as the server span's parent, so
		// the stitcher joins every attempt — first try, failover, or hedge
		// — to the server span it caused.
		hreq.Header.Set(httpheader.ParentSpan, parentSpan)
	}
	if !req.Deadline.IsZero() {
		hreq.Header.Set(httpheader.DeadlineMs, strconv.FormatInt(req.Deadline.UnixMilli(), 10))
	}

	httpc := &http.Client{Transport: c.cfg.Transport, Timeout: c.cfg.Timeout}
	resp, err := httpc.Do(hreq)
	if err != nil {
		return attemptResult{outcome: outcomeError, detail: "transport: " + err.Error()}
	}
	defer resp.Body.Close()

	switch {
	case resp.StatusCode == http.StatusOK:
		sr, derr := readFrame(resp.Body, c.cfg.Docs)
		if derr != nil {
			return attemptResult{outcome: outcomeError, detail: "decode: " + derr.Error()}
		}
		if sr.Shard != shard {
			// A reply from the wrong shard means the topology is
			// misconfigured; merging it would silently corrupt rankings.
			return attemptResult{outcome: outcomeError, detail: "misrouted: got shard " + strconv.Itoa(sr.Shard)}
		}
		if sr.Replica != replica {
			return attemptResult{outcome: outcomeError, detail: "misrouted: got replica " + strconv.Itoa(sr.Replica)}
		}
		if sr.Corpus != c.corpus {
			// Built from another seed or corpus: its doc IDs name other
			// documents.
			return attemptResult{outcome: outcomeError,
				detail: "misrouted: corpus " + corpusHex(sr.Corpus) + ", want " + corpusHex(c.corpus)}
		}
		return attemptResult{outcome: outcomeOK, hits: sr.Hits}
	case resp.StatusCode == http.StatusServiceUnavailable:
		// Admission shed: the replica is alive and asked for patience.
		// Pushback must not trip the breaker — see breaker.pushback.
		_, _ = io.Copy(io.Discard, resp.Body)
		return attemptResult{outcome: outcomeShed}
	default:
		_, _ = io.Copy(io.Discard, resp.Body)
		return attemptResult{outcome: outcomeError, detail: "status: " + resp.Status}
	}
}

// CollectSpanz drains every replica's /spanz export over the client's own
// transport, returning one NodeSpans per replica in (shard, replica)
// order, plus per-node fetch errors (nil entries on success). A node that
// cannot be reached still yields a named, empty lane so stitched output
// keeps its process order.
func (c *Client) CollectSpanz() ([]telemetry.NodeSpans, []error) {
	httpc := &http.Client{Transport: c.cfg.Transport, Timeout: c.cfg.Timeout}
	var nodes []telemetry.NodeSpans
	var errs []error
	for i, reps := range c.cfg.Shards {
		for r, base := range reps {
			ns, err := telemetry.FetchSpanz(httpc, base)
			if ns.Node == "" {
				ns.Node = ShardNodeName(i, r)
			}
			nodes = append(nodes, ns)
			errs = append(errs, err)
		}
	}
	return nodes, errs
}

// parseDeadline reads the propagated absolute deadline from X-Deadline-Ms
// (unix milliseconds); absent or malformed values mean no deadline.
func parseDeadline(r *http.Request) time.Time {
	v := r.Header.Get(httpheader.DeadlineMs)
	if v == "" {
		return time.Time{}
	}
	ms, err := strconv.ParseInt(v, 10, 64)
	if err != nil || ms <= 0 {
		return time.Time{}
	}
	return time.UnixMilli(ms)
}
