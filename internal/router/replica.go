package router

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"geoserp/internal/detrand"
	"geoserp/internal/engine"
	"geoserp/internal/index"
	"geoserp/internal/simclock"
	"geoserp/internal/telemetry"
)

// This file is the replica layer of the scatter-gather client: every
// shard is an interchangeable ReplicaSet, and each fan-out leg walks it
// deterministically — preferred replica from the trace ID, failover in
// ring order, optional hedged backup on the campaign clock — so that a
// single-replica fault never degrades a page and same-seed runs replay
// identical replica choices, hedge instants, and trace bytes.

// preferredReplica picks the replica a leg contacts first: a stable hash
// of the trace ID and shard, so same-seed runs route identically while
// distinct traces spread load across the replica set. The failover chain
// continues round-robin from it.
func preferredReplica(traceID string, shard, replicas int) int {
	if replicas <= 1 {
		return 0
	}
	h := detrand.Hash("router.replica", traceID, strconv.Itoa(shard))
	// Fold the high half in before taking the modulus: FNV-1a's low bits
	// are near-linear in the final input bytes, so with single-digit
	// shard labels h%2 would be the same parity bit for every even shard
	// and its complement for every odd one — replica choice must instead
	// depend on the whole (trace, shard) pair.
	h ^= h >> 32
	return int(h % uint64(replicas))
}

// attemptResult classifies one finished replica request.
type attemptResult struct {
	outcome string
	detail  string
	hits    []index.Hit
}

// attempt is one replica request within a leg. The leg controller
// goroutine owns it exclusively: it alone touches the span, applies
// breaker effects, and appends the attempt record, so nothing about an
// attempt depends on which goroutine's I/O finished first. Without
// hedging the controller also runs the request itself (doRequest); only
// a hedged leg gives its attempts goroutines of their own (launch).
type attempt struct {
	shard   int
	replica int
	hedge   bool
	br      *breaker
	span    *telemetry.Span
	start   time.Time
	url     string                  // replica base URL + the leg's shard query
	req     *engine.RetrieveRequest // read-only, shared by the Retrieve's legs
	ctx     context.Context         // the attempt's own: ClientConfig.Timeout, hedge cancellation
	cancel  context.CancelFunc
	done    chan attemptResult // set by launch; buffered, the request goroutine sends exactly once
}

// callShard runs one shard's leg: walk the replica failover chain until a
// replica answers or the set is exhausted, hedging stragglers when
// configured. query is the shard query string every replica URL ends in.
// The leg span is annotated but NOT ended here — Retrieve owns its
// lifecycle (and that of every attempt span, via out.attempts).
func (c *Client) callShard(shard int, query string, req *engine.RetrieveRequest, legSpan *telemetry.Span) shardOutcome {
	n := len(c.cfg.Shards[shard])
	out := shardOutcome{replica: -1}
	start := preferredReplica(req.TraceID, shard, n)
	next := 0 // offset into the failover chain

	// nextAttempt mints an attempt on the next replica in the
	// deterministic chain (preferred first, then successors mod n).
	// Replicas whose breakers fail fast are recorded as breaker_open
	// attempts and skipped without a request. Returns nil when the chain
	// is exhausted.
	nextAttempt := func(hedge bool) *attempt {
		for next < n {
			r := (start + next) % n
			next++
			br := c.breakers[shard][r]
			if br != nil && !br.allow(c.cfg.Clock.Now()) {
				sp := startAttemptSpan(legSpan, r, hedge)
				sp.SetAttr("outcome", outcomeBreakerOpen)
				out.attempts = append(out.attempts, replicaAttempt{
					replica: r, hedge: hedge, outcome: outcomeBreakerOpen, span: sp,
				})
				continue
			}
			return c.startAttempt(shard, r, br, c.cfg.Shards[shard][r]+query, req, legSpan, hedge)
		}
		return nil
	}

	for {
		prim := nextAttempt(false)
		if prim == nil {
			break // every replica tried or skipped
		}
		res, served := c.awaitLeg(prim, nextAttempt, &out)
		if res.outcome == outcomeOK {
			out.outcome = outcomeOK
			out.hits = res.hits
			out.replica = served
			legSpan.SetAttr("outcome", outcomeOK)
			legSpan.SetAttr("replica", strconv.Itoa(served))
			legSpan.SetAttr("hits", strconv.Itoa(len(res.hits)))
			return out
		}
	}

	// No replica delivered. Classify the leg by the worst failure class
	// seen — error dominates shed dominates breaker_open — so the leg
	// span and metrics name why the whole replica set failed.
	out.outcome = outcomeBreakerOpen
	detail := ""
	for _, a := range out.attempts {
		switch a.outcome {
		case outcomeError:
			if out.outcome != outcomeError {
				out.outcome = outcomeError
				detail = a.detail
			}
		case outcomeShed:
			if out.outcome == outcomeBreakerOpen {
				out.outcome = outcomeShed
			}
		}
	}
	legSpan.SetAttr("outcome", out.outcome)
	if detail != "" {
		legSpan.SetAttr("error", detail)
	}
	return out
}

// startAttemptSpan mints the per-replica attempt span under the leg span.
// Only the leg's controller goroutine calls it, so the leg's child
// sequence — and therefore every attempt span ID — is deterministic.
func startAttemptSpan(legSpan *telemetry.Span, replica int, hedge bool) *telemetry.Span {
	sp := legSpan.StartChild(spanAttempt)
	sp.SetAttr("replica", strconv.Itoa(replica))
	if hedge {
		sp.SetAttr("hedge", "true")
	}
	return sp
}

// startAttempt mints one replica attempt — its span, its start instant
// and its context, which expires after ClientConfig.Timeout when one is
// set — and returns the controller's handle to it. The request has not
// been sent yet: the controller runs it inline or launches it.
func (c *Client) startAttempt(shard, replica int, br *breaker, u string, req *engine.RetrieveRequest, legSpan *telemetry.Span, hedge bool) *attempt {
	a := &attempt{
		shard:   shard,
		replica: replica,
		hedge:   hedge,
		br:      br,
		span:    startAttemptSpan(legSpan, replica, hedge),
		start:   c.cfg.Clock.Now(),
		url:     u,
		req:     req,
	}
	// The timeout is per attempt, not per Retrieve, so a failover attempt
	// gets a full budget of its own.
	if c.cfg.Timeout > 0 {
		a.ctx, a.cancel = context.WithTimeout(context.Background(), c.cfg.Timeout)
	} else {
		a.ctx, a.cancel = context.WithCancel(context.Background())
	}
	return a
}

// launch sends the attempt's request from its own goroutine; the result
// arrives on a.done. Only a hedged leg, which must watch its primary and
// its backup at once, needs this.
func (c *Client) launch(a *attempt) {
	a.done = make(chan attemptResult, 1)
	go func() { a.done <- c.doRequest(a) }()
}

// awaitLeg waits out one primary attempt, hedging it with the next
// replica in the chain when the primary stalls past HedgeAfter on the
// campaign clock. Attempt records are appended in chain order — primary
// before hedge — regardless of which resolved first, so the recorded
// trace never depends on goroutine scheduling. The returned int is the
// replica that served an OK result (-1 otherwise).
func (c *Client) awaitLeg(prim *attempt, nextAttempt func(bool) *attempt, out *shardOutcome) (attemptResult, int) {
	if c.cfg.HedgeAfter <= 0 {
		res := c.doRequest(prim)
		c.settle(prim, res, out)
		return res, prim.replica
	}
	c.launch(prim)

	// The timer goroutine parks on the campaign clock. When the primary
	// answers before the delay elapses the firing is simply never read;
	// the goroutine exits on its own once the clock passes the deadline.
	hedgeFire := make(chan struct{})
	go func() {
		c.cfg.Clock.Sleep(c.cfg.HedgeAfter)
		close(hedgeFire)
	}()

	var hedge *attempt
	var primRes *attemptResult
	select {
	case r := <-prim.done:
		primRes = &r
	case <-hedgeFire:
		if hedge = nextAttempt(true); hedge != nil {
			c.launch(hedge)
		}
	}
	if primRes != nil || hedge == nil {
		// Primary answered in time, or the hedge found no healthy backup
		// replica left in the chain: the leg is down to the primary alone.
		if primRes == nil {
			r := <-prim.done
			primRes = &r
		}
		c.settle(prim, *primRes, out)
		if primRes.outcome == outcomeOK {
			return *primRes, prim.replica
		}
		return *primRes, -1
	}
	out.hedged = true

	// Race primary and hedge: first useful answer wins, the loser is
	// cancelled and awaited, then both are settled in chain order.
	var first *attempt
	var firstRes attemptResult
	select {
	case r := <-prim.done:
		first, firstRes = prim, r
	case r := <-hedge.done:
		first, firstRes = hedge, r
	}
	if firstRes.outcome == outcomeOK {
		if first == prim {
			hedge.cancel()
			<-hedge.done
			c.settle(prim, firstRes, out)
			c.settleCanceled(hedge, out)
			return firstRes, prim.replica
		}
		prim.cancel()
		<-prim.done
		c.settleCanceled(prim, out)
		c.settle(hedge, firstRes, out)
		out.hedgeWon = true
		return firstRes, hedge.replica
	}
	// The first answer was a failure; wait the other attempt out in full —
	// it may still deliver the page.
	if first == prim {
		secRes := <-hedge.done
		c.settle(prim, firstRes, out)
		c.settle(hedge, secRes, out)
		if secRes.outcome == outcomeOK {
			out.hedgeWon = true
			return secRes, hedge.replica
		}
		return firstRes, -1
	}
	secRes := <-prim.done
	c.settle(prim, secRes, out)
	c.settle(hedge, firstRes, out)
	if secRes.outcome == outcomeOK {
		return secRes, prim.replica
	}
	return secRes, -1
}

// settle applies an attempt's breaker effect, annotates its span, and
// appends its record. Controller-only.
func (c *Client) settle(a *attempt, res attemptResult, out *shardOutcome) {
	switch res.outcome {
	case outcomeOK:
		if a.br != nil {
			a.br.success()
		}
		a.span.SetAttr("hits", strconv.Itoa(len(res.hits)))
	case outcomeShed:
		if a.br != nil {
			a.br.pushback()
		}
	default:
		if a.br != nil {
			a.br.failure(c.cfg.Clock.Now())
		}
	}
	a.span.SetAttr("outcome", res.outcome)
	if res.detail != "" {
		a.span.SetAttr("error", res.detail)
	}
	a.cancel() // release the request context either way
	out.attempts = append(out.attempts, replicaAttempt{
		replica: a.replica,
		hedge:   a.hedge,
		outcome: res.outcome,
		detail:  res.detail,
		span:    a.span,
		dur:     c.cfg.Clock.Now().Sub(a.start),
	})
}

// settleCanceled records a hedge-race loser. The record is normalized to
// "canceled" no matter how the request actually ended — it lost the race
// and its answer is discarded — and its breaker sees a pushback, never a
// failure: losing a hedge race is no evidence the replica is unhealthy,
// but a half-open probe slot it may hold must be released.
func (c *Client) settleCanceled(a *attempt, out *shardOutcome) {
	if a.br != nil {
		a.br.pushback()
	}
	a.span.SetAttr("outcome", outcomeCanceled)
	out.attempts = append(out.attempts, replicaAttempt{
		replica: a.replica,
		hedge:   a.hedge,
		outcome: outcomeCanceled,
		span:    a.span,
		dur:     c.cfg.Clock.Now().Sub(a.start),
	})
}

// probePhase offsets every health-probe tick by half a second. All other
// virtual instants in the chaos rigs land on whole seconds (campaign
// slots, retry backoffs, breaker cooldowns, deadlines), and a Manual
// clock releases same-deadline sleepers in insertion order — which is
// scheduling-dependent. The half-second phase keeps probe instants
// disjoint from every request instant, so breaker re-admission order is a
// pure function of the schedule and same-seed runs replay it
// byte-identically.
const probePhase = 500 * time.Millisecond

// StartProber launches the background health loop when
// cfg.ProbeInterval > 0: every interval (plus a fixed half-second phase)
// it sweeps the replica breakers in (shard, replica) order and probes
// GET /healthz on each one open past its cooldown; a 200 reporting the
// client's corpus re-closes the breaker, re-admitting the recovered
// replica even when no search traffic arrives to half-open probe it. On a
// Manual campaign clock the loop uses the Holder rehold protocol, so each
// sweep completes atomically at its virtual instant before the campaign
// driver advances further — and it parks *passively* (SleepHeldPassive):
// the prober wakes whenever the campaign's own advancement crosses a tick,
// but its permanently re-parked sleeper never hands the driver a deadline
// of its own, which would let virtual time race ahead at wall speed
// whenever the campaign workers are momentarily between sleeps.
//
// The returned stop function is idempotent (a no-op one when probing is
// disabled). Note a stopped prober parked on a Manual clock only observes
// the stop at its next tick; a loop parked on a clock that never advances
// again simply stays parked, which rigs that tear the whole world down
// accept as a bounded leak.
func (c *Client) StartProber() (stop func()) {
	if c.cfg.ProbeInterval <= 0 {
		return func() {}
	}
	stopCh := make(chan struct{})
	go c.probeLoop(stopCh)
	var once sync.Once
	return func() { once.Do(func() { close(stopCh) }) }
}

func (c *Client) probeLoop(stop <-chan struct{}) {
	clk := c.cfg.Clock
	h := simclock.HolderOf(clk)
	if h != nil {
		h.Hold()
		defer h.Release()
	}
	sleep := func(d time.Duration) {
		switch {
		case h == nil:
			clk.Sleep(d)
		default:
			if p, ok := h.(simclock.PassiveHolder); ok {
				p.SleepHeldPassive(d)
			} else {
				h.SleepHeld(d)
			}
		}
	}
	// Ticks stay on the start + k*interval + probePhase grid even when a
	// coarse advance overshoots one: the loop sweeps once on wake, then
	// re-parks at the next grid instant still in the future.
	next := clk.Now().Add(c.cfg.ProbeInterval + probePhase)
	for {
		sleep(next.Sub(clk.Now()))
		select {
		case <-stop:
			return
		default:
		}
		c.probeSweep()
		now := clk.Now()
		for next = next.Add(c.cfg.ProbeInterval); !next.After(now); {
			next = next.Add(c.cfg.ProbeInterval)
		}
	}
}

// probeSweep probes every due replica, sequentially and in (shard,
// replica) order on purpose: probe order — and therefore breaker
// re-admission order — must not depend on goroutine scheduling. A probe
// passes only on a 200 whose body names the client's corpus: a live node
// built from another seed or corpus would fail every leg it was
// re-admitted to.
func (c *Client) probeSweep() {
	now := c.cfg.Clock.Now()
	httpc := &http.Client{Transport: c.cfg.Transport, Timeout: c.cfg.Timeout}
	for i, reps := range c.breakers {
		for r, br := range reps {
			if br == nil || !br.probeDue(now) {
				continue
			}
			resp, err := httpc.Get(c.cfg.Shards[i][r] + "/healthz")
			healthy := err == nil && resp.StatusCode == http.StatusOK && c.ownCorpus(resp.Body)
			if resp != nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			if !healthy {
				c.probes.With(outcomeError).Inc()
				continue
			}
			c.probes.With(outcomeOK).Inc()
			if br.probeClose() {
				c.readmits.Inc()
			}
		}
	}
}

// ownCorpus reports whether a shard's /healthz body, read up to 1 KiB,
// names the client's corpus fingerprint.
func (c *Client) ownCorpus(health io.Reader) bool {
	var h struct {
		Corpus string `json:"corpus"`
	}
	err := json.NewDecoder(io.LimitReader(health, 1<<10)).Decode(&h)
	return err == nil && h.Corpus == corpusHex(c.corpus)
}
