package router

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"geoserp/internal/breaker"
	"geoserp/internal/detrand"
	"geoserp/internal/engine"
	"geoserp/internal/index"
	"geoserp/internal/simclock"
	"geoserp/internal/telemetry"
)

// This file is the replica layer of the scatter-gather client: every
// shard is an interchangeable ReplicaSet, and each fan-out leg walks it
// deterministically — preferred replica from the trace ID, then failover
// in ring order, one attempt at a time on the leg's own goroutine — so
// that a single-replica fault never degrades a page and same-seed runs
// replay identical replica choices and trace bytes.

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

// attempt is one replica request within a leg. The leg's goroutine runs
// it inline and alone touches its span and breaker, so the attempt
// records follow the failover chain exactly.
type attempt struct {
	shard   int
	replica int
	br      *breaker.Breaker
	span    *telemetry.Span
	start   time.Time
	url     string                  // replica base URL + the leg's shard query
	req     *engine.RetrieveRequest // read-only, shared by the Retrieve's legs
}

// callShard runs one shard's leg: walk the replica failover chain until a
// replica answers or the set is exhausted. query is the shard query
// string every replica URL ends in. The leg span is annotated but NOT
// ended here — Retrieve owns its lifecycle (and that of every attempt
// span, via out.attempts).
func (c *Client) callShard(shard int, query string, req *engine.RetrieveRequest, legSpan *telemetry.Span) shardOutcome {
	n := len(c.cfg.Shards[shard])
	out := shardOutcome{replica: -1}
	start := preferredReplica(req.TraceID, shard, n)
	// The chain is the preferred replica, then its successors mod n.
	// Replicas whose breakers fail fast are recorded as breaker_open
	// attempts and skipped without a request.
	for next := 0; next < n; next++ {
		r := (start + next) % n
		br := c.breakers[shard][r]
		if _, ok := br.Allow(c.cfg.Clock.Now()); !ok {
			sp := startAttemptSpan(legSpan, r)
			sp.SetAttr("outcome", outcomeBreakerOpen)
			out.attempts = append(out.attempts, replicaAttempt{
				replica: r, outcome: outcomeBreakerOpen, span: sp,
			})
			continue
		}
		a := &attempt{shard: shard, replica: r, br: br, span: startAttemptSpan(legSpan, r),
			start: c.cfg.Clock.Now(), url: c.cfg.Shards[shard][r] + query, req: req}
		res := c.doRequest(a)
		c.settle(a, res, &out)
		if res.outcome == outcomeOK {
			out.outcome = outcomeOK
			out.hits = res.hits
			out.replica = r
			legSpan.SetAttr("outcome", outcomeOK)
			legSpan.SetAttr("replica", strconv.Itoa(r))
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
// Only the leg's goroutine calls it, so the leg's child sequence — and
// therefore every attempt span ID — is deterministic.
func startAttemptSpan(legSpan *telemetry.Span, replica int) *telemetry.Span {
	sp := legSpan.StartChild(spanAttempt)
	sp.SetAttr("replica", strconv.Itoa(replica))
	return sp
}

// settle applies an attempt's breaker effect, annotates its span, and
// appends its record.
func (c *Client) settle(a *attempt, res attemptResult, out *shardOutcome) {
	switch res.outcome {
	case outcomeOK:
		a.br.Success()
		a.span.SetAttr("hits", strconv.Itoa(len(res.hits)))
	case outcomeShed:
		a.br.Pushback()
	default:
		a.br.Failure(c.cfg.Clock.Now())
	}
	a.span.SetAttr("outcome", res.outcome)
	if res.detail != "" {
		a.span.SetAttr("error", res.detail)
	}
	out.attempts = append(out.attempts, replicaAttempt{
		replica: a.replica,
		outcome: res.outcome,
		detail:  res.detail,
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
		if h == nil {
			clk.Sleep(d)
		} else {
			h.SleepHeldPassive(d)
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
			if !br.ProbeDue(now) {
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
			if br.ProbeClose() {
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
