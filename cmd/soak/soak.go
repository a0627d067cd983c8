package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"geoserp/internal/analysis"
	"geoserp/internal/browser"
	"geoserp/internal/crawler"
	"geoserp/internal/engine"
	"geoserp/internal/geo"
	"geoserp/internal/queries"
	"geoserp/internal/router"
	"geoserp/internal/serpserver"
	"geoserp/internal/simclock"
	"geoserp/internal/statz"
	"geoserp/internal/storage"
	"geoserp/internal/telemetry"
)

// soakOptions parameterize one soak run; the schedule itself is fixed
// (see the constants below).
type soakOptions struct {
	Seed  uint64
	Terms int // terms in the soak phase

	Logger *slog.Logger
	// TraceCapacity sizes the span rings when spans are wanted (0 = no
	// span recording, and no stitched-trace invariants).
	TraceCapacity int
}

// The soak's schedule, tuned together. It is deliberately hostile: a
// county-granularity sweep throws 30 concurrent fetches at a router that
// admits 4 and queues 8, so every round overloads the gate, while the
// fault schedule walks through error bursts and latency spikes day by day
// and the replica-outage window darkens half the cluster.
const (
	// slotWidth is the lock-step slot between terms. It outlasts the
	// worst-case fetch (see retries), so every fault is recovered inside
	// the round it struck and no slot is dropped.
	slotWidth = 11 * time.Minute

	// gateInflight and gateQueue bound the router's admission gate: 12
	// slots against 30-wide rounds keep it shedding on a full queue every
	// round. serviceTime is the per-request estimate behind the
	// Retry-After hints of that gate and of the shards' gates.
	gateInflight = 4
	gateQueue    = 8
	serviceTime  = 500 * time.Millisecond

	// serviceLatency is a WALL-clock sleep injected into every admitted
	// /search request (via the server's chaos middleware) so requests
	// genuinely occupy their admission slot for a while. Without it the
	// synthetic engine answers in microseconds and a 30-wide burst never
	// overlaps 12-deep in real time, so the gate would never shed. Wall
	// rather than virtual latency on purpose: a handler sleeping on the
	// campaign clock while its clients hold that clock would deadlock the
	// rig.
	serviceLatency = 10 * time.Millisecond

	// 20 attempts with 1 s linear backoff plus 45 s breaker cooldowns
	// (after 3 consecutive failures) keep the worst-case fetch under ~8
	// virtual minutes — inside both the 10-minute deadline and the
	// 11-minute slot. The router's per-replica breakers share the
	// threshold and cooldown.
	retries          = 20
	retryBackoff     = time.Second
	breakerThreshold = 3
	breakerCooldown  = 45 * time.Second
	fetchDeadline    = 10 * time.Minute

	// shedFractionBudget is the largest tolerated fraction of admission
	// decisions that end in a shed; the gate sheds about 0.4 of them, a
	// share that rides wall-clock overlap. watchdog is the wall-clock time
	// after which a still-running soak counts as deadlocked: a virtual
	// campaign finishes in seconds, even under -race.
	shedFractionBudget = 0.75
	watchdog           = 4 * time.Minute

	// The topology: every shard keeps a healthy sibling through the
	// replica-0 outage, so failover must absorb it. probeInterval is the
	// background replica health-probe cadence; probe instants land on
	// five-minute marks plus the router's fixed half-second phase,
	// disjoint from every request instant, so breaker re-admissions
	// replay identically across same-seed runs.
	shards        = 3
	replicas      = 2
	probeInterval = 5 * time.Minute
)

// soakEpoch anchors the virtual campaign; one day per fault phase.
var soakEpoch = time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)

// soakPhases is the seeded multi-phase fault schedule, one entry per
// virtual day: a calm baseline, an error burst that trips circuit
// breakers, a latency spike, and a final calm day that proves every
// breaker re-closes once the faults clear.
func soakPhases(seed uint64, clk simclock.Clock) []browser.ChaosConfig {
	return []browser.ChaosConfig{
		{}, // day 0: calm — overload only
		{Seed: seed, ErrorRate: 0.3, ServerErrorRate: 0.3, Clock: clk}, // day 1: error burst
		{Seed: seed, Latency: 3 * time.Second, Clock: clk},             // day 2: latency spike
		{}, // day 3: calm — recovery
	}
}

// phasedTransport switches between per-day chaos transports on the virtual
// clock, modelling a fault landscape that changes over the campaign.
type phasedTransport struct {
	clk    simclock.Clock
	epoch  time.Time
	phases []http.RoundTripper
}

func newPhasedTransport(seed uint64, clk simclock.Clock) *phasedTransport {
	base := &http.Transport{}
	cfgs := soakPhases(seed, clk)
	phases := make([]http.RoundTripper, len(cfgs))
	for i, cfg := range cfgs {
		if cfg == (browser.ChaosConfig{}) {
			phases[i] = base
			continue
		}
		phases[i] = browser.NewChaosTransport(cfg, base)
	}
	return &phasedTransport{clk: clk, epoch: soakEpoch, phases: phases}
}

func (p *phasedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	day := int(p.clk.Now().Sub(p.epoch) / (24 * time.Hour))
	if day < 0 {
		day = 0
	}
	if day >= len(p.phases) {
		day = len(p.phases) - 1
	}
	return p.phases[day].RoundTrip(req)
}

// injected sums the faults every phase transport injected.
func (p *phasedTransport) injected() uint64 {
	var n uint64
	for _, rt := range p.phases {
		if ct, ok := rt.(*browser.ChaosTransport); ok {
			n += ct.Injected()
		}
	}
	return n
}

// soakSummary is what one run measured; JSONL holds the campaign's
// observations exactly as cmd/crawl would have written them, the payload
// the determinism test byte-compares across same-seed runs.
type soakSummary struct {
	Observations  int
	FailedObs     int
	ShedObs       int
	Admitted      uint64
	ShedByReason  map[string]uint64
	ShedFraction  float64
	BreakerOpen   uint64
	BreakerReopen uint64
	BreakerClose  uint64
	FaultsDrawn   uint64
	Retries       uint64
	VirtualTime   time.Duration
	JSONL         []byte
	Spans         *telemetry.SpanRecorder
	// StatzJSON is the final /statz snapshot — like JSONL, it must be
	// byte-identical across same-seed runs.
	StatzJSON []byte
	// StatzPolls / StatzPollErrors tally the wall-clock goroutine that
	// hammered the live /statz endpoint while the campaign ran; the
	// invariants demand it was exercised and never served garbage.
	StatzPolls      uint64
	StatzPollErrors uint64
	// ParityViolation is non-empty when the live scorecard diverged from
	// the replay of the same observations (analysis.NewDataset).
	ParityViolation string

	// Router tallies.
	RouterRetrievals    uint64            // scatter-gather rounds issued
	RouterPartial       uint64            // rounds merged from fewer than all shards
	RouterUnavailable   uint64            // rounds where no shard contributed
	RouterOutcomes      map[string]uint64 // per-shard fan-out leg outcomes
	RouterBreakerOpen   uint64
	RouterBreakerClose  uint64
	RouterBreakerReopen uint64
	// Replication tallies.
	RouterReplicaOutcomes map[string]uint64 // per-replica attempt outcomes
	RouterFailovers       uint64            // replica attempts beyond a leg's first
	RouterProbes          map[string]uint64 // background health probes by outcome
	RouterReadmissions    uint64            // breakers re-closed by a probe

	// Cluster trace-stitching artifacts (with TraceCapacity only): the full
	// stitched cross-process trace set, per-lane collection errors, the
	// trace IDs of every campaign observation and of the post-campaign
	// probes, and the probes' /clustertracez JSON and Chrome exports — the
	// bodies same-seed runs must reproduce byte-identically.
	ClusterTraces     []telemetry.StitchedTrace
	ClusterLaneErrors []string
	ObsTraceIDs       []string
	ProbeTraceIDs     []string
	ClusterTracezJSON []byte
	ClusterChrome     []byte
}

// runSoak executes the chaos soak: a virtual-time campaign against the
// in-process replicated cluster behind admission control, with the
// client-side fault schedule in soakPhases and the replica-outage window
// on the shards. It returns the summary plus an error naming every
// violated invariant.
func runSoak(opts soakOptions) (*soakSummary, error) {
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}

	// The no-deadlock invariant, enforced by construction: a soak that
	// outlives the watchdog in WALL time has wedged the
	// clock/admission/retry machinery, and the watchdog crashes the run so
	// CI reports it instead of hanging.
	finished := make(chan struct{})
	defer close(finished)
	fired := make(chan struct{})
	go func() {
		simclock.Wall().Sleep(watchdog)
		close(fired)
	}()
	go func() {
		select {
		case <-finished:
		case <-fired:
			panic(fmt.Sprintf("soak: wall-clock watchdog fired after %s — the rig deadlocked", watchdog))
		}
	}()

	clk := simclock.NewManual(soakEpoch)
	reg := telemetry.NewRegistry()
	corpus := queries.StudyCorpus()

	var spans *telemetry.SpanRecorder
	if opts.TraceCapacity > 0 {
		spans = telemetry.NewSpanRecorder(opts.TraceCapacity, clk)
	}

	ecfg := engine.DefaultConfig()
	if opts.Seed != 0 {
		ecfg.Seed = opts.Seed
	}
	// Shard admission is deliberately generous — the gate is in the
	// serving chain (its code path runs on every retrieval) but never
	// queues or sheds, because a shard shed would depend on wall-clock
	// overlap of concurrent fan-outs and break the byte-determinism
	// invariant. The tight gate stays at the router, where sheds surface
	// as deterministic crawler retries.
	cl := router.NewLocalCluster(router.ClusterConfig{
		Shards:   shards,
		Replicas: replicas,
		Engine:   ecfg,
		Clock:    clk,
		ShardAdmission: serpserver.AdmissionConfig{
			MaxInflight: 64,
			QueueDepth:  64,
			ServiceTime: serviceTime,
			Clock:       clk,
		},
		// Replica 0 of EVERY shard goes dark for the outage window; its
		// siblings keep serving.
		ShardMiddleware: func(shard, replica int, next http.Handler) http.Handler {
			if replica != 0 {
				return next
			}
			return &replicaOutage{clk: clk, next: next}
		},
		BreakerThreshold: breakerThreshold,
		BreakerCooldown:  breakerCooldown,
		ProbeInterval:    probeInterval,
		// Shards record spans into rings of the same capacity as the
		// router's, so the post-campaign stitch can join every fan-out
		// leg with its shard-side server span.
		SpanCapacity: opts.TraceCapacity,
		Registry:     reg,
		RouterSpans:  spans,
	})
	// Stop is best-effort: a prober parked on the quiesced campaign clock
	// stays parked, which the rig accepts as a bounded leak.
	defer cl.StopProber()
	inner := serpserver.WithChaos(serpserver.ChaosConfig{
		Seed:    opts.Seed,
		Latency: serviceLatency,
		Clock:   simclock.Wall(),
	}, cl.Handler)
	root := serpserver.WithAdmission(serpserver.AdmissionConfig{
		MaxInflight: gateInflight,
		QueueDepth:  gateQueue,
		ServiceTime: serviceTime,
		Clock:       clk,
	}, cl.Handler, inner)
	srv, err := serpserver.Listen("127.0.0.1:0", root)
	if err != nil {
		return nil, err
	}
	srv.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	transport := newPhasedTransport(opts.Seed, clk)
	ccfg := crawler.DefaultConfig()
	ccfg.WaitBetweenTerms = slotWidth
	ccfg.RetryAttempts = retries
	ccfg.RetryBackoff = retryBackoff
	ccfg.BreakerThreshold = breakerThreshold
	ccfg.BreakerCooldown = breakerCooldown
	ccfg.DeadlineBudget = fetchDeadline
	// Fail-soft budgets so a pathological round is recorded rather than
	// aborting the soak; the invariants below still demand zero terminal
	// failures.
	ccfg.FailureBudget = 0.25
	ccfg.ShedBudget = 0.5
	cr, err := crawler.New(ccfg, clk, srv.URL(), geo.StudyDataset(), corpus)
	if err != nil {
		return nil, err
	}
	cr.Logger, cr.Telemetry, cr.Spans, cr.Transport = logger, reg, spans, transport

	// The live audit surface rides along on every soak: the streaming
	// aggregator ingests sweeps as the crawler's sink while a wall-clock
	// goroutine hammers /statz concurrently, so the endpoint is exercised
	// under overload and under -race.
	stream := analysis.NewStream(
		analysis.WithDriftThreshold(0.5),
		analysis.WithStreamTelemetry(reg),
		analysis.WithStreamSpans(spans),
	)
	srec := statz.NewRecorder(stream, statz.WithProgress(cr.ProgressState))
	cr.Sink = srec
	statzSrv, err := serpserver.Listen("127.0.0.1:0", statz.Mux(srec, clk.Now, reg, spans))
	if err != nil {
		return nil, fmt.Errorf("soak: statz listen: %w", err)
	}
	statzSrv.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		statzSrv.Shutdown(ctx)
	}()

	var statzPolls, statzPollErrs atomic.Uint64
	pollStop := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		for {
			select {
			case <-pollStop:
				return
			default:
			}
			statzPolls.Add(1)
			resp, perr := http.Get(statzSrv.URL() + "/statz")
			if perr != nil {
				statzPollErrs.Add(1)
			} else {
				var snap statz.Snapshot
				if derr := json.NewDecoder(resp.Body).Decode(&snap); derr != nil {
					statzPollErrs.Add(1)
				}
				resp.Body.Close()
			}
			simclock.Wall().Sleep(5 * time.Millisecond)
		}
	}()

	terms := corpus.Category(queries.Local)
	if opts.Terms > 0 && len(terms) > opts.Terms {
		terms = terms[:opts.Terms]
	}
	phase := crawler.Phase{
		Name:  "soak",
		Terms: terms,
		// County granularity: 15 vantages x (treatment + control) = 30
		// concurrent fetches per round against gateInflight+gateQueue
		// slots — sustained overload by design.
		Granularities: []geo.Granularity{geo.County},
		Days:          len(soakPhases(opts.Seed, clk)),
	}

	start := clk.Now()
	obs, err := cr.RunCampaign(context.Background(), []crawler.Phase{phase})
	close(pollStop)
	pollWG.Wait()
	if err != nil {
		return nil, fmt.Errorf("soak: campaign: %w", err)
	}

	sum := &soakSummary{
		Observations: len(obs),
		Admitted:     reg.Counter("serpd_admission_admitted_total", "").Value(),
		ShedByReason: reg.CounterVec("serpd_admission_shed_total", "", "reason").Values(),
		FaultsDrawn:  transport.injected(),
		Retries:      reg.Counter("browser_retries_total", "").Value(),
		VirtualTime:  clk.Now().Sub(start),
		Spans:        spans,
	}
	for _, o := range obs {
		if o.Failed {
			sum.FailedObs++
		}
		if o.Shed {
			sum.ShedObs++
		}
	}
	breakers := reg.CounterVec("browser_breaker_transitions_total", "", "transition").Values()
	sum.BreakerOpen = breakers["open"]
	sum.BreakerReopen = breakers["reopen"]
	sum.BreakerClose = breakers["close"]
	sum.RouterRetrievals = reg.Counter("router_retrievals_total", "").Value()
	sum.RouterPartial = reg.Counter("router_partial_results_total", "").Value()
	sum.RouterUnavailable = reg.Counter("router_unavailable_total", "").Value()
	sum.RouterOutcomes = reg.CounterVec("router_shard_requests_total", "", "outcome").Values()
	rb := reg.CounterVec("router_breaker_transitions_total", "", "event").Values()
	sum.RouterBreakerOpen = rb["open"]
	sum.RouterBreakerReopen = rb["reopen"]
	sum.RouterBreakerClose = rb["close"]
	sum.RouterReplicaOutcomes = reg.CounterVec("router_replica_requests_total", "", "outcome").Values()
	sum.RouterFailovers = reg.Counter("router_replica_failovers_total", "").Value()
	sum.RouterProbes = reg.CounterVec("router_replica_probes_total", "", "outcome").Values()
	sum.RouterReadmissions = reg.Counter("router_replica_readmissions_total", "").Value()
	var shedTotal uint64
	for _, n := range sum.ShedByReason {
		shedTotal += n
	}
	if decisions := sum.Admitted + shedTotal; decisions > 0 {
		sum.ShedFraction = float64(shedTotal) / float64(decisions)
	}
	var buf bytes.Buffer
	if err := storage.WriteJSONL(&buf, obs); err != nil {
		return nil, fmt.Errorf("soak: encode observations: %w", err)
	}
	sum.JSONL = buf.Bytes()

	sum.StatzPolls = statzPolls.Load()
	sum.StatzPollErrors = statzPollErrs.Load()
	sum.StatzJSON, err = srec.SnapshotJSON(clk.Now())
	if err != nil {
		return nil, fmt.Errorf("soak: statz snapshot: %w", err)
	}
	// Live/replay parity: the scorecard aggregated sweep-by-sweep in crawl
	// order while the campaign ran must equal the replay of the final
	// observations exactly.
	if ds, derr := analysis.NewDataset(obs); derr != nil {
		sum.ParityViolation = fmt.Sprintf("batch dataset: %v", derr)
	} else if batch, live := ds.Scorecard(), stream.Scorecard(); !reflect.DeepEqual(batch, live) {
		sum.ParityViolation = fmt.Sprintf("streaming scorecard diverged from batch: %v vs %v", live, batch)
	}

	// Cluster trace stitching: probe the quiesced cluster, then drain and
	// stitch every node's span ring for the completeness, attribution, and
	// byte-identity invariants.
	if spans != nil {
		for _, o := range obs {
			sum.ObsTraceIDs = append(sum.ObsTraceIDs, o.TraceID)
		}
		if err := collectClusterTraces(cl.Handler, router.NewClusterTracez(spans, cl.Client), sum); err != nil {
			return nil, err
		}
	}

	return sum, checkInvariants(opts, sum)
}

// checkInvariants validates the soak's postconditions, returning one error
// naming every violation (nil when the run held up).
func checkInvariants(opts soakOptions, sum *soakSummary) error {
	var bad []string
	vantages := len(geo.StudyDataset().At(geo.County))
	expected := opts.Terms * vantages * 2 * len(soakPhases(opts.Seed, nil))
	if sum.Observations != expected {
		bad = append(bad, fmt.Sprintf("observations: got %d, want %d (no slot may be dropped)", sum.Observations, expected))
	}
	if sum.FailedObs != 0 || sum.ShedObs != 0 {
		// Shed-exempt retries must drain every overload wave and the
		// retry budget must outlast every fault phase; a terminal failure
		// means recovery machinery gave up inside a round.
		bad = append(bad, fmt.Sprintf("terminal failures: %d failed, %d shed observations (want 0/0)", sum.FailedObs, sum.ShedObs))
	}
	if shedTotal := sum.ShedByReason[shedQueueFullLabel]; shedTotal == 0 {
		bad = append(bad, "admission gate never shed on a full queue despite sustained overload")
	}
	if sum.ShedFraction > shedFractionBudget {
		bad = append(bad, fmt.Sprintf("shed fraction %.3f above budget %.3f", sum.ShedFraction, shedFractionBudget))
	}
	if sum.BreakerOpen == 0 {
		bad = append(bad, "no breaker ever opened despite the error-burst day")
	}
	if sum.BreakerOpen != sum.BreakerClose {
		// Every trip must be matched by a re-close once faults clear
		// (reopens are half-open probe failures, counted separately, so
		// the trip/close ledger balances exactly at quiescence).
		bad = append(bad, fmt.Sprintf("breaker ledger unbalanced: %d opens vs %d closes (%d reopens)", sum.BreakerOpen, sum.BreakerClose, sum.BreakerReopen))
	}
	if sum.FaultsDrawn == 0 {
		bad = append(bad, "fault schedule injected nothing — the soak tested fair weather")
	}
	if sum.StatzPolls == 0 {
		bad = append(bad, "live /statz endpoint was never polled — the audit surface went untested")
	}
	if sum.StatzPollErrors > 0 {
		bad = append(bad, fmt.Sprintf("live /statz served unparseable responses: %d of %d polls", sum.StatzPollErrors, sum.StatzPolls))
	}
	if sum.ParityViolation != "" {
		bad = append(bad, fmt.Sprintf("streaming/batch parity: %s", sum.ParityViolation))
	}
	// Replication: with every shard keeping a healthy sibling through the
	// replica-0 outage, NOT ONE page may degrade — every leg must fail over
	// — and the recovered replicas must be re-admitted by the background
	// health prober, balancing the breaker ledger.
	if sum.RouterPartial != 0 {
		bad = append(bad, fmt.Sprintf("%d retrievals went partial despite a surviving replica per shard (want 0: failover must absorb the outage)", sum.RouterPartial))
	}
	if sum.RouterUnavailable != 0 {
		bad = append(bad, fmt.Sprintf("%d retrievals found no shard at all (want 0)", sum.RouterUnavailable))
	}
	legOutcomes := make([]string, 0, len(sum.RouterOutcomes))
	for outcome := range sum.RouterOutcomes {
		legOutcomes = append(legOutcomes, outcome)
	}
	sort.Strings(legOutcomes)
	for _, outcome := range legOutcomes {
		if outcome != "ok" {
			bad = append(bad, fmt.Sprintf("fan-out leg outcome %q observed (want every leg ok via failover): %v", outcome, sum.RouterOutcomes))
		}
	}
	if sum.RouterReplicaOutcomes["ok"] == 0 || sum.RouterReplicaOutcomes["error"] == 0 || sum.RouterReplicaOutcomes["breaker_open"] == 0 {
		bad = append(bad, fmt.Sprintf("replica attempt outcome mix degenerate: %v (want ok, error, and breaker_open all exercised)", sum.RouterReplicaOutcomes))
	}
	if sum.RouterFailovers == 0 {
		bad = append(bad, "no leg ever failed over despite the replica-outage window")
	}
	if sum.RouterBreakerOpen == 0 {
		bad = append(bad, "no replica breaker ever tripped despite the replica-outage window")
	}
	if sum.RouterBreakerOpen != sum.RouterBreakerClose {
		bad = append(bad, fmt.Sprintf("replica breaker ledger unbalanced: %d opens vs %d closes (%d reopens)", sum.RouterBreakerOpen, sum.RouterBreakerClose, sum.RouterBreakerReopen))
	}
	if sum.RouterProbes["error"] == 0 {
		bad = append(bad, "the health prober never observed the outage (no failed probes)")
	}
	if sum.RouterReadmissions == 0 {
		bad = append(bad, "no replica was re-admitted by a health probe — recovery leaned on search traffic")
	}
	if opts.TraceCapacity > 0 {
		bad = append(bad, clusterTraceViolations(sum)...)
	}

	if len(bad) > 0 {
		return fmt.Errorf("soak: %d invariant(s) violated:\n  - %s", len(bad), strings.Join(bad, "\n  - "))
	}
	return nil
}

// shedQueueFullLabel mirrors the serpserver's queue_full shed reason; kept
// as a local constant so the soak binary states its expectation explicitly.
const shedQueueFullLabel = "queue_full"

// The replica-outage window: replica 0 of every
// shard is dark from the start of the error-burst day until two hours into
// the latency-spike day. Ending off the day boundary — and off the
// crawler's 11-minute round grid — guarantees the first actor to find the
// replicas healthy again is the background health prober (its 5-minute
// probe ticks land on the window's end instant plus the fixed half-second
// phase, minutes before the next search round), so the soak proves
// probe-driven re-admission rather than traffic-driven half-open recovery.
const (
	replicaOutageStart = 24 * time.Hour
	replicaOutageEnd   = 50 * time.Hour
)

// inReplicaOutage reports whether t falls inside the replica-outage window.
func inReplicaOutage(t time.Time) bool {
	d := t.Sub(soakEpoch)
	return d >= replicaOutageStart && d < replicaOutageEnd
}

// replicaOutage kills one replica node for the outage window: retrieval
// AND /healthz answer 500 — a probing router must see the node as down,
// not merely degraded — then the replica heals on its own. The fault is a
// pure function of the campaign clock, so same-seed runs degrade and
// recover identically.
type replicaOutage struct {
	clk  simclock.Clock
	next http.Handler
}

func (s *replicaOutage) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if inReplicaOutage(s.clk.Now()) && (r.URL.Path == router.SearchPath || r.URL.Path == "/healthz") {
		http.Error(w, "soak: injected replica outage", http.StatusInternalServerError)
		return
	}
	s.next.ServeHTTP(w, r)
}
