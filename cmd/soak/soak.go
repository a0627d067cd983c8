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

// soakOptions parameterize one soak run. The defaults are deliberately
// hostile: a district-granularity sweep throws 30 concurrent fetches at a
// server that admits 4 and queues 8, so every single round overloads the
// gate, while the fault schedule walks through error bursts and latency
// spikes day by day.
type soakOptions struct {
	Seed  uint64
	Terms int           // terms in the soak phase
	Wait  time.Duration // lock-step slot width

	MaxInflight int
	QueueDepth  int
	ServiceTime time.Duration
	// ServiceLatency is a WALL-clock sleep injected into every admitted
	// /search request (via the server's chaos middleware) so requests
	// genuinely occupy their admission slot for a while. Without it the
	// synthetic engine answers in microseconds and a 30-wide burst never
	// overlaps 12-deep in real time, so the gate would never shed. Wall
	// rather than virtual latency on purpose: a handler sleeping on the
	// campaign clock while its clients hold that clock would deadlock
	// the rig.
	ServiceLatency time.Duration

	Retries          int
	RetryBackoff     time.Duration
	BreakerThreshold int
	BreakerCooldown  time.Duration
	Deadline         time.Duration

	// ClusterShards > 0 runs the soak against the full sharded cluster
	// instead of a monolithic engine: a serprouter-style coordinator
	// scatter-gathering over that many in-process shard nodes, each
	// behind its own admission gate.
	//
	// With ClusterReplicas > 1 every shard runs that many replica nodes
	// and the fault is a replica-level outage: replica 0 of EVERY shard
	// goes dark (500s, /healthz included) from the start of the
	// error-burst day until two hours into the latency-spike day. The
	// soak then proves the replication tentpole: zero partial pages (every
	// leg fails over to a surviving replica), failovers and per-replica
	// breaker trips observed, and the background health prober — not
	// search traffic — re-admits all recovered replicas, balancing the
	// breaker ledger.
	//
	// With ClusterReplicas <= 1 the legacy single-replica chaos applies:
	// shard 0 suffers the outage for the error-burst day and the soak
	// proves graded degradation instead — pages during the outage are
	// partial, never errors, and no retrieval goes fully unavailable.
	ClusterShards   int
	ClusterReplicas int

	// ShedFractionBudget is the largest tolerated fraction of admission
	// decisions that ended in a shed (the "shed fraction within budget"
	// soak invariant).
	ShedFractionBudget float64
	// Watchdog is the wall-clock time after which a still-running soak is
	// declared deadlocked (the "no deadlock" invariant); 0 disables it.
	Watchdog time.Duration

	Logger *slog.Logger
	// TraceCapacity sizes the span ring when a trace artifact is wanted
	// (0 = no span recording).
	TraceCapacity int
}

func defaultSoakOptions() soakOptions {
	return soakOptions{
		Seed:           1,
		Terms:          4,
		Wait:           11 * time.Minute,
		MaxInflight:    4,
		QueueDepth:     8,
		ServiceTime:    500 * time.Millisecond,
		ServiceLatency: 10 * time.Millisecond,
		// 20 attempts with 1s linear backoff plus 45s breaker cooldowns
		// keeps the worst-case fetch under ~8 virtual minutes — inside
		// both the 10-minute deadline and the 11-minute slot, so faults
		// are recovered within the round they struck.
		Retries:            20,
		RetryBackoff:       time.Second,
		BreakerThreshold:   3,
		BreakerCooldown:    45 * time.Second,
		Deadline:           10 * time.Minute,
		ClusterReplicas:    2,
		ShedFractionBudget: 0.75,
		Watchdog:           4 * time.Minute,
	}
}

// soakProbeInterval is the background replica health-probe cadence in
// replicated cluster soaks. Probe instants land on five-minute marks plus
// the router's fixed half-second phase, disjoint from every request
// instant, so breaker re-admissions replay identically across same-seed
// runs.
const soakProbeInterval = 5 * time.Minute

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

	// Cluster-mode tallies (zero in monolith soaks).
	RouterRetrievals    uint64            // scatter-gather rounds issued
	RouterPartial       uint64            // rounds merged from fewer than all shards
	RouterUnavailable   uint64            // rounds where no shard contributed
	RouterOutcomes      map[string]uint64 // per-shard fan-out leg outcomes
	RouterBreakerOpen   uint64
	RouterBreakerClose  uint64
	RouterBreakerReopen uint64
	// Replication tallies (zero when ClusterReplicas <= 1).
	RouterReplicaOutcomes map[string]uint64 // per-replica attempt outcomes
	RouterFailovers       uint64            // replica attempts beyond a leg's first
	RouterProbes          map[string]uint64 // background health probes by outcome
	RouterReadmissions    uint64            // breakers re-closed by a probe

	// Cluster trace-stitching artifacts (cluster mode with TraceCapacity
	// only): the full stitched cross-process trace set, per-lane collection
	// errors, the trace IDs of every campaign observation and of the
	// post-campaign probes, and the probes' /clustertracez JSON and Chrome
	// exports — the bodies same-seed runs must reproduce byte-identically.
	ClusterTraces     []telemetry.StitchedTrace
	ClusterLaneErrors []string
	ObsTraceIDs       []string
	ProbeTraceIDs     []string
	ClusterTracezJSON []byte
	ClusterChrome     []byte
}

// runSoak executes the chaos soak: a virtual-time campaign against an
// in-process engine behind admission control, with the client-side fault
// schedule in soakPhases. It returns the summary plus an error naming
// every violated invariant.
func runSoak(opts soakOptions) (*soakSummary, error) {
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}

	if opts.Watchdog > 0 {
		// The no-deadlock invariant, enforced by construction: a soak
		// that outlives the watchdog in WALL time (virtual campaigns
		// finish in seconds) has wedged the clock/admission/retry
		// machinery, and the watchdog crashes the run so CI reports it
		// instead of hanging.
		finished := make(chan struct{})
		defer close(finished)
		fired := make(chan struct{})
		go func() {
			simclock.Wall().Sleep(opts.Watchdog)
			close(fired)
		}()
		go func() {
			select {
			case <-finished:
			case <-fired:
				panic(fmt.Sprintf("soak: wall-clock watchdog fired after %s — the rig deadlocked", opts.Watchdog))
			}
		}()
	}

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
	var handler *serpserver.Handler
	var ct *router.ClusterTracez
	if opts.ClusterShards > 0 {
		// Cluster topology: router + N shard nodes. Shard admission is
		// deliberately generous — the gate is in the serving chain (its
		// code path runs on every retrieval) but never queues or sheds,
		// because a shard shed would depend on wall-clock overlap of
		// concurrent fan-outs and break the byte-determinism invariant.
		// The tight 4/8 gate stays at the router, where sheds surface as
		// deterministic crawler retries.
		replicated := opts.ClusterReplicas > 1
		middleware := func(shard, replica int, next http.Handler) http.Handler {
			if replicated {
				// Replica-level fault: replica 0 of EVERY shard goes dark
				// for the outage window; its siblings keep serving.
				if replica != 0 {
					return next
				}
				return &replicaOutage{clk: clk, next: next}
			}
			// Legacy single-replica fault: shard 0 dark for day 1.
			if shard != 0 {
				return next
			}
			return &shardOutage{clk: clk, next: next}
		}
		probeInterval := time.Duration(0)
		if replicated {
			probeInterval = soakProbeInterval
		}
		cl := router.NewLocalCluster(router.ClusterConfig{
			Shards:   opts.ClusterShards,
			Replicas: opts.ClusterReplicas,
			Engine:   ecfg,
			Clock:    clk,
			ShardAdmission: serpserver.AdmissionConfig{
				MaxInflight: 64,
				QueueDepth:  64,
				ServiceTime: opts.ServiceTime,
				Clock:       clk,
			},
			ShardMiddleware:  middleware,
			BreakerThreshold: opts.BreakerThreshold,
			BreakerCooldown:  opts.BreakerCooldown,
			ProbeInterval:    probeInterval,
			// Shards record spans into rings of the same capacity as the
			// router's, so the post-campaign stitch can join every fan-out
			// leg with its shard-side server span.
			SpanCapacity: opts.TraceCapacity,
			Registry:     reg,
			RouterSpans:  spans,
		})
		// Stop is best-effort: a prober parked on the quiesced campaign
		// clock stays parked, which the rig accepts as a bounded leak.
		defer cl.StopProber()
		handler = cl.Handler
		if spans != nil {
			ct = router.NewClusterTracez(spans, cl.Client)
		}
	} else {
		eng := engine.NewCustom(ecfg, clk, engine.WithCorpus(corpus), engine.WithTelemetry(reg))
		var hopts []serpserver.HandlerOption
		if spans != nil {
			hopts = append(hopts, serpserver.WithSpans(spans))
		}
		handler = serpserver.NewHandler(eng, hopts...)
	}
	var inner http.Handler = handler
	if opts.ServiceLatency > 0 {
		inner = serpserver.WithChaos(serpserver.ChaosConfig{
			Seed:    opts.Seed,
			Latency: opts.ServiceLatency,
			Clock:   simclock.Wall(),
		}, handler)
	}
	root := serpserver.WithAdmission(serpserver.AdmissionConfig{
		MaxInflight: opts.MaxInflight,
		QueueDepth:  opts.QueueDepth,
		ServiceTime: opts.ServiceTime,
		Clock:       clk,
	}, handler, inner)
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
	ccfg.WaitBetweenTerms = opts.Wait
	ccfg.RetryAttempts = opts.Retries
	ccfg.RetryBackoff = opts.RetryBackoff
	ccfg.BreakerThreshold = opts.BreakerThreshold
	ccfg.BreakerCooldown = opts.BreakerCooldown
	ccfg.DeadlineBudget = opts.Deadline
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
		// District granularity: 15 vantages x (treatment + control) = 30
		// concurrent fetches per round against MaxInflight+QueueDepth
		// slots — sustained overload by design.
		Granularities: []geo.Granularity{geo.County},
		Days:          len(soakPhases(opts.Seed, clk)),
	}

	start := clk.Now()
	obs, err := cr.RunCampaignVirtual(clk, []crawler.Phase{phase})
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
	if opts.ClusterShards > 0 {
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
	}
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
	if ct != nil {
		for _, o := range obs {
			sum.ObsTraceIDs = append(sum.ObsTraceIDs, o.TraceID)
		}
		if err := collectClusterTraces(handler, ct, sum); err != nil {
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
	if sum.ShedFraction > opts.ShedFractionBudget {
		bad = append(bad, fmt.Sprintf("shed fraction %.3f above budget %.3f", sum.ShedFraction, opts.ShedFractionBudget))
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
	if opts.ClusterShards > 0 && opts.ClusterReplicas > 1 {
		// Replication: with every shard keeping a healthy sibling through
		// the replica-0 outage, NOT ONE page may degrade — every leg must
		// fail over — and the recovered replicas must be re-admitted by the
		// background health prober, balancing the breaker ledger.
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
			bad = append(bad, clusterTraceViolations(opts, sum)...)
		}
	} else if opts.ClusterShards > 0 {
		// Graded degradation: the shard-0 outage day must surface as
		// partial pages — never as unavailability — and the router's
		// breaker ledger must balance once the shard heals.
		if sum.RouterPartial == 0 {
			bad = append(bad, "no retrieval went partial despite the shard-outage day")
		}
		if sum.RouterPartial >= sum.RouterRetrievals {
			bad = append(bad, fmt.Sprintf("degradation unbounded: %d of %d retrievals partial (healthy days must merge complete)", sum.RouterPartial, sum.RouterRetrievals))
		}
		if sum.RouterUnavailable != 0 {
			bad = append(bad, fmt.Sprintf("%d retrievals found no shard at all (want 0: healthy shards must keep answering)", sum.RouterUnavailable))
		}
		if sum.RouterOutcomes["ok"] == 0 || sum.RouterOutcomes["error"] == 0 || sum.RouterOutcomes["breaker_open"] == 0 {
			bad = append(bad, fmt.Sprintf("shard fan-out outcome mix degenerate: %v (want ok, error, and breaker_open all exercised)", sum.RouterOutcomes))
		}
		if sum.RouterBreakerOpen == 0 {
			bad = append(bad, "router breaker never tripped despite the shard-outage day")
		}
		if sum.RouterBreakerOpen != sum.RouterBreakerClose {
			bad = append(bad, fmt.Sprintf("router breaker ledger unbalanced: %d opens vs %d closes (%d reopens)", sum.RouterBreakerOpen, sum.RouterBreakerClose, sum.RouterBreakerReopen))
		}
		if opts.TraceCapacity > 0 {
			bad = append(bad, clusterTraceViolations(opts, sum)...)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("soak: %d invariant(s) violated:\n  - %s", len(bad), strings.Join(bad, "\n  - "))
	}
	return nil
}

// shedQueueFullLabel mirrors the serpserver's queue_full shed reason; kept
// as a local constant so the soak binary states its expectation explicitly.
const shedQueueFullLabel = "queue_full"

// shardOutage kills one shard's retrieval for the whole error-burst
// virtual day (day 1 of the fault schedule): every /shard/search answers
// 500 while the day lasts, then the shard heals on its own. The outage is
// a pure function of the campaign clock, so same-seed runs degrade — and
// recover — identically. Operability endpoints stay up; only retrieval
// goes dark, exactly like a node whose index wedged.
type shardOutage struct {
	clk  simclock.Clock
	next http.Handler
}

func (s *shardOutage) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	day := int(s.clk.Now().Sub(soakEpoch) / (24 * time.Hour))
	if day == 1 && r.URL.Path == router.SearchPath {
		http.Error(w, "soak: injected shard outage", http.StatusInternalServerError)
		return
	}
	s.next.ServeHTTP(w, r)
}

// Replica-outage window for replicated cluster soaks: replica 0 of every
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
// not merely degraded — then the replica heals on its own. Like
// shardOutage, the fault is a pure function of the campaign clock, so
// same-seed runs degrade and recover identically.
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
