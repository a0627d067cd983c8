package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"geoserp/internal/analysis"
	"geoserp/internal/crawler"
	"geoserp/internal/detrand"
	"geoserp/internal/engine"
	"geoserp/internal/geo"
	"geoserp/internal/httpheader"
	"geoserp/internal/queries"
	"geoserp/internal/serp"
	"geoserp/internal/serpserver"
	"geoserp/internal/simclock"
	"geoserp/internal/storage"
	"geoserp/internal/telemetry"
)

// The scaled campaign: 8 terms per category, both phases, every
// granularity, 2 days — 144 lock-step sweeps and 5,664 fetches.
const (
	campaignTermsPerCategory = 8
	campaignDays             = 2
)

// campaignEpoch is the virtual day 0, the season of the paper's crawl.
var campaignEpoch = time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)

// campaignRig is the serpd-style server behind the admission gate, on the
// campaign's virtual clock.
type campaignRig struct {
	clk       *simclock.Manual
	srv       *serpserver.Server
	reg       *telemetry.Registry
	phases    []crawler.Phase
	ccfg      crawler.Config
	transport *http.Transport
	tr        *tracer
}

// campaignPlan is the scaled study campaign — the first 8 terms of each
// category, as the study's ScaledPhases(8, 2) takes them, so every seed
// costs the same — with the seed drawing the phase names (and so every
// trace ID the crawler mints, and with it every noise draw) and the crawl
// machines' subnet.
func campaignPlan(seed uint64) ([]crawler.Phase, string) {
	corpus := queries.StudyCorpus()
	take := func(c queries.Category) []queries.Query {
		return append([]queries.Query(nil), corpus.Category(c)[:campaignTermsPerCategory]...)
	}
	suffix := "-" + strconv.FormatUint(seed, 10)
	lc := append(take(queries.Local), take(queries.Controversial)...)
	rng := detrand.NewKeyed(seed, "perfbench.subnet")
	return []crawler.Phase{
		{Name: "local+controversial" + suffix, Terms: lc, Granularities: geo.Granularities, Days: campaignDays},
		{Name: "politicians" + suffix, Terms: take(queries.Politician), Granularities: geo.Granularities, Days: campaignDays},
	}, fmt.Sprintf("10.%d.%d", 1+rng.Intn(250), 1+rng.Intn(250))
}

// campaignTerms is every term the plan queries.
func campaignTerms(phases []crawler.Phase) []queries.Query {
	var out []queries.Query
	for _, p := range phases {
		out = append(out, p.Terms...)
	}
	return out
}

func setupCampaign(seed uint64, tr *tracer) (*campaignRig, error) {
	phases, subnet := campaignPlan(seed)
	clk := simclock.NewManual(campaignEpoch)
	eng := engine.New(benchEngineConfig(), clk)
	s, err := newRequestStream(seed, campaignTerms(phases))
	if err != nil {
		return nil, err
	}
	if err := warmEngine(eng, s); err != nil {
		return nil, err
	}
	// The queue holds a whole sweep (44 fetches at most), so the gate
	// queues the burst and never sheds it.
	adm := serpserver.AdmissionConfig{MaxInflight: runtime.NumCPU(), QueueDepth: 128, Clock: clk}
	plain := serpserver.NewHandler(eng)
	traced := serpserver.NewHandler(eng, serpserver.WithWideEvents(slog.New(wideSink{tr})))
	root := modeSwitch{tr: tr,
		plain: serpserver.WithAdmission(adm, plain, plain),
		traced: tr.timed(spanAdmission, spanFetch,
			serpserver.WithAdmission(adm, traced, tr.timed(spanHandler, spanAdmission, traced))),
	}
	srv, err := listen(root)
	if err != nil {
		return nil, err
	}
	ccfg := crawler.DefaultConfig()
	ccfg.Subnet = subnet
	// Record failures and sheds as observations instead of aborting, so
	// they are counted; the checks demand zero of both.
	ccfg.FailureBudget, ccfg.ShedBudget = 1, 1
	return &campaignRig{clk: clk, srv: srv, reg: eng.Telemetry(), phases: phases, ccfg: ccfg, tr: tr,
		transport: &http.Transport{MaxIdleConns: 128, MaxIdleConnsPerHost: 128}}, nil
}

func (r *campaignRig) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = r.srv.Shutdown(ctx) // the rig is discarded either way
	r.transport.CloseIdleConnections()
}

// fetchTransport is the crawler's Transport: it times every fetch from
// request to last body byte, tracks the current sweep's fetches for the
// Sink, and records browser.fetch spans while tracing.
type fetchTransport struct {
	next   http.RoundTripper
	tr     *tracer
	traced bool

	mu         sync.Mutex
	sweepStart time.Time       // first fetch of the current sweep; zero before it
	sweep      []time.Duration // the current sweep's fetches
	fetches    []time.Duration
	attempts   int
	bytes      int64
}

func (f *fetchTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t0 := wall.Now()
	f.mu.Lock()
	f.attempts++
	if f.sweepStart.IsZero() {
		f.sweepStart = t0
	}
	f.mu.Unlock()
	resp, err := f.next.RoundTrip(r)
	if err != nil {
		f.done(r, t0, 0)
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, f: f, req: r, start: t0}
	return resp, nil
}

func (f *fetchTransport) done(r *http.Request, t0 time.Time, n int) {
	t1 := wall.Now()
	d := t1.Sub(t0)
	f.mu.Lock()
	f.fetches = append(f.fetches, d)
	f.sweep = append(f.sweep, d)
	f.bytes += int64(n)
	f.mu.Unlock()
	if f.traced {
		f.tr.record(span{name: spanFetch, req: r.Header.Get(httpheader.TraceID),
			start: t0.Sub(f.tr.origin), end: t1.Sub(f.tr.origin), shard: -1, bytes: n})
	}
}

// takeSweep returns the current sweep's start and fetch times and opens
// the next sweep.
func (f *fetchTransport) takeSweep() (time.Time, []time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	start, sweep := f.sweepStart, f.sweep
	f.sweepStart, f.sweep = time.Time{}, nil
	return start, sweep
}

// timedBody ends its fetch's timing at the last body byte (or at Close,
// for a body abandoned early).
type timedBody struct {
	io.ReadCloser
	f        *fetchTransport
	req      *http.Request
	start    time.Time
	n        int
	finished bool
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += n
	if err == io.EOF && !b.finished {
		b.finished = true
		b.f.done(b.req, b.start, b.n)
	}
	return n, err
}

func (b *timedBody) Close() error {
	if !b.finished {
		b.finished = true
		b.f.done(b.req, b.start, b.n)
	}
	return b.ReadCloser.Close()
}

// timedSink is the crawler's Sink: it closes each sweep's wall time and
// straggler gap, then feeds the sweep to the streaming analysis.
type timedSink struct {
	stream *analysis.Stream
	ft     *fetchTransport
	tr     *tracer
	traced bool

	sweeps, stragglers, ingest []time.Duration
	err                        error
}

func (s *timedSink) ObserveSweep(info crawler.SweepInfo, obs []storage.Observation) {
	end := wall.Now()
	start, fetches := s.ft.takeSweep()
	if !start.IsZero() {
		s.sweeps = append(s.sweeps, end.Sub(start))
	}
	if len(fetches) > 0 {
		sort.Slice(fetches, func(i, j int) bool { return fetches[i] < fetches[j] })
		s.stragglers = append(s.stragglers, fetches[len(fetches)-1]-fetches[rank(len(fetches), 0.5)])
	}
	t0 := wall.Now()
	err := s.stream.IngestSweep(info.At, obs)
	t1 := wall.Now()
	s.ingest = append(s.ingest, t1.Sub(t0))
	if err != nil && s.err == nil {
		s.err = err
	}
	if s.traced && !start.IsZero() {
		req := "sweep-" + strconv.Itoa(info.Sweep)
		s.tr.record(span{name: spanSweep, req: req, start: start.Sub(s.tr.origin), end: end.Sub(s.tr.origin), shard: -1})
		s.tr.record(span{name: spanIngest, parent: spanSweep, req: req, start: t0.Sub(s.tr.origin), end: t1.Sub(s.tr.origin), shard: -1})
	}
}

// campaignRun is one campaign and its analysis pipeline.
type campaignRun struct {
	obs                                    int
	ok, failed, shed                       int
	crawl                                  time.Duration
	speed                                  float64 // host speed factor around the crawl
	fetches, sweeps, stragglers, ingest    []time.Duration
	attempts                               int
	bytes                                  int64
	write, read, dataset, figures, analyze time.Duration
	pairs                                  uint64
	digest                                 uint64
	analyzed                               bool // the pipeline ran; the next three hold
	parityOK, jsonlOK, figuresOK, ingestOK bool
	pages                                  [][]byte // first pages, re-rendered, for the replays
}

// runOnce crawls the plan once on the rig's clock and, with analyze set,
// runs the crawl→analyze pipeline on the output: WriteJSONL, ReadJSONL,
// NewDataset, Figures 2–8, and the scorecard. Checks run after timing.
func (r *campaignRig) runOnce(traced, analyze, keepPages bool) (*campaignRun, error) {
	ft := &fetchTransport{next: r.transport, tr: r.tr, traced: traced}
	stream := analysis.NewStream()
	sink := &timedSink{stream: stream, ft: ft, tr: r.tr, traced: traced}
	cr, err := crawler.New(r.ccfg, r.clk, r.srv.URL(), geo.StudyDataset(), queries.StudyCorpus())
	if err != nil {
		return nil, err
	}
	cr.Transport, cr.Sink, cr.Telemetry = ft, sink, r.reg
	before := hostSpeed()
	t0 := wall.Now()
	obs, err := cr.RunCampaignVirtual(r.clk, r.phases)
	crawl := wall.Now().Sub(t0)
	speed := (before + hostSpeed()) / 2
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	run := &campaignRun{
		obs: len(obs), crawl: crawl, speed: speed,
		fetches: ft.fetches, sweeps: sink.sweeps, stragglers: sink.stragglers, ingest: sink.ingest,
		attempts: ft.attempts, bytes: ft.bytes, pairs: stream.PairsCompared(), ingestOK: sink.err == nil,
	}
	for i := range obs {
		switch {
		case obs[i].Shed:
			run.shed++
		case obs[i].Failed:
			run.failed++
		default:
			run.ok++
			if keepPages && len(run.pages) < keptBodies {
				run.pages = append(run.pages, []byte(serp.RenderHTML(obs[i].Page)))
			}
		}
	}
	if !analyze {
		return run, nil
	}

	a0 := wall.Now()
	var buf bytes.Buffer
	if err := storage.WriteJSONL(&buf, obs); err != nil {
		return nil, fmt.Errorf("campaign: write: %w", err)
	}
	a1 := wall.Now()
	back, err := storage.ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, fmt.Errorf("campaign: read: %w", err)
	}
	a2 := wall.Now()
	ds, err := analysis.NewDataset(back)
	if err != nil {
		return nil, fmt.Errorf("campaign: dataset: %w", err)
	}
	a3 := wall.Now()
	cells := figures(ds)
	batch := ds.Scorecard()
	a4 := wall.Now()

	run.analyzed = true
	run.write, run.read, run.dataset, run.figures, run.analyze = a1.Sub(a0), a2.Sub(a1), a3.Sub(a2), a4.Sub(a3), a4.Sub(a0)
	run.digest = fnv64(buf.Bytes())
	run.parityOK = reflect.DeepEqual(batch, stream.Scorecard())
	run.figuresOK = cells > 0 && len(batch) > 0
	var again bytes.Buffer
	run.jsonlOK = storage.WriteJSONL(&again, back) == nil && bytes.Equal(buf.Bytes(), again.Bytes())
	return run, nil
}

// figures regenerates Figures 2–8 and returns how many rows they hold.
func figures(d *analysis.Dataset) int {
	return len(d.NoiseByGranularity()) + len(d.NoisePerTerm("local")) +
		len(d.NoiseByResultType("local", "county")) + len(d.PersonalizationByGranularity()) +
		len(d.PersonalizationPerTerm("local")) + len(d.PersonalizationByResultType()) +
		len(d.ConsistencyOverTime("local"))
}

// campaigns runs whole campaigns until window has passed (at least one).
// The untraced window analyses only its first campaign, so that its
// crawls, which the end-to-end figures time, fill more of it; the traced
// window analyses every campaign for the analysis and storage layers.
func (r *campaignRig) campaigns(window time.Duration, traced, keepPages bool) ([]*campaignRun, error) {
	start := wall.Now()
	var runs []*campaignRun
	for len(runs) == 0 || wall.Now().Sub(start) < window {
		first := len(runs) == 0
		run, err := r.runOnce(traced, traced || first, keepPages && first)
		if err != nil {
			return nil, err
		}
		runs = append(runs, run)
	}
	return runs, nil
}

// campaignTotals pools a window's campaigns.
type campaignTotals struct {
	ok, attempts                           int
	crawl                                  time.Duration
	bytes                                  int64
	fetches, sweeps, stragglers, ingest    []time.Duration
	write, read, dataset, figures, analyze []time.Duration
}

func poolRuns(runs []*campaignRun) campaignTotals {
	var t campaignTotals
	for _, r := range runs {
		t.ok += r.ok
		t.attempts += r.attempts
		t.crawl += r.crawl
		t.bytes += r.bytes
		t.fetches = append(t.fetches, r.fetches...)
		t.sweeps = append(t.sweeps, r.sweeps...)
		t.stragglers = append(t.stragglers, r.stragglers...)
		t.ingest = append(t.ingest, r.ingest...)
		if !r.analyzed {
			continue
		}
		t.write = append(t.write, r.write)
		t.read = append(t.read, r.read)
		t.dataset = append(t.dataset, r.dataset)
		t.figures = append(t.figures, r.figures)
		t.analyze = append(t.analyze, r.analyze)
	}
	return t
}

func (t campaignTotals) fetchesPerS() float64 { return ratio(float64(t.ok), t.crawl.Seconds()) }

// campaignSlices makes each campaign one slice of its window.
func campaignSlices(runs []*campaignRun) []slice {
	out := make([]slice, len(runs))
	for i, r := range runs {
		out[i] = slice{ok: r.ok, dur: r.crawl, lat: millis(r.fetches), speed: r.speed}
	}
	return out
}

// runCampaign measures the campaign workload.
func runCampaign(o options) (*result, error) {
	tr := newTracer()
	res := newResult()
	rig, setupS, err := setupMedian(res, func() (*campaignRig, error) { return setupCampaign(o.seed, tr) }, (*campaignRig).close)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	window := time.Duration(o.seconds) * time.Second
	if o.trace == 1 {
		// The traced run splits its time between the untraced baseline and
		// the traced campaigns.
		window /= 2
	}

	heap := liveHeapMB()
	p0 := readProc()
	plainRuns, err := rig.campaigns(window, false, true)
	if err != nil {
		return nil, err
	}
	p1 := readProc()
	plain := poolRuns(plainRuns)
	sum := summarize(campaignSlices(plainRuns))
	sw := foldOf(millis(plain.sweeps))
	res.e2e["setup_s"] = setupS
	res.e2e["throughput_qps"] = sum.rate
	res.e2e["search_p50_ms"] = sum.adjusted.p50
	res.e2e["search_p90_ms"] = sum.adjusted.p90
	res.e2e["live_heap_mb"] = heap
	res.note("report campaigns=%d sweeps/campaign=%d fetches/campaign=%d digest(first)=%016x",
		len(plainRuns), len(plainRuns[0].sweeps), plainRuns[0].obs, plainRuns[0].digest)
	noteSummary(res, sum, "fetch/s")
	res.note("report each slice is one campaign; throughput_qps is fetches per second of crawling, latencies are per fetch")
	res.note("report sweep_p50_ms=%.3f sweep_p90_ms=%.3f ms (samples=%d, beyond p90=%d)", sw.p50, sw.p90, sw.n, sw.beyondP90)
	res.note("report analyze_s=%.4f s (median of %d)", median(seconds(plain.analyze)), len(plain.analyze))
	runs := plainRuns

	if o.trace == 1 {
		m := res.layers
		setProcess(m, p0, p1, plain.ok)
		m["process.heap_growth_bytes_per_op"] = ratio((liveHeapMB()-heap)*(1<<20), float64(plain.ok))
		admitted0 := rig.reg.Counter("serpd_admission_admitted_total", "").Value()
		shed0 := rig.reg.CounterVec("serpd_admission_shed_total", "", "reason").Total()
		retries0 := rig.reg.Counter("browser_retries_total", "").Value()
		limited0 := rig.reg.Counter("engine_ratelimited_total", "").Value()
		tr.on.Store(true)
		tracedRuns, err := rig.campaigns(window, true, false)
		tr.on.Store(false)
		if err != nil {
			return nil, err
		}
		runs = append(runs, tracedRuns...)
		t := poolRuns(tracedRuns)
		spans, wide := tr.take()
		lf, err := foldTrace(spans, wide, spanFetch)
		if err != nil {
			return nil, err
		}
		h := foldOf(lf.handler)
		m["serpserver.handler_p50_us"], m["serpserver.handler_p90_us"] = h.p50, h.p90
		m["serpserver.self_p50_us"] = median(lf.parts[layerServerSelf])
		m["serpserver.page_bytes"] = ratio(float64(t.bytes), float64(len(t.fetches)))
		aw := foldOf(lf.parts[layerAdmissionWait])
		m["serpserver.admission_wait_p50_us"], m["serpserver.admission_wait_p90_us"] = aw.p50, aw.p90
		m["serpserver.admitted"] = float64(rig.reg.Counter("serpd_admission_admitted_total", "").Value() - admitted0)
		m["serpserver.shed"] = float64(rig.reg.CounterVec("serpd_admission_shed_total", "", "reason").Total() - shed0)
		setEngineStages(m, lf)
		m["engine.ratelimited"] = float64(rig.reg.Counter("engine_ratelimited_total", "").Value() - limited0)
		m["traced.e2e_p50_us"] = median(lf.e2e)
		m["traced.requests"] = float64(lf.requests)
		m["unattributed_p50_us"] = median(lf.unattrib)
		bf := foldOf(micros(t.fetches))
		m["browser.fetch_p50_us"], m["browser.fetch_p90_us"] = bf.p50, bf.p90
		m["browser.retries"] = float64(rig.reg.Counter("browser_retries_total", "").Value() - retries0)
		ts := foldOf(millis(t.sweeps))
		m["crawler.sweep_p50_ms"], m["crawler.sweep_p90_ms"] = ts.p50, ts.p90
		m["crawler.straggler_p50_ms"] = median(millis(t.stragglers))
		m["crawler.fetch_ok_ratio"] = ratio(float64(t.ok), float64(t.attempts))
		ig := foldOf(micros(t.ingest))
		m["analysis.ingest_sweep_p50_us"], m["analysis.ingest_sweep_p90_us"] = ig.p50, ig.p90
		m["analysis.analyze_s"] = median(seconds(t.analyze))
		m["analysis.dataset_s"] = median(seconds(t.dataset))
		m["analysis.figures_s"] = median(seconds(t.figures))
		m["analysis.pairs_compared"] = float64(tracedRuns[0].pairs)
		m["storage.write_ms"] = median(millis(t.write))
		m["storage.read_ms"] = median(millis(t.read))
		m["telemetry.trace_overhead_ratio"] = ratio(t.fetchesPerS(), plain.fetchesPerS())
		replay(res, campaignReplayInputs(rig.phases, plainRuns[0].pages))
		path, err := writeSpans(o.spansDir, o.workload, spans)
		if err != nil {
			return nil, err
		}
		res.note("report traced run: %d campaigns, %d fetches joined (%d unmatched), spans in %s", len(tracedRuns), lf.requests, lf.unmatched, path)
	}

	checkCampaigns(res, runs, rig.phases)
	res.layers["fail_ratio"] = ratio(float64(res.failed), float64(res.attempted))
	res.note("report fail_ratio=%.6f (%d of %d)", res.layers["fail_ratio"], res.failed, res.attempted)
	return res, nil
}

// campaignReplayInputs lists the campaign's (term, location) queries and
// its local Places lookups once each, plus pages it fetched.
func campaignReplayInputs(phases []crawler.Phase, pages [][]byte) replayInputs {
	in := replayInputs{pages: pages}
	locs := geo.StudyDataset().All()
	for _, q := range campaignTerms(phases) {
		for _, l := range locs {
			if len(in.queries) < replayMax {
				in.queries = append(in.queries, q.Term)
			}
			if q.Category == queries.Local {
				in.places = append(in.places, placeCall{l.Point, q.ID()})
			}
		}
	}
	return in
}

// checkCampaigns folds every campaign's verdicts into res: no failed or
// shed observation, every slot present, streaming scorecard equal to the
// batch one, JSONL write→read the identity, and non-empty figures.
func checkCampaigns(res *result, runs []*campaignRun, phases []crawler.Phase) {
	want := 0
	for _, p := range phases {
		want += len(p.Terms) * p.Days * 2 * geo.StudyDataset().Len()
	}
	var failed, shed, missing, analyzed, parity, jsonl, figs, ingest int
	for _, r := range runs {
		res.attempted += want
		failed += r.failed
		shed += r.shed
		if r.obs != want {
			missing += want - r.obs
		}
		if !r.ingestOK {
			ingest++
		}
		if !r.analyzed {
			continue
		}
		analyzed++
		if !r.parityOK {
			parity++
		}
		if !r.jsonlOK {
			jsonl++
		}
		if !r.figuresOK {
			figs++
		}
	}
	res.failed += failed + shed + missing + parity + jsonl + figs + ingest
	res.check("observations_ok", failed == 0 && shed == 0 && missing == 0,
		"%d campaigns of %d slots: %d failed, %d shed, %d missing", len(runs), want, failed, shed, missing)
	res.check("stream_scorecard_equals_batch", parity == 0 && analyzed > 0, "%d of %d analysed campaigns diverged", parity, analyzed)
	res.check("jsonl_roundtrip_identity", jsonl == 0 && analyzed > 0, "%d of %d analysed campaigns changed bytes", jsonl, analyzed)
	res.check("figures_and_ingest", figs == 0 && ingest == 0, "%d empty figure sets, %d ingest errors", figs, ingest)
}
