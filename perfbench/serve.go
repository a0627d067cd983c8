package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"geoserp/internal/detrand"
	"geoserp/internal/engine"
	"geoserp/internal/geo"
	"geoserp/internal/httpheader"
	"geoserp/internal/queries"
	"geoserp/internal/router"
	"geoserp/internal/serp"
	"geoserp/internal/serpserver"
	"geoserp/internal/telemetry"
)

// sampleEvery picks the requests whose pages are kept and checked byte
// for byte against a reference after the timed window.
const sampleEvery = 32

// keptBodies caps how many sampled page bodies are kept for the render
// and parse replays.
const keptBodies = 256

// requestStream is a serving workload's seeded request generator: request
// i is a pure function of (seed, i), so the traced run, the replays, and
// the reference checks all regenerate exactly what was sent.
type requestStream struct {
	seed  uint64
	terms []queries.Query
	locs  []geo.Location
	pts   []geo.Point // each location as the server parses it from ll=
	paths [][]string  // [term][location] request path
	ips   []string    // client addresses (X-Forwarded-For)
}

// reqSpec is one generated request.
type reqSpec struct {
	i             uint64
	termIx, locIx int
	trace, ip     string
}

func newRequestStream(seed uint64, terms []queries.Query) (*requestStream, error) {
	s := &requestStream{seed: seed, terms: terms, locs: geo.StudyDataset().All()}
	for _, l := range s.locs {
		pt, err := geo.ParsePoint(l.Point.String())
		if err != nil {
			return nil, err
		}
		s.pts = append(s.pts, pt)
	}
	for _, q := range terms {
		row := make([]string, len(s.locs))
		for j, l := range s.locs {
			row[j] = "/search?q=" + url.QueryEscape(q.Term) + "&ll=" + url.QueryEscape(l.Point.String())
		}
		s.paths = append(s.paths, row)
	}
	rng := detrand.NewKeyed(seed, "perfbench.clients")
	for i := 0; i < 64; i++ {
		s.ips = append(s.ips, fmt.Sprintf("10.%d.%d.%d", 1+rng.Intn(250), 1+rng.Intn(250), 1+rng.Intn(250)))
	}
	return s, nil
}

func (s *requestStream) at(i uint64) reqSpec {
	rng := detrand.NewKeyed(s.seed, "perfbench.request", strconv.FormatUint(i, 10))
	return reqSpec{
		i:      i,
		termIx: rng.Intn(len(s.terms)),
		locIx:  rng.Intn(len(s.locs)),
		trace:  fmt.Sprintf("%016x", rng.Uint64()),
		ip:     s.ips[rng.Intn(len(s.ips))],
	}
}

// engineRequest is what the server hands its engine for spec.
func (s *requestStream) engineRequest(spec reqSpec) engine.Request {
	pt := s.pts[spec.locIx]
	return engine.Request{Query: s.terms[spec.termIx].Term, GPS: &pt, ClientIP: spec.ip, TraceID: spec.trace}
}

// warmEngine runs every (term, location) pair the stream can draw through
// the engine once, on GOMAXPROCS goroutines, so lazily filled state (the
// Places cell cache) is warm before timing.
func warmEngine(eng *engine.Engine, s *requestStream) error {
	n := len(s.terms) * len(s.locs)
	var next atomic.Int64
	var failures atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= n {
					return
				}
				spec := reqSpec{termIx: k / len(s.locs), locIx: k % len(s.locs), trace: "warm", ip: s.ips[0]}
				if _, err := eng.Search(s.engineRequest(spec)); err != nil {
					failures.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if f := failures.Load(); f > 0 {
		return fmt.Errorf("warm-up: %d of %d searches failed", f, n)
	}
	return nil
}

// pageSample is one sampled response: its request index, the FNV-64 of
// its body, and (for the first keptBodies) the body itself.
type pageSample struct {
	i    uint64
	hash uint64
	body []byte
}

// loopResult is one closed-loop window.
type loopResult struct {
	elapsed   time.Duration
	latencies []time.Duration // every completed request
	ok        int
	failed    int
	bytes     int64
	samples   []pageSample
	firstErr  string
}

func (l loopResult) qps() float64 { return ratio(float64(l.ok), l.elapsed.Seconds()) }

// add appends window b to l.
func (l *loopResult) add(b loopResult) {
	l.elapsed += b.elapsed
	l.latencies = append(l.latencies, b.latencies...)
	l.ok += b.ok
	l.failed += b.failed
	l.bytes += b.bytes
	l.samples = append(l.samples, b.samples...)
	if l.firstErr == "" {
		l.firstErr = b.firstErr
	}
}

// chunkLen is how long the closed loop runs between host speed samples.
const chunkLen = time.Second

// loadGen is the closed-loop client: conns keep-alive connections to base,
// each sending its next request only once the previous body has been read
// to the end, all drawing from one seeded stream in order.
type loadGen struct {
	base      string
	s         *requestStream
	conns     int
	tr        *tracer
	transport *http.Transport
	client    *http.Client
	next      atomic.Uint64
}

func newLoadGen(base string, s *requestStream, tr *tracer) *loadGen {
	conns := runtime.NumCPU()
	transport := &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}
	return &loadGen{base: base, s: s, conns: conns, tr: tr, transport: transport,
		client: &http.Client{Transport: transport}}
}

func (g *loadGen) close() { g.transport.CloseIdleConnections() }

// paced runs the loop in chunkLen stretches until window has passed,
// sampling the host's speed before the first stretch and after each, and
// returns the whole window and one slice per stretch.
func (g *loadGen) paced(window time.Duration) (loopResult, []slice) {
	var all loopResult
	var ss []slice
	before := hostSpeed()
	for start := wall.Now(); len(ss) == 0 || wall.Now().Sub(start) < window; {
		l := g.run(chunkLen, false)
		after := hostSpeed()
		ss = append(ss, slice{ok: l.ok, dur: l.elapsed, lat: millis(l.latencies), speed: (before + after) / 2})
		before = after
		all.add(l)
	}
	return all, ss
}

// run drives the loop for window. With traced set, every request records
// a client span.
func (g *loadGen) run(window time.Duration, traced bool) loopResult {
	s, tr := g.s, g.tr
	parts := make([]loopResult, g.conns)
	ends := make([]time.Duration, g.conns)
	start := wall.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for c := 0; c < g.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := &parts[c]
			for wall.Now().Before(deadline) {
				spec := s.at(g.next.Add(1) - 1)
				t0 := wall.Now()
				sample, err := fetchPage(g.client, g.base, s, spec)
				t1 := wall.Now()
				res.latencies = append(res.latencies, t1.Sub(t0))
				if traced {
					tr.record(span{name: spanClient, req: spec.trace, start: t0.Sub(tr.origin), end: t1.Sub(tr.origin), shard: -1, bytes: sample.n})
				}
				if err != nil {
					res.failed++
					if res.firstErr == "" {
						res.firstErr = fmt.Sprintf("request %d: %v", spec.i, err)
					}
					continue
				}
				res.ok++
				res.bytes += int64(sample.n)
				if sample.sampled {
					res.samples = append(res.samples, pageSample{i: spec.i, hash: sample.hash, body: sample.body})
				}
			}
			ends[c] = wall.Now().Sub(start)
		}(c)
	}
	wg.Wait()
	var out loopResult
	for c := range parts {
		p := &parts[c]
		p.elapsed = 0
		out.add(*p)
		if ends[c] > out.elapsed {
			out.elapsed = ends[c]
		}
	}
	return out
}

// fetched is what one request returned.
type fetched struct {
	n       int
	sampled bool
	hash    uint64
	body    []byte
}

// fetchPage sends spec and reads the body to the end. A transport error,
// a non-200 status, or a partial page is an error.
func fetchPage(client *http.Client, base string, s *requestStream, spec reqSpec) (fetched, error) {
	var f fetched
	req, err := http.NewRequest(http.MethodGet, base+s.paths[spec.termIx][spec.locIx], nil)
	if err != nil {
		return f, err
	}
	req.Header.Set(httpheader.TraceID, spec.trace)
	req.Header.Set(httpheader.ForwardedFor, spec.ip)
	resp, err := client.Do(req)
	if err != nil {
		return f, err
	}
	defer resp.Body.Close()
	f.sampled = spec.i%sampleEvery == 0
	if f.sampled {
		f.body, err = io.ReadAll(resp.Body)
		f.n = len(f.body)
		f.hash = fnv64(f.body)
		if spec.i/sampleEvery >= keptBodies {
			f.body = nil
		}
	} else {
		var n int64
		n, err = io.Copy(io.Discard, resp.Body)
		f.n = int(n)
	}
	switch {
	case err != nil:
		return f, fmt.Errorf("read body: %w", err)
	case resp.StatusCode != http.StatusOK:
		return f, fmt.Errorf("status %d", resp.StatusCode)
	case resp.Header.Get(httpheader.SerpPartial) != "":
		return f, fmt.Errorf("partial page (%s)", resp.Header.Get(httpheader.SerpPartial))
	}
	return f, nil
}

func fnv64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// servingRig is a serving workload's system under test behind a loopback
// listener.
type servingRig struct {
	base   string
	srv    *serpserver.Server
	reg    *telemetry.Registry
	stream *requestStream
	// reference renders the page a same-seed reference serves for spec.
	reference func(spec reqSpec) ([]byte, error)
	stop      func()
}

func (r *servingRig) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = r.srv.Shutdown(ctx) // the rig is discarded either way
	if r.stop != nil {
		r.stop()
	}
}

func listen(h http.Handler) (*serpserver.Server, error) {
	srv, err := serpserver.Listen("127.0.0.1:0", h)
	if err != nil {
		return nil, err
	}
	srv.Start()
	return srv, nil
}

// setupMono builds the monolith: one engine behind serpserver.Handler,
// warmed over every local (term, location) pair.
func setupMono(seed uint64, tr *tracer) (*servingRig, error) {
	s, err := newRequestStream(seed, queries.StudyCorpus().Category(queries.Local))
	if err != nil {
		return nil, err
	}
	eng := engine.New(benchEngineConfig(), wall)
	if err := warmEngine(eng, s); err != nil {
		return nil, err
	}
	plain := serpserver.NewHandler(eng)
	traced := serpserver.NewHandler(eng, serpserver.WithWideEvents(slog.New(wideSink{tr})))
	srv, err := listen(modeSwitch{tr: tr, plain: plain, traced: tr.timed(spanHandler, spanClient, traced)})
	if err != nil {
		return nil, err
	}
	return &servingRig{base: srv.URL(), srv: srv, reg: eng.Telemetry(), stream: s,
		reference: monoReference(s)}, nil
}

// monoReference renders pages from a separate same-seed engine's Search,
// exactly as the handler would for the same trace ID and client IP.
func monoReference(s *requestStream) func(reqSpec) ([]byte, error) {
	var ref *engine.Engine
	return func(spec reqSpec) ([]byte, error) {
		if ref == nil {
			ref = engine.New(benchEngineConfig(), wall)
		}
		resp, err := ref.Search(s.engineRequest(spec))
		if err != nil {
			return nil, err
		}
		return []byte(serp.RenderHTML(resp.Page)), nil
	}
}

// setupCluster builds the serprouter topology in process: 3 shards × 2
// replicas behind the router front end, with serprouter's default breaker
// and timeout settings and no faults.
func setupCluster(seed uint64, tr *tracer) (*servingRig, error) {
	corpus := queries.StudyCorpus()
	terms := append(append([]queries.Query{}, corpus.Category(queries.Controversial)...), corpus.Category(queries.Politician)...)
	s, err := newRequestStream(seed, terms)
	if err != nil {
		return nil, err
	}
	cl := router.NewLocalCluster(router.ClusterConfig{
		Shards:           3,
		Replicas:         2,
		Engine:           benchEngineConfig(),
		Clock:            wall,
		ShardMiddleware:  tr.shardMiddleware,
		ShardTimeout:     2 * time.Second,
		BreakerThreshold: 3,
		BreakerCooldown:  45 * time.Second,
	})
	if err := warmEngine(cl.Engine, s); err != nil {
		cl.StopProber()
		return nil, err
	}
	traced := serpserver.NewHandler(cl.Engine, serpserver.WithNode("router"),
		serpserver.WithWideEvents(slog.New(wideSink{tr})))
	srv, err := listen(modeSwitch{tr: tr, plain: cl.Handler, traced: tr.timed(spanHandler, spanClient, traced)})
	if err != nil {
		cl.StopProber()
		return nil, err
	}
	return &servingRig{base: srv.URL(), srv: srv, reg: cl.Registry, stream: s,
		reference: clusterReference(s), stop: cl.StopProber}, nil
}

// clusterReference serves the same request from a same-seed monolith
// handler: monolith ≡ cluster, byte for byte.
func clusterReference(s *requestStream) func(reqSpec) ([]byte, error) {
	var mono *serpserver.Handler
	return func(spec reqSpec) ([]byte, error) {
		if mono == nil {
			mono = serpserver.NewHandler(engine.New(benchEngineConfig(), wall))
		}
		req := httptest.NewRequest(http.MethodGet, s.paths[spec.termIx][spec.locIx], nil)
		req.Header.Set(httpheader.TraceID, spec.trace)
		req.Header.Set(httpheader.ForwardedFor, spec.ip)
		rec := httptest.NewRecorder()
		mono.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("monolith status %d", rec.Code)
		}
		return rec.Body.Bytes(), nil
	}
}

func runMonoLocal(o options) (*result, error) { return runServing(o, setupMono) }

func runClusterNews(o options) (*result, error) { return runServing(o, setupCluster) }

// runServing measures a serving workload: set-up, the untraced closed
// loop, then (with --trace 1) the traced loop and the replays, and last
// the byte-for-byte page checks.
func runServing(o options, setup func(uint64, *tracer) (*servingRig, error)) (*result, error) {
	tr := newTracer()
	res := newResult()
	rig, setupS, err := setupMedian(res, func() (*servingRig, error) { return setup(o.seed, tr) }, (*servingRig).close)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	window := time.Duration(o.seconds) * time.Second
	if o.trace == 1 {
		// The traced run splits its time between the untraced baseline and
		// the traced window.
		window /= 2
	}

	limited0 := rig.reg.Counter("engine_ratelimited_total", "").Value()
	heap := liveHeapMB()
	p0 := readProc()
	gen := newLoadGen(rig.base, rig.stream, tr)
	defer gen.close()
	plain, chunks := gen.paced(window)
	p1 := readProc()
	loops := []loopResult{plain}

	sum := summarize(chunks)
	res.e2e["setup_s"] = setupS
	res.e2e["throughput_qps"] = sum.rate
	res.e2e["search_p50_ms"] = sum.adjusted.p50
	res.e2e["search_p90_ms"] = sum.adjusted.p90
	res.e2e["live_heap_mb"] = heap
	noteSummary(res, sum, "req/s")
	res.note("report closed loop: %d connections, %d pages in %.2fs of load", gen.conns, plain.ok, plain.elapsed.Seconds())

	if o.trace == 1 {
		m := res.layers
		setProcess(m, p0, p1, plain.ok)
		m["process.heap_growth_bytes_per_op"] = ratio((liveHeapMB()-heap)*(1<<20), float64(plain.ok))
		tr.on.Store(true)
		traced := gen.run(window, true)
		tr.on.Store(false)
		loops = append(loops, traced)
		spans, wide := tr.take()
		lf, err := foldTrace(spans, wide, spanClient)
		if err != nil {
			return nil, err
		}
		setServingLayers(m, lf, traced)
		m["telemetry.trace_overhead_ratio"] = ratio(traced.qps(), plain.qps())
		m["engine.ratelimited"] = float64(rig.reg.Counter("engine_ratelimited_total", "").Value() - limited0)
		setRouterCounters(m, rig.reg)
		replay(res, servingReplayInputs(rig.stream, plain.samples, plain.ok))
		path, err := writeSpans(o.spansDir, o.workload, spans)
		if err != nil {
			return nil, err
		}
		res.note("report traced run: %d requests joined (%d unmatched), spans in %s", lf.requests, lf.unmatched, path)
	}

	checkPages(res, rig, loops)
	m := res.layers
	m["fail_ratio"] = ratio(float64(res.failed), float64(res.attempted))
	res.note("report fail_ratio=%.6f (%d of %d)", m["fail_ratio"], res.failed, res.attempted)
	return res, nil
}

// checkPages counts every loop's operations and compares each sampled
// page with the reference's bytes; a mismatch counts as a failure.
func checkPages(res *result, rig *servingRig, loops []loopResult) {
	var failed, compared, mismatched int
	var firstErr, firstMismatch string
	for _, l := range loops {
		res.attempted += l.ok + l.failed
		failed += l.failed
		if firstErr == "" {
			firstErr = l.firstErr
		}
		for _, smp := range l.samples {
			want, err := rig.reference(rig.stream.at(smp.i))
			compared++
			if err != nil || fnv64(want) != smp.hash {
				mismatched++
				if firstMismatch == "" {
					firstMismatch = fmt.Sprintf("first: request %d (err=%v)", smp.i, err)
				}
			}
		}
	}
	res.failed += failed + mismatched
	res.check("requests_ok", failed == 0, "%d of %d requests failed %s", failed, res.attempted, firstErr)
	res.check("pages_match_reference", mismatched == 0 && compared > 0,
		"%d of %d sampled pages byte-identical %s", compared-mismatched, compared, firstMismatch)
}

// setServingLayers fills the per-layer metrics a traced serving loop
// measures.
func setServingLayers(m map[string]float64, lf *layerFold, traced loopResult) {
	h := foldOf(lf.handler)
	m["serpserver.handler_p50_us"] = h.p50
	m["serpserver.handler_p90_us"] = h.p90
	m["serpserver.self_p50_us"] = median(lf.parts[layerServerSelf])
	m["serpserver.page_bytes"] = ratio(float64(traced.bytes), float64(traced.ok))
	setEngineStages(m, lf)
	m["traced.e2e_p50_us"] = median(lf.e2e)
	m["traced.requests"] = float64(lf.requests)
	m["unattributed_p50_us"] = median(lf.unattrib)
	if len(lf.legs) == 0 {
		return
	}
	var legDur, shardDur, wire []float64
	var firstOK, bytes int
	for _, l := range lf.legs {
		legDur = append(legDur, us(l.dur))
		shardDur = append(shardDur, us(l.handler))
		wire = append(wire, us(l.dur-l.handler))
		bytes += l.bytes
		if l.firstOK {
			firstOK++
		}
	}
	lg, sh := foldOf(legDur), foldOf(shardDur)
	m["router.leg_p50_us"], m["router.leg_p90_us"] = lg.p50, lg.p90
	m["router.shard_p50_us"], m["router.shard_p90_us"] = sh.p50, sh.p90
	m["router.wire_p50_us"] = median(wire)
	m["router.straggler_p50_us"] = median(lf.straggler)
	m["router.merge_self_p50_us"] = median(lf.parts[layerMergeSelf])
	m["router.reply_bytes"] = ratio(float64(bytes), float64(len(lf.legs)))
	m["router.legs"] = float64(len(lf.legs))
	m["router.first_try_ratio"] = ratio(float64(firstOK), float64(len(lf.legs)))
}

// setEngineStages fills the engine stage medians (and the tails of the two
// stages that carry the work) from the wide records.
func setEngineStages(m map[string]float64, lf *layerFold) {
	for _, st := range []string{"parse", "noise", "history", "assemble"} {
		m["engine."+st+"_p50_us"] = median(lf.parts["engine."+st])
	}
	rr := foldOf(lf.parts["engine.rerank"])
	m["engine.rerank_p50_us"], m["engine.rerank_p90_us"] = rr.p50, rr.p90
	rt := foldOf(lf.retrieve)
	m["engine.retrieve_p50_us"], m["engine.retrieve_p90_us"] = rt.p50, rt.p90
}

// setRouterCounters reads the scatter-gather client's own counters (zero
// on a monolith, whose registry has none).
func setRouterCounters(m map[string]float64, reg *telemetry.Registry) {
	m["router.failovers"] = float64(reg.Counter("router_replica_failovers_total", "").Value())
	m["router.hedges"] = float64(reg.CounterVec("router_hedges_total", "", "result").Total())
	m["router.partial"] = float64(reg.Counter("router_partial_results_total", "").Value())
}
