package geoserp

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`). Each BenchmarkTableN/
// BenchmarkFigureN times the full regeneration of that artifact from a
// shared campaign fixture; the remaining benchmarks measure the substrate
// (engine, HTTP path, SERP codec, comparison metrics) so regressions in
// the expensive inner loops are visible.

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"

	"geoserp/internal/analysis"
	"geoserp/internal/engine"
	"geoserp/internal/geo"
	"geoserp/internal/metrics"
	"geoserp/internal/queries"
	"geoserp/internal/report"
	"geoserp/internal/serp"
	"geoserp/internal/simclock"
	"geoserp/internal/storage"
	"geoserp/internal/telemetry"

	"time"
)

// ---- shared campaign fixture ----

var (
	fixtureOnce sync.Once
	fixtureObs  []storage.Observation
	fixtureDS   *analysis.Dataset
	fixtureErr  error
)

// fixture runs one scaled campaign (8 terms per category × 2 days × all
// granularities) and indexes it; every figure benchmark reuses it.
func fixture(b *testing.B) *analysis.Dataset {
	b.Helper()
	fixtureOnce.Do(func() {
		study, err := NewStudy(DefaultStudyConfig())
		if err != nil {
			fixtureErr = err
			return
		}
		defer study.Close()
		fixtureObs, fixtureErr = study.RunPhases(study.ScaledPhases(8, 2))
		if fixtureErr != nil {
			return
		}
		fixtureDS, fixtureErr = analysis.NewDataset(fixtureObs)
	})
	if fixtureErr != nil {
		b.Fatalf("fixture: %v", fixtureErr)
	}
	return fixtureDS
}

// ---- tables and figures ----

// BenchmarkTable1Corpus regenerates Table 1 (the controversial-term
// examples) from the study corpus.
func BenchmarkTable1Corpus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		terms := Table1Terms()
		if out := report.Table1(terms); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkScorecardFigures regenerates Figures 2, 5, 6, 7 and 8 and the
// scorecard from the raw observations. All five are reads of the stream
// NewDataset replays the campaign through, so the replay is timed with
// them.
func BenchmarkScorecardFigures(b *testing.B) {
	fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := analysis.NewDataset(fixtureObs)
		if err != nil {
			b.Fatal(err)
		}
		if len(d.NoiseByGranularity()) != 9 || len(d.PersonalizationByGranularity()) != 9 ||
			len(d.PersonalizationPerTerm("local")) == 0 || len(d.PersonalizationByResultType()) == 0 ||
			len(d.ConsistencyOverTime("local")) != 3 || len(d.Scorecard()) == 0 {
			b.Fatal("incomplete scorecard figures")
		}
	}
}

// BenchmarkFigure3NoisePerTerm regenerates Figure 3: per-term noise for
// local queries at each granularity.
func BenchmarkFigure3NoisePerTerm(b *testing.B) {
	d := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if terms := d.NoisePerTerm("local"); len(terms) == 0 {
			b.Fatal("no terms")
		}
	}
}

// BenchmarkFigure4NoiseTypes regenerates Figure 4: the noise attribution
// to Maps/News results for local queries at county granularity.
func BenchmarkFigure4NoiseTypes(b *testing.B) {
	d := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if attr := d.NoiseByResultType("local", "county"); len(attr) == 0 {
			b.Fatal("no attribution")
		}
	}
}

// BenchmarkValidationGPSvsIP regenerates the §2.2 validation experiment:
// identical queries, fixed GPS, many vantage IPs, over the live HTTP path.
func BenchmarkValidationGPSvsIP(b *testing.B) {
	study, err := NewStudy(DefaultStudyConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer study.Close()
	terms := StudyCorpus().Category(queries.Controversial)[:3]
	gps := Point{Lat: 41.4993, Lon: -81.6944}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := study.RunValidation(terms, gps, 10)
		if err != nil {
			b.Fatal(err)
		}
		if res.MeanResultOverlap < 0.5 {
			b.Fatalf("overlap = %v", res.MeanResultOverlap)
		}
	}
}

// BenchmarkDemographicsCorrelation regenerates the §3.2 demographics
// analysis over the campaign fixture.
func BenchmarkDemographicsCorrelation(b *testing.B) {
	d := fixture(b)
	locs := geo.StudyDataset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := d.DemographicCorrelations(locs, "local"); len(rows) != 26 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// ---- substrate benchmarks ----

func benchEngine(b *testing.B) *engine.Engine {
	b.Helper()
	clk := simclock.NewManual(time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC))
	cfg := engine.DefaultConfig()
	cfg.RateBurst = 1 << 30
	cfg.RatePerMinute = 1 << 30
	return engine.New(cfg, clk)
}

func benchSearch(b *testing.B, term string) {
	e := benchEngine(b)
	pt := geo.Point{Lat: 41.4993, Lon: -81.6944}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Search(engine.Request{Query: term, GPS: &pt, ClientIP: "10.0.0.1"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineSearchLocal measures the engine's hot path for a generic
// local query (index retrieval + Places generation + assembly).
func BenchmarkEngineSearchLocal(b *testing.B) { benchSearch(b, "School") }

// BenchmarkEngineSearchControversial measures a news-bearing query.
func BenchmarkEngineSearchControversial(b *testing.B) { benchSearch(b, "Gay Marriage") }

// BenchmarkEngineSearchPolitician measures a politician query.
func BenchmarkEngineSearchPolitician(b *testing.B) { benchSearch(b, "Barack Obama") }

// BenchmarkEngineSearchParallel measures contended throughput.
func BenchmarkEngineSearchParallel(b *testing.B) {
	e := benchEngine(b)
	pt := geo.Point{Lat: 41.4993, Lon: -81.6944}
	terms := []string{"School", "Coffee", "Gay Marriage", "Barack Obama"}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			term := terms[i%len(terms)]
			i++
			if _, err := e.Search(engine.Request{Query: term, GPS: &pt, ClientIP: fmt.Sprintf("10.0.%d.1", i%200)}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSERPRenderParse measures the HTML wire codec round trip the
// crawler pays per page.
func BenchmarkSERPRenderParse(b *testing.B) {
	e := benchEngine(b)
	pt := geo.Point{Lat: 41.4993, Lon: -81.6944}
	resp, err := e.Search(engine.Request{Query: "School", GPS: &pt, ClientIP: "10.0.0.1"})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc := serp.RenderHTML(resp.Page)
		if _, err := serp.ParseHTML(doc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMetricsComparePages measures one page-pair comparison (Jaccard
// + edit distance), the inner loop of all figure regenerations.
func BenchmarkMetricsComparePages(b *testing.B) {
	e := benchEngine(b)
	pt1 := geo.Point{Lat: 41.4993, Lon: -81.6944}
	pt2 := geo.Point{Lat: 39.9612, Lon: -82.9988}
	r1, err := e.Search(engine.Request{Query: "School", GPS: &pt1, ClientIP: "10.0.0.1"})
	if err != nil {
		b.Fatal(err)
	}
	r2, err := e.Search(engine.Request{Query: "School", GPS: &pt2, ClientIP: "10.0.0.1"})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metrics.ComparePages(r1.Page, r2.Page)
	}
}

// BenchmarkCampaignSweep measures one full lock-step term sweep (all 59
// locations × 2 roles over HTTP) — the unit of crawl cost.
func BenchmarkCampaignSweep(b *testing.B) {
	study, err := NewStudy(DefaultStudyConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer study.Close()
	term := StudyCorpus().Category(queries.Local)[:1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		phases := []Phase{{
			Name:          "bench",
			Terms:         term,
			Granularities: []Granularity{County},
			Days:          1,
		}}
		obs, err := study.RunPhases(phases)
		if err != nil {
			b.Fatal(err)
		}
		if len(obs) != 30 {
			b.Fatalf("obs = %d", len(obs))
		}
	}
}

// BenchmarkMetricsRank measures the rank-aware comparison metrics over
// realistic page-sized lists.
func BenchmarkMetricsRank(b *testing.B) {
	a := make([]string, 18)
	c := make([]string, 18)
	for i := range a {
		a[i] = fmt.Sprintf("https://site-%d.example/", i)
		c[i] = fmt.Sprintf("https://site-%d.example/", (i*7+3)%20)
	}
	b.Run("KendallTau", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			metrics.KendallTau(a, c)
		}
	})
	b.Run("RBO", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			metrics.RBO(a, c, 0.9)
		}
	})
}

// BenchmarkReportSVG measures figure-image generation from the campaign
// fixture.
func BenchmarkReportSVG(b *testing.B) {
	d := fixture(b)
	cells := d.NoiseByGranularity()
	terms := d.NoisePerTerm("local")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if svg := report.Figure2SVG(cells); len(svg) == 0 {
			b.Fatal("empty svg")
		}
		if svg := report.Figure3SVG(terms); len(svg) == 0 {
			b.Fatal("empty svg")
		}
	}
}

// ---- telemetry hot path ----

// The telemetry layer sits on the engine's and server's per-request path,
// so its primitives must be effectively free: single atomic ops, no
// allocations, no locks held across observation.

// BenchmarkTelemetryCounterInc measures the bare counter increment — the
// cost added to every served request.
func BenchmarkTelemetryCounterInc(b *testing.B) {
	reg := telemetry.NewRegistry()
	c := reg.Counter("bench_total", "bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkTelemetryCounterVecWith measures the labelled-counter fast path
// (existing child: one RLock map hit + atomic add).
func BenchmarkTelemetryCounterVecWith(b *testing.B) {
	reg := telemetry.NewRegistry()
	v := reg.CounterVec("bench_by_code_total", "bench", "code")
	v.With("200") // pre-create the child, as the serving path does
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.With("200").Inc()
	}
}

// BenchmarkTelemetryHistogramObserve measures one latency observation
// (linear bucket scan + two atomics).
func BenchmarkTelemetryHistogramObserve(b *testing.B) {
	reg := telemetry.NewRegistry()
	h := reg.Histogram("bench_seconds", "bench", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(0.003)
	}
}

// BenchmarkTelemetryCounterParallel measures counter contention at
// engine-parallel request rates.
func BenchmarkTelemetryCounterParallel(b *testing.B) {
	reg := telemetry.NewRegistry()
	c := reg.Counter("bench_total", "bench")
	v := reg.CounterVec("bench_by_code_total", "bench", "code")
	h := reg.Histogram("bench_seconds", "bench", nil)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
			v.With("200").Inc()
			h.Observe(0.001)
		}
	})
}

// BenchmarkTelemetryPrometheusRender measures one /metricsz scrape over a
// registry shaped like serpd's (a scrape must not perturb serving).
func BenchmarkTelemetryPrometheusRender(b *testing.B) {
	reg := telemetry.NewRegistry()
	reg.Counter("engine_served_total", "x").Add(12345)
	v := reg.CounterVec("serpd_http_responses_total", "x", "code")
	for _, code := range []string{"200", "400", "404", "429"} {
		v.With(code).Add(100)
	}
	dc := reg.CounterVec("engine_requests_total", "x", "datacenter")
	for i := 0; i < 3; i++ {
		dc.With(fmt.Sprintf("dc-%d", i)).Add(50)
	}
	h := reg.Histogram("serpd_http_request_duration_seconds", "x", nil)
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i) / 10000)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := reg.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTelemetryHotPathZeroAlloc pins the zero-allocation guarantee of the
// per-request instrument path at the integration level: if any of these
// allocates, every engine search and HTTP request pays it.
func TestTelemetryHotPathZeroAlloc(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := reg.Counter("zero_total", "x")
	v := reg.CounterVec("zero_by_code_total", "x", "code")
	v.With("200")
	h := reg.Histogram("zero_seconds", "x", nil)
	for name, fn := range map[string]func(){
		"Counter.Inc":       func() { c.Inc() },
		"CounterVec.With":   func() { v.With("200").Inc() },
		"Histogram.Observe": func() { h.Observe(0.002) },
	} {
		if allocs := testing.AllocsPerRun(1000, fn); allocs != 0 {
			t.Errorf("%s allocates %.0f per op, want 0", name, allocs)
		}
	}
}

// BenchmarkStorageRoundTrip measures JSONL encode+decode of one thousand
// observations (the persistence cost per campaign chunk).
func BenchmarkStorageRoundTrip(b *testing.B) {
	d := fixture(b)
	_ = d
	obs := fixtureObs
	if len(obs) > 1000 {
		obs = obs[:1000]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := storage.WriteJSONL(&buf, obs); err != nil {
			b.Fatal(err)
		}
		back, err := storage.ReadJSONL(&buf)
		if err != nil {
			b.Fatal(err)
		}
		if len(back) != len(obs) {
			b.Fatal("lost observations")
		}
	}
}
