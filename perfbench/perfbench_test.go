package main

import (
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"geoserp/internal/engine"
	"geoserp/internal/httpheader"
	"geoserp/internal/serpserver"
	"geoserp/internal/telemetry"
)

func TestFoldReportsSampleCounts(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	f := foldOf(xs)
	if f.n != 100 || f.p50 != 50 || f.p90 != 90 || f.beyondP90 != 10 {
		t.Fatalf("fold of 1..100 = %+v, want n=100 p50=50 p90=90 beyond=10", f)
	}
	if xs[0] != 100 {
		t.Fatalf("foldOf sorted its input in place")
	}
	if f := foldOf([]float64{7}); f.n != 1 || f.p50 != 7 || f.p90 != 7 || f.beyondP90 != 0 {
		t.Fatalf("fold of one sample = %+v", f)
	}
	if f := foldOf(nil); f != (fold{}) {
		t.Fatalf("fold of nothing = %+v, want zero", f)
	}
}

func TestSummarizeAdjustsForHostSpeed(t *testing.T) {
	// The same work at three host speeds: each slice does 1000·speed
	// operations of 2/speed ms, so at nominal speed all read 1000/s, 2 ms.
	var ss []slice
	for _, speed := range []float64{0.5, 1, 1.25} {
		ss = append(ss, slice{ok: int(1000 * speed), dur: time.Second, lat: []float64{2 / speed, 2 / speed}, speed: speed})
	}
	s := summarize(ss)
	if s.slices != 3 || s.rate != 1000 || s.speed != 1 || s.adjusted.n != 6 || s.raw.n != 6 {
		t.Fatalf("summary = %+v", s)
	}
	if s.adjusted.p50 != 2 || s.adjusted.p90 != 2 {
		t.Fatalf("adjusted latencies p50=%v p90=%v, want 2 and 2", s.adjusted.p50, s.adjusted.p90)
	}
	if s.raw.p50 != 2 || s.raw.p90 != 4 || s.rawRate != 2750.0/3 {
		t.Fatalf("raw p50=%v p90=%v rate=%v, want 2, 4, %v", s.raw.p50, s.raw.p90, s.rawRate, 2750.0/3)
	}
}

// sum adds a ledger's layers and its unattributed remainder.
func sum(l ledger) time.Duration {
	total := l.unattributed()
	for _, p := range l.parts {
		total += p.d
	}
	return total
}

func stagesRecord(stages map[string]int64, shards ...wideShard) wideRecord {
	w := wideRecord{Trace: "t", Status: 200, Shards: shards}
	for _, name := range []string{"parse", "noise", "history", "retrieve", "rerank", "assemble"} {
		w.Stages = append(w.Stages, wideStage{Name: name, US: stages[name]})
	}
	return w
}

func partsOf(l ledger) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, p := range l.parts {
		out[p.name] += p.d
	}
	return out
}

func TestAttributionIdentity(t *testing.T) {
	us := time.Microsecond
	stages := map[string]int64{"parse": 3, "noise": 1, "history": 1, "retrieve": 120, "rerank": 40, "assemble": 9}

	t.Run("monolith", func(t *testing.T) {
		l := attribute(reqTiming{e2e: 400 * us, handler: 230 * us, wide: stagesRecord(stages)})
		if sum(l) != l.e2e {
			t.Fatalf("layers + unattributed = %v, want %v", sum(l), l.e2e)
		}
		p := partsOf(l)
		if p[layerServerSelf] != 56*us || p["engine.retrieve"] != 120*us || l.unattributed() != 170*us {
			t.Fatalf("parts %v unattributed %v", p, l.unattributed())
		}
	})

	t.Run("cluster", func(t *testing.T) {
		w := stagesRecord(stages,
			wideShard{Shard: 0, Replica: 1, Outcome: "ok", US: 60},
			wideShard{Shard: 1, Replica: 0, Outcome: "ok", US: 90},
			wideShard{Shard: 2, Replica: 0, Outcome: "ok", US: 70})
		shards := []span{
			{name: spanShard, shard: 0, replica: 1, start: 0, end: 20 * us},
			{name: spanShard, shard: 1, replica: 0, start: 0, end: 35 * us},
			{name: spanShard, shard: 2, replica: 0, start: 0, end: 25 * us},
		}
		l := attribute(reqTiming{e2e: 400 * us, handler: 230 * us, wide: w, shards: shards})
		if sum(l) != l.e2e {
			t.Fatalf("layers + unattributed = %v, want %v", sum(l), l.e2e)
		}
		p := partsOf(l)
		// The retrieve stage is replaced by its critical path: shard 1's
		// 90µs leg (35µs handler + 55µs wire) and 30µs of merge.
		if _, ok := p["engine.retrieve"]; ok {
			t.Fatalf("retrieve stage counted alongside its decomposition: %v", p)
		}
		if p[layerMergeSelf] != 30*us || p[layerWire] != 55*us || p[layerShard] != 35*us {
			t.Fatalf("router parts %v", p)
		}
	})

	t.Run("admission", func(t *testing.T) {
		l := attribute(reqTiming{e2e: 3000 * us, gate: 900 * us, handler: 230 * us, wide: stagesRecord(stages)})
		if sum(l) != l.e2e {
			t.Fatalf("layers + unattributed = %v, want %v", sum(l), l.e2e)
		}
		if p := partsOf(l); p[layerAdmissionWait] != 670*us || l.unattributed() != 2100*us {
			t.Fatalf("parts %v unattributed %v", p, l.unattributed())
		}
	})
}

func TestFoldTraceJoinsByTrace(t *testing.T) {
	us := time.Microsecond
	var ev telemetry.WideEvent
	ev.TraceID, ev.Status = "a", 200
	ev.Stage("parse", 3*us)
	ev.Stage("retrieve", 100*us)
	ev.Shard(0, 0, "ok", false, 80*us)
	wide := []string{string(ev.AppendText(nil))}
	spans := []span{
		{name: spanClient, req: "a", start: 0, end: 300 * us},
		{name: spanHandler, req: "a", start: 50 * us, end: 250 * us},
		{name: spanShard, req: "a", shard: 0, start: 100 * us, end: 130 * us, bytes: 512},
		{name: spanClient, req: "lost", start: 0, end: 10 * us}, // no handler span or record
	}
	f, err := foldTrace(spans, wide, spanClient)
	if err != nil {
		t.Fatal(err)
	}
	if f.requests != 1 || f.unmatched != 1 || len(f.legs) != 1 || f.legs[0].bytes != 512 {
		t.Fatalf("fold = %+v", f)
	}
	var layers float64
	for _, xs := range f.parts {
		layers += xs[0]
	}
	if got := layers + f.unattrib[0]; got != f.e2e[0] {
		t.Fatalf("folded layers + unattributed = %v, want %v", got, f.e2e[0])
	}
}

// TestWideParserRoundTrip pins the parser to telemetry.WideEvent's own
// formatter: a format change fails here instead of silently zeroing a
// layer.
func TestWideParserRoundTrip(t *testing.T) {
	var ev telemetry.WideEvent
	ev.TraceID, ev.Status, ev.Dur = "f00d", 200, 1874*time.Microsecond
	ev.Partial = "web"
	ev.SetErr("deadline")
	for _, st := range []string{"parse", "noise", "history", "retrieve", "rerank", "assemble"} {
		ev.Stage(st, time.Duration(len(st))*time.Microsecond)
	}
	ev.Shard(0, 0, "ok", false, 901*time.Microsecond)
	ev.Shard(1, 1, "shed", true, 13*time.Microsecond)
	ev.Hedge(true)
	ev.Hedge(false)
	for i := 0; i < telemetry.MaxWideStages-6+1; i++ { // one past capacity
		ev.Stage("extra", time.Microsecond)
	}

	got, err := parseWide(string(ev.AppendText(nil)))
	if err != nil {
		t.Fatal(err)
	}
	want := wideRecord{Trace: "f00d", Status: 200, DurUS: 1874, Partial: "web", Err: "deadline",
		Hedges: 2, HedgeWins: 1, Dropped: 1,
		Shards: []wideShard{{0, 0, "ok", false, 901}, {1, 1, "shed", true, 13}}}
	for _, s := range ev.Stages() {
		want.Stages = append(want.Stages, wideStage{s.Name, s.Dur.Microseconds()})
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed\n %+v\nwant\n %+v", got, want)
	}
	if _, err := parseWide("trace=x status=200 surprise=1"); err == nil {
		t.Fatal("unknown key parsed without error")
	}
}

// TestWideSinkCapturesHandlerRecords runs one request through a real
// handler with wide events on and checks every engine stage arrives.
func TestWideSinkCapturesHandlerRecords(t *testing.T) {
	tr := newTracer()
	h := serpserver.NewHandler(engine.New(benchEngineConfig(), wall), serpserver.WithWideEvents(slog.New(wideSink{tr})))
	req := httptest.NewRequest(http.MethodGet, "/search?q=Coffee&ll=41.499300,-81.694400", nil)
	req.Header.Set(httpheader.TraceID, "0123456789abcdef")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	_, wide := tr.take()
	if len(wide) != 1 {
		t.Fatalf("captured %d wide records, want 1", len(wide))
	}
	w, err := parseWide(wide[0])
	if err != nil {
		t.Fatal(err)
	}
	if w.Trace != "0123456789abcdef" || w.Status != 200 {
		t.Fatalf("record %+v", w)
	}
	var names []string
	for _, s := range w.Stages {
		names = append(names, s.Name)
	}
	if want := []string{"parse", "noise", "history", "retrieve", "rerank", "assemble"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("stages %v, want %v", names, want)
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps the metrics and workloads the
// program emits in step with the repository's BENCHMARK.json.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside this directory: %v", err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	same := func(kind string, listed []struct{ Name, Unit string }, specs []metricSpec) {
		if len(listed) != len(specs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program emits %d", kind, len(listed), len(specs))
			return
		}
		for i, m := range listed {
			if m.Name != specs[i].name || m.Unit != specs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program emits %s (%s)", kind, i, m.Name, m.Unit, specs[i].name, specs[i].unit)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
}
