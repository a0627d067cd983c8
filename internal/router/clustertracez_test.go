package router

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"geoserp/internal/httpheader"
	"geoserp/internal/simclock"
	"geoserp/internal/telemetry"
)

// span hand-builds one stitched span for analyzer tests.
func span(node, id, parent, name string, startMs, endMs int, attrs ...telemetry.Attr) telemetry.StitchedSpan {
	return telemetry.StitchedSpan{
		Node: node,
		SpanRecord: telemetry.SpanRecord{
			TraceID:  "t-1",
			SpanID:   id,
			ParentID: parent,
			Name:     name,
			Start:    epoch.Add(time.Duration(startMs) * time.Millisecond),
			End:      epoch.Add(time.Duration(endMs) * time.Millisecond),
			Attrs:    attrs,
		},
	}
}

func attr(k, v string) telemetry.Attr { return telemetry.Attr{Key: k, Val: v} }

// TestAnalyzeAttribution pins the critical-path report over a hand-built
// stitched trace: straggler selection skips breaker-open legs, ok legs must
// stitch to their server span for completeness, and outcome counting spans
// every leg.
func TestAnalyzeAttribution(t *testing.T) {
	tr := telemetry.StitchedTrace{TraceID: "t-1", Spans: []telemetry.StitchedSpan{
		span("router", "req-1", "", "serpd.request", 0, 100),
		span("router", "ret-1", "req-1", "engine.retrieve", 10, 80),
		// Legs deliberately out of shard order; the report sorts them.
		span("router", "leg-2", "ret-1", "router.shard", 10, 60,
			attr("shard", "2"), attr("outcome", "error"), attr("error", "status: 500")),
		span("router", "leg-0", "ret-1", "router.shard", 10, 40,
			attr("shard", "0"), attr("outcome", "ok"), attr("hits", "7")),
		span("router", "att-0", "leg-0", "router.attempt", 10, 40,
			attr("replica", "0"), attr("outcome", "ok")),
		span("router", "leg-1", "ret-1", "router.shard", 10, 15,
			attr("shard", "1"), attr("outcome", "shed")),
		// Breaker-open leg with the longest client duration: must never be
		// named the straggler (it was skipped, not waited on).
		span("router", "leg-3", "ret-1", "router.shard", 10, 80,
			attr("shard", "3"), attr("outcome", "breaker_open")),
		span("shard-0", "srv-0", "att-0", "shard.search", 12, 38,
			attr("shard", "0")),
	}}

	rep := Analyze(tr)
	if rep.Requests != 1 || rep.Sheds != 0 {
		t.Fatalf("requests=%d sheds=%d, want 1/0", rep.Requests, rep.Sheds)
	}
	if len(rep.Retrievals) != 1 {
		t.Fatalf("retrievals = %d, want 1", len(rep.Retrievals))
	}
	ret := rep.Retrievals[0]
	if ret.FanoutDur != 70*time.Millisecond {
		t.Fatalf("fanout dur = %v", ret.FanoutDur)
	}
	if len(ret.Legs) != 4 {
		t.Fatalf("legs = %d, want 4", len(ret.Legs))
	}
	for i, l := range ret.Legs {
		if l.Shard != i {
			t.Fatalf("legs not sorted by shard: %+v", ret.Legs)
		}
	}
	if !ret.Legs[0].Stitched || ret.Legs[0].Node != "shard-0" || ret.Legs[0].ServerDur != 26*time.Millisecond {
		t.Fatalf("ok leg not stitched to its server span: %+v", ret.Legs[0])
	}
	if ret.Legs[2].Error != "status: 500" {
		t.Fatalf("error leg detail = %q", ret.Legs[2].Error)
	}
	if ret.Straggler != 2 || ret.StragglerOutcome != "error" || ret.StragglerDur != 50*time.Millisecond {
		t.Fatalf("straggler = shard %d (%s, %v), want shard 2 (error, 50ms)",
			ret.Straggler, ret.StragglerOutcome, ret.StragglerDur)
	}
	if !ret.Partial {
		t.Fatal("retrieval with non-ok legs not marked partial")
	}
	if !ret.Complete || !rep.Complete {
		t.Fatal("every ok leg stitched, but report not complete")
	}
	want := map[string]int{"ok": 1, "shed": 1, "error": 1, "breaker_open": 1}
	for k, v := range want {
		if rep.Outcomes[k] != v {
			t.Fatalf("outcomes = %v, want %v", rep.Outcomes, want)
		}
	}
}

// TestAnalyzeStragglerSkipsShedLegs pins the shed-exclusion rule: a leg
// the shard's admission gate shed — even one with the longest client
// duration, because it sat in the gate's queue until the deadline — did
// no retrieval work the coordinator waited on, so straggler attribution
// must skip it exactly as it skips breaker-open legs, and blame the
// slowest leg that actually ran.
func TestAnalyzeStragglerSkipsShedLegs(t *testing.T) {
	tr := telemetry.StitchedTrace{TraceID: "t-1", Spans: []telemetry.StitchedSpan{
		span("router", "req-1", "", "serpd.request", 0, 100),
		span("router", "ret-1", "req-1", "engine.retrieve", 10, 95),
		span("router", "leg-1", "ret-1", "router.shard", 10, 90,
			attr("shard", "1"), attr("outcome", "shed")),
		span("router", "leg-0", "ret-1", "router.shard", 10, 40,
			attr("shard", "0"), attr("outcome", "ok"), attr("hits", "3")),
		span("router", "att-0", "leg-0", "router.attempt", 10, 40,
			attr("replica", "0"), attr("outcome", "ok")),
		span("shard-0", "srv-0", "att-0", "shard.search", 12, 38,
			attr("shard", "0")),
	}}
	rep := Analyze(tr)
	if len(rep.Retrievals) != 1 {
		t.Fatalf("retrievals = %d, want 1", len(rep.Retrievals))
	}
	ret := rep.Retrievals[0]
	if ret.Straggler != 0 || ret.StragglerOutcome != "ok" || ret.StragglerDur != 30*time.Millisecond {
		t.Fatalf("straggler = shard %d (%s, %v), want shard 0 (ok, 30ms): shed legs must never be blamed",
			ret.Straggler, ret.StragglerOutcome, ret.StragglerDur)
	}
	if !ret.Partial {
		t.Fatal("retrieval with a shed leg not marked partial")
	}
}

// TestAnalyzeIncomplete: an ok leg whose server span never surfaced (lost
// export) makes the retrieval — and the report — incomplete, and a trace
// with only shed spans reports zero requests and incomplete.
func TestAnalyzeIncomplete(t *testing.T) {
	tr := telemetry.StitchedTrace{TraceID: "t-1", Spans: []telemetry.StitchedSpan{
		span("router", "req-1", "", "serpd.request", 0, 100),
		span("router", "ret-1", "req-1", "engine.retrieve", 10, 80),
		span("router", "leg-0", "ret-1", "router.shard", 10, 40,
			attr("shard", "0"), attr("outcome", "ok")),
	}}
	rep := Analyze(tr)
	if rep.Retrievals[0].Complete || rep.Complete {
		t.Fatal("unstitched ok leg reported complete")
	}
	if rep.Retrievals[0].Straggler != 0 {
		t.Fatalf("straggler = %d, want 0", rep.Retrievals[0].Straggler)
	}

	shedOnly := telemetry.StitchedTrace{TraceID: "t-2", Spans: []telemetry.StitchedSpan{
		span("router", "shed-1", "", "serpd.shed", 0, 1),
	}}
	rep = Analyze(shedOnly)
	if rep.Requests != 0 || rep.Sheds != 1 || rep.Complete {
		t.Fatalf("shed-only trace: requests=%d sheds=%d complete=%v", rep.Requests, rep.Sheds, rep.Complete)
	}
}

// TestClusterTracezEndToEnd drives a live two-shard cluster and exercises
// the whole surface: collection over the in-memory transport, stitching,
// per-trace filtering with byte-identical repeat bodies, the Chrome export,
// the HTML view, and parameter validation.
func TestClusterTracezEndToEnd(t *testing.T) {
	cl := NewLocalCluster(ClusterConfig{
		Shards:       2,
		Engine:       testConfig(7),
		Clock:        simclock.NewManual(epoch),
		SpanCapacity: 256,
	})
	for i, q := range []string{"pizza", "coffee shop"} {
		code, _, body := fetch(t, cl.Handler, q, "ct-trace-"+strconv.Itoa(i), "10.9.9.9")
		if code != http.StatusOK {
			t.Fatalf("query %q: status %d: %s", q, code, body)
		}
	}
	ct := NewClusterTracez(cl.Spans, cl.Client)

	get := func(target string) (int, http.Header, string) {
		r := httptest.NewRequest(http.MethodGet, target, nil)
		w := httptest.NewRecorder()
		ct.ServeHTTP(w, r)
		return w.Code, w.Header(), w.Body.String()
	}

	// Full JSON body: all three lanes collected, both traces stitched and
	// complete (router + every contacted shard).
	code, hdr, body := get("/clustertracez")
	if code != http.StatusOK || !strings.Contains(hdr.Get("Content-Type"), "application/json") {
		t.Fatalf("full body: code=%d type=%q", code, hdr.Get("Content-Type"))
	}
	var full struct {
		Version int `json:"version"`
		Nodes   []struct {
			Node  string `json:"node"`
			Spans int    `json:"spans"`
			Error string `json:"error"`
		} `json:"nodes"`
		Traces []struct {
			Report TraceReport `json:"report"`
		} `json:"traces"`
	}
	if err := json.Unmarshal([]byte(body), &full); err != nil {
		t.Fatalf("decode: %v\n%s", err, body)
	}
	if full.Version != telemetry.SpanzVersion {
		t.Fatalf("version = %d", full.Version)
	}
	if len(full.Nodes) != 3 || full.Nodes[0].Node != "router" ||
		full.Nodes[1].Node != "shard-0" || full.Nodes[2].Node != "shard-1" {
		t.Fatalf("nodes = %+v", full.Nodes)
	}
	for _, n := range full.Nodes {
		if n.Error != "" || n.Spans == 0 {
			t.Fatalf("lane %s: %d spans, error %q", n.Node, n.Spans, n.Error)
		}
	}
	if len(full.Traces) != 2 {
		t.Fatalf("traces = %d, want 2", len(full.Traces))
	}
	// Most recent first.
	if full.Traces[0].Report.TraceID != "ct-trace-1" || full.Traces[1].Report.TraceID != "ct-trace-0" {
		t.Fatalf("trace order: %s, %s", full.Traces[0].Report.TraceID, full.Traces[1].Report.TraceID)
	}
	for _, tr := range full.Traces {
		if !tr.Report.Complete {
			t.Fatalf("trace %s not complete: %+v", tr.Report.TraceID, tr.Report)
		}
		if tr.Report.Outcomes["ok"] != 2 {
			t.Fatalf("trace %s outcomes = %v", tr.Report.TraceID, tr.Report.Outcomes)
		}
	}

	// ?limit caps the view; bad limits are rejected.
	code, _, body = get("/clustertracez?limit=1")
	if code != http.StatusOK || strings.Contains(body, "ct-trace-0") {
		t.Fatalf("limit=1 still carries the older trace: %d\n%s", code, body)
	}
	if code, _, _ := get("/clustertracez?limit=x"); code != http.StatusBadRequest {
		t.Fatalf("bad limit: code=%d, want 400", code)
	}

	// Filtered body: only the wanted trace, no lane totals, and — with no
	// traffic in between — byte-identical on repeat collection.
	code, _, first := get("/clustertracez?trace=ct-trace-0")
	if code != http.StatusOK {
		t.Fatalf("filtered: code=%d", code)
	}
	if strings.Contains(first, `"nodes"`) || strings.Contains(first, "ct-trace-1") {
		t.Fatalf("filtered body leaks ring state or other traces:\n%s", first)
	}
	_, _, second := get("/clustertracez?trace=ct-trace-0")
	if first != second {
		t.Fatalf("repeat filtered collection not byte-identical:\n%s\n----\n%s", first, second)
	}
	if _, _, missing := get("/clustertracez?trace=nope"); !strings.Contains(missing, `"traces": []`) {
		t.Fatalf("unknown trace body: %s", missing)
	}

	// Chrome export: one named process lane per node.
	code, hdr, chrome := get("/clustertracez?trace=ct-trace-0&format=chrome")
	if code != http.StatusOK || !strings.Contains(hdr.Get("Content-Type"), "application/json") {
		t.Fatalf("chrome: code=%d type=%q", code, hdr.Get("Content-Type"))
	}
	for _, lane := range []string{`"router"`, `"shard-0"`, `"shard-1"`} {
		if !strings.Contains(chrome, `"process_name","args":{"name":`+lane+`}`) {
			t.Fatalf("chrome export missing process lane %s:\n%s", lane, chrome)
		}
	}

	// HTML view, both via ?format and via Accept sniffing.
	code, hdr, page := get("/clustertracez?format=html")
	if code != http.StatusOK || !strings.Contains(hdr.Get("Content-Type"), "text/html") ||
		!strings.Contains(page, "straggler shard") {
		t.Fatalf("html: code=%d type=%q\n%s", code, hdr.Get("Content-Type"), page)
	}
	r := httptest.NewRequest(http.MethodGet, "/clustertracez", nil)
	r.Header.Set("Accept", "text/html,application/xhtml+xml")
	w := httptest.NewRecorder()
	ct.ServeHTTP(w, r)
	if !strings.Contains(w.Header().Get("Content-Type"), "text/html") {
		t.Fatal("Accept: text/html not sniffed")
	}
}

// TestClusterTracezDegraded: with a shard erroring, the report attributes
// the fault (error outcome on that shard's leg) and the page goes partial —
// and traces remain "complete" in the stitching sense, since the failed leg
// never owed a server span.
func TestClusterTracezDegraded(t *testing.T) {
	cl := NewLocalCluster(ClusterConfig{
		Shards:       2,
		Engine:       testConfig(7),
		Clock:        simclock.NewManual(epoch),
		SpanCapacity: 256,
		ShardMiddleware: func(shard, replica int, next http.Handler) http.Handler {
			if shard != 1 {
				return next
			}
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == SearchPath {
					http.Error(w, "injected fault", http.StatusInternalServerError)
					return
				}
				next.ServeHTTP(w, r)
			})
		},
	})
	code, partial, _ := fetch(t, cl.Handler, "pizza", "ct-deg", "10.9.9.9")
	if code != http.StatusOK || partial != "web" {
		t.Fatalf("degraded fetch: code=%d partial=%q", code, partial)
	}

	ct := NewClusterTracez(cl.Spans, cl.Client)
	r := httptest.NewRequest(http.MethodGet, "/clustertracez?trace=ct-deg", nil)
	w := httptest.NewRecorder()
	ct.ServeHTTP(w, r)
	var got struct {
		Traces []struct {
			Report TraceReport `json:"report"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil || len(got.Traces) != 1 {
		t.Fatalf("decode: %v\n%s", err, w.Body.String())
	}
	rep := got.Traces[0].Report
	if !rep.Complete {
		t.Fatalf("degraded trace incomplete: %+v", rep)
	}
	ret := rep.Retrievals[0]
	if !ret.Partial || ret.Legs[1].Outcome != "error" || ret.Legs[1].Stitched {
		t.Fatalf("fault not attributed to shard 1: %+v", ret)
	}
	if ret.Legs[0].Outcome != "ok" || !ret.Legs[0].Stitched {
		t.Fatalf("healthy leg mis-reported: %+v", ret.Legs[0])
	}
}

// pageTransport answers each request with the next of its bodies,
// whatever the URL asks for, and with 404 once they run out. CollectSpanz
// fetches its nodes one after another, so the bodies are the nodes'
// /spanz pages in shard and replica order.
type pageTransport struct{ bodies [][]byte }

func (t *pageTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	w := httptest.NewRecorder()
	if len(t.bodies) == 0 {
		http.NotFound(w, r)
	} else {
		w.Write(t.bodies[0])
		t.bodies = t.bodies[1:]
	}
	resp := w.Result()
	resp.Request = r
	return resp, nil
}

// FuzzClusterTracez drives a coordinator's /clustertracez over the router
// spans of a live two-shard cluster and shard /spanz pages that arrive
// fuzzed (NUL-separated, in collection order), with an arbitrary raw query
// (trace=, limit=, format=) and Accept header. No input may panic it; it
// answers 400 exactly for a limit that is not a non-negative integer and
// 200 otherwise; a JSON 200 decodes and, with a trace=, holds only that
// trace and no nodes block; a format=chrome 200 is valid JSON. The seeds
// are the cluster's exports after a healthy search and after one whose
// shard-1 leg failed, and a page whose retrieval span has a 2-byte ID.
// The request is built by hand, since httptest.NewRequest panics on a
// target it cannot parse.
func FuzzClusterTracez(f *testing.F) {
	cl := NewLocalCluster(ClusterConfig{
		Shards:       2,
		Engine:       testConfig(7),
		Clock:        simclock.NewManual(epoch),
		SpanCapacity: 256,
		ShardMiddleware: func(shard, _ int, next http.Handler) http.Handler {
			if shard != 1 {
				return next
			}
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == SearchPath && r.Header.Get(httpheader.TraceID) == "fz-fail" {
					http.Error(w, "injected fault", http.StatusInternalServerError)
					return
				}
				next.ServeHTTP(w, r)
			})
		},
	})
	exports := func() []byte {
		var pages [][]byte
		for _, reps := range cl.ShardChains {
			for _, node := range reps {
				w := httptest.NewRecorder()
				node.ServeHTTP(w, httptest.NewRequest(http.MethodGet, telemetry.SpanzPath, nil))
				pages = append(pages, w.Body.Bytes())
			}
		}
		return bytes.Join(pages, []byte{0})
	}
	fetch(f, cl.Handler, "pizza", "fz-ok", "10.9.9.9")
	healthy := exports()
	fetch(f, cl.Handler, "coffee shop", "fz-fail", "10.9.9.9")
	failed := exports()
	short, err := json.Marshal(telemetry.SpanzPage{
		Version: telemetry.SpanzVersion, Node: "shard-0", Total: 1, NextCursor: 1,
		Spans: []telemetry.SpanRecord{{TraceID: "t", SpanID: "ab", Name: "engine.retrieve", Start: epoch, End: epoch}},
	})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []struct {
		pages         []byte
		query, accept string
	}{
		{healthy, "", ""},
		{healthy, "trace=fz-ok&format=html", ""},
		{failed, "trace=fz-fail", ""},
		{failed, "trace=fz-fail&format=chrome", ""},
		{failed, "limit=1&format=chrome", ""},
		{failed, "limit=-1", "text/html"},
		{failed, "trace=fz-ok&limit=x", ""},
		{failed, "", "text/html"},
		{short, "format=html", ""},
		{[]byte("not json"), "trace=%zz&limit=99999999999999999999", ""},
	} {
		f.Add(seed.pages, seed.query, seed.accept)
	}

	tr := &pageTransport{}
	ct := NewClusterTracez(cl.Spans, NewClient(ClientConfig{
		Shards:    [][]string{{"http://shard-0"}, {"http://shard-1"}},
		Transport: tr,
		Docs:      cl.Client.cfg.Docs,
	}, nil))
	f.Fuzz(func(t *testing.T, pages []byte, rawQuery, accept string) {
		tr.bodies = bytes.Split(pages, []byte{0})
		r := &http.Request{
			Method: http.MethodGet,
			URL:    &url.URL{Path: ClusterTracezPath, RawQuery: rawQuery},
			Header: http.Header{"Accept": {accept}},
			Body:   http.NoBody,
		}
		w := httptest.NewRecorder()
		ct.ServeHTTP(w, r)
		q := r.URL.Query()
		limit, err := strconv.Atoi(q.Get("limit"))
		want := http.StatusOK
		if q.Get("limit") != "" && (err != nil || limit < 0) {
			want = http.StatusBadRequest
		}
		if w.Code != want {
			t.Fatalf("query %q: status %d, want %d", rawQuery, w.Code, want)
		}
		if w.Code != http.StatusOK {
			return
		}
		format := q.Get("format")
		if format == "" && strings.Contains(accept, "text/html") {
			format = "html"
		}
		switch format {
		case "html":
			return
		case "chrome":
			if !json.Valid(w.Body.Bytes()) {
				t.Fatalf("query %q: Chrome export is not JSON:\n%s", rawQuery, w.Body.String())
			}
			return
		}
		var body struct {
			Nodes  json.RawMessage `json:"nodes"`
			Traces []struct {
				Report TraceReport              `json:"report"`
				Spans  []telemetry.StitchedSpan `json:"spans"`
			} `json:"traces"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
			t.Fatalf("query %q: body does not decode: %v\n%s", rawQuery, err, w.Body.String())
		}
		trace := q.Get("trace")
		if trace == "" {
			return
		}
		if body.Nodes != nil {
			t.Fatalf("query %q: a trace= body carries a nodes block", rawQuery)
		}
		for _, v := range body.Traces {
			if v.Report.TraceID != trace {
				t.Fatalf("query %q: body holds trace %q", rawQuery, v.Report.TraceID)
			}
			for _, s := range v.Spans {
				if s.TraceID != trace {
					t.Fatalf("query %q: trace %q holds a span of trace %q", rawQuery, trace, s.TraceID)
				}
			}
		}
	})
}
