package serpserver

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"geoserp/internal/engine"
	"geoserp/internal/httpheader"
	"geoserp/internal/serp"
	"geoserp/internal/simclock"
	"geoserp/internal/telemetry"
)

// stageTable is the engine's stage table in order, as its
// TestStageVocabulary pins it.
var stageTable = []string{"parse", "noise", "history", "retrieve", "rerank", "assemble"}

// FuzzSearch drives /search on a handler that records spans and wide
// events, over an engine on a Manual clock, with an arbitrary raw query,
// User-Agent, SID cookie and X-Datacenter, X-Deadline-Ms, X-Trace-Id and
// X-Trace-Attempt values. No input may panic it, and it answers 200, 400,
// 429 or 503. A format=json 200 decodes as a serp.Page; any other 200,
// whatever its User-Agent, parses with serp.ParseHTML, is RenderHTML of
// what it parses to, and carries its length as Content-Length. The
// request's engine.* spans all end before the request span, and they and
// its search.wide record list the same prefix of the stage table: all six
// stages on a 200. The request is built by hand,
// since httptest.NewRequest panics on a target it cannot parse.
func FuzzSearch(f *testing.F) {
	epoch := time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)
	clk := simclock.NewManual(epoch)
	cfg := engine.DefaultConfig()
	// Every input comes from one client IP on a clock that never moves:
	// at the default budget all but the first 30 would be answered 429.
	cfg.RateBurst = 1 << 30
	cfg.RatePerMinute = 1 << 30
	spans := telemetry.NewSpanRecorder(64, clk)
	var wideLog bytes.Buffer
	h := NewHandler(engine.New(cfg, clk), WithSpans(spans),
		WithWideEvents(slog.New(telemetry.NewLogHandler(&wideLog, "json", slog.LevelInfo))))

	const (
		mobile  = "Mozilla/5.0 (iPhone; CPU iPhone OS 8_4 like Mac OS X) Mobile/12H143"
		desktop = "Mozilla/5.0 (Windows NT 6.1; WOW64) Gecko/20100101 Firefox/38.0"
	)
	past := strconv.FormatInt(epoch.Add(-time.Second).UnixMilli(), 10)
	future := strconv.FormatInt(epoch.Add(time.Hour).UnixMilli(), 10)
	// raw query, User-Agent, SID, X-Datacenter, X-Deadline-Ms, X-Trace-Id,
	// X-Trace-Attempt
	for _, seed := range [][7]string{
		{"q=Coffee&ll=41.4993,-81.6944", mobile, "", "", "", "", ""},
		{"q=Coffee&ll=41.4993,-81.6944&format=json", mobile, "sid-7", "dc-1", future, "cafe0123cafe0123", "2"},
		{"q=Starbucks&ll=41.4993,-81.6944", desktop, "", "", "", "beef0123beef0123", ""},
		{"q=Barack+Obama&format=json", desktop, "s", "dc-99", past, "", ""},
		{"q=Gay%20Marriage&format=xml", "", "", "", "-5", "t", "-1"},
		{"q=", mobile, "", "", "", "", ""},
		{"q=%20&ll=1,2", "", "", "", "", "", ""},
		{"q=School&ll=999,0", mobile, "", "", "", "", ""},
		{"q=%zz&ll=%", "", "", "", "", "", "99999999999999999999"},
		{"q=<b>%26amp;\xff\x00&q=School", mobile, "\x00", "dc-0", future, "x status=500 stages=parse:1", "1"},
	} {
		f.Add(seed[0], seed[1], seed[2], seed[3], seed[4], seed[5], seed[6])
	}

	f.Fuzz(func(t *testing.T, rawQuery, ua, sid, dc, deadline, trace, attempt string) {
		r := &http.Request{
			Method:     http.MethodGet,
			URL:        &url.URL{Path: "/search", RawQuery: rawQuery},
			Header:     http.Header{},
			Body:       http.NoBody,
			RemoteAddr: "192.0.2.10:54321",
		}
		r.Header.Set("User-Agent", ua)
		if sid != "" {
			r.Header.Set("Cookie", SessionCookie+"="+sid)
		}
		r.Header.Set(httpheader.Datacenter, dc)
		r.Header.Set(httpheader.DeadlineMs, deadline)
		r.Header.Set(httpheader.TraceID, trace)
		r.Header.Set(httpheader.TraceAttempt, attempt)
		cursor := spans.Total()
		wideLog.Reset()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		switch w.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("query %q: status %d, want 200, 400, 429 or 503", rawQuery, w.Code)
		}

		// Spans are recorded as they end, so the request span comes last.
		recorded, _, _ := spans.SnapshotRange(cursor, 0)
		if n := len(recorded); n == 0 || recorded[n-1].Name != "serpd.request" {
			t.Fatalf("query %q: the request span was not recorded last: %+v", rawQuery, recorded)
		}
		reqSpan := recorded[len(recorded)-1]
		var stages []string
		for _, s := range recorded[:len(recorded)-1] {
			name, ok := strings.CutPrefix(s.Name, "engine.")
			if !ok || s.ParentID != reqSpan.SpanID {
				t.Fatalf("query %q: span %q (parent %s) is not a stage of request span %s",
					rawQuery, s.Name, s.ParentID, reqSpan.SpanID)
			}
			stages = append(stages, name)
		}
		if len(stages) > len(stageTable) || !slices.Equal(stages, stageTable[:len(stages)]) {
			t.Fatalf("query %q: engine spans %v are not a prefix of the stage table %v", rawQuery, stages, stageTable)
		}
		if w.Code == http.StatusOK && len(stages) != len(stageTable) {
			t.Fatalf("query %q: a 200 recorded engine spans %v, want all of %v", rawQuery, stages, stageTable)
		}
		if wide := wideStages(t, wideLog.Bytes()); !slices.Equal(wide, stages) {
			t.Fatalf("query %q: search.wide stages %v, engine spans %v", rawQuery, wide, stages)
		}

		if w.Code != http.StatusOK {
			return
		}
		body := w.Body.Bytes()
		if r.URL.Query().Get("format") == "json" {
			var page serp.Page
			if err := json.Unmarshal(body, &page); err != nil {
				t.Fatalf("query %q: JSON page does not decode: %v", rawQuery, err)
			}
			return
		}
		parsePage(t, string(body))
		if cl := w.Header().Get("Content-Length"); cl != strconv.Itoa(len(body)) {
			t.Fatalf("query %q: Content-Length %q for a %d-byte page", rawQuery, cl, len(body))
		}
	})
}

// wideStages returns the stage names in the one search.wide record that
// log holds as a JSON line.
func wideStages(t *testing.T, log []byte) []string {
	t.Helper()
	var line struct{ Msg, Record string }
	if err := json.Unmarshal(log, &line); err != nil || line.Msg != "search.wide" {
		t.Fatalf("wide log %q is not one search.wide record: %v", log, err)
	}
	// The record opens with the request's trace ID, which may hold any
	// text; the fields after its last " status=" are the handler's own.
	i := strings.LastIndex(line.Record, " status=")
	if i < 0 {
		t.Fatalf("search.wide record %q has no status", line.Record)
	}
	_, list, ok := strings.Cut(line.Record[i:], " stages=")
	if !ok {
		return nil
	}
	list, _, _ = strings.Cut(list, " ")
	var names []string
	for _, stage := range strings.Split(list, ",") {
		name, _, _ := strings.Cut(stage, ":")
		names = append(names, name)
	}
	return names
}
