package serpserver

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"geoserp/internal/engine"
	"geoserp/internal/httpheader"
	"geoserp/internal/serp"
)

// TestStatzJSONKeysUnchanged is the /statz wire-format regression test:
// the keys existed before the telemetry registry and dashboards depend on
// them, so reading from the registry must not rename or drop any.
func TestStatzJSONKeysUnchanged(t *testing.T) {
	h := testHandler(t, nil)
	get(t, h, "/search?q=Coffee&ll=41.5,-81.7", nil)
	w := get(t, h, "/statz", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(w.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"requests", "errors", "sessions",
		"served", "rate_limited", "day", "served_by_datacenter", "build",
	} {
		if _, ok := raw[key]; !ok {
			t.Errorf("/statz missing key %q", key)
		}
	}
	var st Stats
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	// The build block identifies the binary serving the audit surface; the
	// Go version is the one field present even without VCS stamping.
	if st.Build.GoVersion == "" {
		t.Error("/statz build block missing go_version")
	}
	// Two requests so far: /search and this /statz is not yet counted in
	// its own snapshot — the search plus the statz request itself race
	// only in ordering, not in count, because ServeHTTP counts before
	// routing.
	if st.Requests < 1 || st.Served != 1 || st.Sessions != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestHealthz(t *testing.T) {
	h := testHandler(t, nil)
	w := get(t, h, "/healthz", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	if strings.TrimSpace(w.Body.String()) != "ok" {
		t.Fatalf("body = %q", w.Body.String())
	}
}

func TestMetricszExposition(t *testing.T) {
	h := testHandler(t, func(cfg *engine.Config) {
		cfg.RateBurst = 2
		cfg.RatePerMinute = 0.001
	})
	// Two served, one rate-limited, one bad request.
	get(t, h, "/search?q=Coffee&ll=41.5,-81.7", nil)
	get(t, h, "/search?q=Coffee&ll=41.5,-81.7", nil)
	if w := get(t, h, "/search?q=Coffee&ll=41.5,-81.7", nil); w.Code != http.StatusTooManyRequests {
		t.Fatalf("third search status = %d, want 429", w.Code)
	}
	if w := get(t, h, "/search?q=&ll=bad", nil); w.Code != http.StatusBadRequest {
		t.Fatalf("bad search status = %d, want 400", w.Code)
	}

	w := get(t, h, "/metricsz", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("metricsz status = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	out := w.Body.String()
	for _, want := range []string{
		`serpd_http_responses_total{code="200"} 2`,
		`serpd_http_responses_total{code="429"} 1`,
		`serpd_http_responses_total{code="400"} 1`,
		`serpd_cards_served_total{type="organic"}`,
		"# TYPE serpd_http_request_duration_seconds histogram",
		"serpd_http_request_duration_seconds_count 4",
		"# TYPE engine_stage_duration_seconds histogram",
		"engine_ratelimited_total 1",
		`engine_requests_total{datacenter=`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metricsz missing %q:\n%s", want, out)
		}
	}
}

func TestStatusRecorderDefaultsTo200(t *testing.T) {
	// Body written without WriteHeader: implicit 200.
	rec := &statusRecorder{ResponseWriter: httptest.NewRecorder()}
	rec.Write([]byte("hi"))
	if rec.Status() != http.StatusOK {
		t.Fatalf("implicit write status = %d", rec.Status())
	}
	// Handler that never writes anything at all: still 200, never 0.
	rec = &statusRecorder{ResponseWriter: httptest.NewRecorder()}
	if rec.Status() != http.StatusOK {
		t.Fatalf("no-write status = %d", rec.Status())
	}
	// Explicit status wins, and only the first one counts.
	rec = &statusRecorder{ResponseWriter: httptest.NewRecorder()}
	rec.WriteHeader(http.StatusTeapot)
	rec.Write([]byte("tea"))
	if rec.Status() != http.StatusTeapot {
		t.Fatalf("explicit status = %d", rec.Status())
	}
}

func TestTraceEchoAndPageRecord(t *testing.T) {
	h := testHandler(t, nil)
	const trace = "00c0ffee00c0ffee"
	w := get(t, h, "/search?q=Coffee&ll=41.5,-81.7&format=json",
		map[string]string{httpheader.TraceID: trace})
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	if got := w.Header().Get(httpheader.TraceID); got != trace {
		t.Fatalf("echoed trace = %q, want %q", got, trace)
	}
	var page serp.Page
	if err := json.Unmarshal(w.Body.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	if page.TraceID != trace {
		t.Fatalf("page trace = %q, want %q", page.TraceID, trace)
	}
	// Untraced requests stay untraced: no header, no trace_id field.
	w = get(t, h, "/search?q=Coffee&ll=41.5,-81.7&format=json", nil)
	if got := w.Header().Get(httpheader.TraceID); got != "" {
		t.Fatalf("untraced request echoed %q", got)
	}
	if strings.Contains(w.Body.String(), "trace_id") {
		t.Fatal("untraced page carries a trace_id field")
	}
}
