package statz

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"geoserp/internal/analysis"
	"geoserp/internal/crawler"
	"geoserp/internal/httpheader"
	"geoserp/internal/serp"
	"geoserp/internal/storage"
	"geoserp/internal/telemetry"
)

func testPage(links ...string) *serp.Page {
	p := &serp.Page{Query: "q", Location: "0.000000,0.000000"}
	for _, l := range links {
		p.Cards = append(p.Cards, serp.Card{
			Type:    serp.Organic,
			Results: []serp.Result{{URL: l, Title: l}},
		})
	}
	return p
}

func testObs(term, loc string, role storage.Role, day int, p *serp.Page) storage.Observation {
	cp := *p
	cp.Query = term
	return storage.Observation{
		Term:        term,
		Category:    "local",
		Granularity: "county",
		LocationID:  loc,
		Role:        role,
		Day:         day,
		MachineIP:   "10.0.0.1",
		FetchedAt:   campaignEpoch().Add(time.Duration(day) * 24 * time.Hour),
		Page:        &cp,
	}
}

func campaignEpoch() time.Time {
	return time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)
}

// testSweep builds one lock-step sweep: two vantages, both roles. The
// varying link makes successive sweeps personalize differently.
func testSweep(term string, day int) (crawler.SweepInfo, []storage.Observation) {
	info := crawler.SweepInfo{
		Phase:       "test",
		Granularity: "county",
		Term:        term,
		Day:         day,
		Sweep:       day, // caller overrides for multi-sweep feeds
		At:          campaignEpoch().Add(time.Duration(day) * time.Hour),
	}
	near, far := testPage("a", "b"), testPage("a", term)
	return info, []storage.Observation{
		testObs(term, "c/1", storage.Treatment, day, near),
		testObs(term, "c/1", storage.Control, day, near),
		testObs(term, "c/2", storage.Treatment, day, far),
		testObs(term, "c/2", storage.Control, day, far),
	}
}

func feedSweeps(t testing.TB, rec *Recorder, terms ...string) {
	t.Helper()
	for i, term := range terms {
		info, obs := testSweep(term, 0)
		info.Sweep = i
		info.At = campaignEpoch().Add(time.Duration(i) * time.Hour)
		rec.ObserveSweep(info, obs)
	}
}

func TestRecorderRingAndLatest(t *testing.T) {
	rec := NewRecorder(analysis.NewStream())
	feedSweeps(t, rec, "Coffee", "Dentist", "Library")

	if oldest, newest := rec.RingBounds(); oldest != 1 || newest != 3 {
		t.Fatalf("ring bounds = %d-%d, want 1-3", oldest, newest)
	}
	for n := 1; n <= 3; n++ {
		data, ok := rec.SweepJSON(n)
		if !ok {
			t.Fatalf("sweep %d missing from ring", n)
		}
		var snap Snapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			t.Fatalf("sweep %d unparseable: %v", n, err)
		}
		if snap.Sweep != n || snap.Stream.Sweeps != n {
			t.Fatalf("sweep %d snapshot reports sweep=%d stream.sweeps=%d", n, snap.Sweep, snap.Stream.Sweeps)
		}
	}
	if _, ok := rec.SweepJSON(4); ok {
		t.Fatal("future sweep served")
	}
	latest, err := rec.SnapshotJSON(campaignEpoch())
	if err != nil {
		t.Fatal(err)
	}
	ring3, _ := rec.SweepJSON(3)
	if !bytes.Equal(latest, ring3) {
		t.Fatal("latest snapshot differs from the newest ring entry")
	}
}

func TestRecorderRingEviction(t *testing.T) {
	rec := NewRecorder(analysis.NewStream(), WithRingCapacity(2))
	feedSweeps(t, rec, "Coffee", "Dentist", "Library", "Pizza")
	if oldest, newest := rec.RingBounds(); oldest != 3 || newest != 4 {
		t.Fatalf("ring bounds = %d-%d, want 3-4 after eviction", oldest, newest)
	}
	if _, ok := rec.SweepJSON(1); ok {
		t.Fatal("evicted sweep still served")
	}
}

func TestRecorderByteDeterminism(t *testing.T) {
	a, b := NewRecorder(analysis.NewStream()), NewRecorder(analysis.NewStream())
	feedSweeps(t, a, "Coffee", "Dentist")
	feedSweeps(t, b, "Coffee", "Dentist")
	for n := 1; n <= 2; n++ {
		aj, _ := a.SweepJSON(n)
		bj, _ := b.SweepJSON(n)
		if !bytes.Equal(aj, bj) {
			t.Fatalf("sweep %d snapshots differ between identical feeds:\n%s\nvs\n%s", n, aj, bj)
		}
	}
}

func TestRecorderPreCampaignSnapshot(t *testing.T) {
	rec := NewRecorder(analysis.NewStream())
	data, err := rec.SnapshotJSON(campaignEpoch())
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Sweep != 0 || len(snap.Stream.Scorecard) != 0 {
		t.Fatalf("pre-campaign snapshot = %+v", snap)
	}
	if !strings.HasSuffix(string(data), "\n") {
		t.Fatal("snapshot missing trailing newline")
	}
}

func TestRecorderMalformedSweepRecordsError(t *testing.T) {
	rec := NewRecorder(analysis.NewStream())
	rec.ObserveSweep(crawler.SweepInfo{Sweep: 0, At: campaignEpoch()}, nil)
	data, err := rec.SnapshotJSON(campaignEpoch())
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Errors) != 1 || !strings.Contains(snap.Errors[0], "sweep 0") {
		t.Fatalf("errors = %v, want one sweep-0 ingest error", snap.Errors)
	}
}

func TestRecorderProgressEmbedded(t *testing.T) {
	// A progress source stands in for (*crawler.Crawler).ProgressState.
	rec := NewRecorder(analysis.NewStream(), WithProgress(func() crawler.ProgressSnapshot {
		return crawler.ProgressSnapshot{SweepsDone: 1, SweepsTotal: 9, Phase: "test"}
	}))
	feedSweeps(t, rec, "Coffee")
	data, _ := rec.SweepJSON(1)
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Campaign == nil || snap.Campaign.SweepsTotal != 9 || snap.Campaign.Phase != "test" {
		t.Fatalf("campaign block = %+v", snap.Campaign)
	}
}

func TestHandlerServesSnapshotsAndBuild(t *testing.T) {
	reg := telemetry.NewRegistry()
	rec := NewRecorder(analysis.NewStream(analysis.WithStreamTelemetry(reg)))
	feedSweeps(t, rec, "Coffee", "Dentist")
	srv := httptest.NewServer(Mux(rec, func() time.Time { return campaignEpoch() }, reg, nil))
	defer srv.Close()

	get := func(path string, wantStatus int) ([]byte, http.Header) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("GET %s = %d, want %d", path, resp.StatusCode, wantStatus)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body, resp.Header
	}

	body, hdr := get("/statz", http.StatusOK)
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/statz unparseable: %v", err)
	}
	if snap.Sweep != 2 {
		t.Fatalf("/statz sweep = %d, want 2", snap.Sweep)
	}
	if snap.Build.GoVersion == "" {
		t.Fatal("/statz build block missing go_version")
	}
	if hdr.Get(httpheader.StatzRing) != "1-2" {
		t.Fatalf("X-Statz-Ring = %q, want 1-2", hdr.Get(httpheader.StatzRing))
	}

	ring1, _ := rec.SweepJSON(1)
	body, _ = get("/statz?sweep=1", http.StatusOK)
	if !bytes.Equal(body, ring1) {
		t.Fatal("/statz?sweep=1 differs from the frozen ring bytes")
	}
	get("/statz?sweep=99", http.StatusNotFound)
	get("/statz?sweep=bogus", http.StatusBadRequest)
	get("/statz?sweep=0", http.StatusBadRequest)

	body, hdr = get("/statz?format=html", http.StatusOK)
	if !strings.Contains(hdr.Get("Content-Type"), "text/html") {
		t.Fatalf("html content type = %q", hdr.Get("Content-Type"))
	}
	if !strings.Contains(string(body), "<h1>statz</h1>") || !strings.Contains(string(body), "scorecard") {
		t.Fatalf("html page missing scorecard: %.200s", body)
	}

	body, _ = get("/metricsz", http.StatusOK)
	if !strings.Contains(string(body), "stream_sweeps_ingested_total 2") {
		t.Fatalf("/metricsz missing stream counters: %.300s", body)
	}
}

func TestHandlerHTMLViaAcceptHeader(t *testing.T) {
	rec := NewRecorder(analysis.NewStream())
	feedSweeps(t, rec, "Coffee")
	srv := httptest.NewServer(rec.Handler(func() time.Time { return campaignEpoch() }))
	defer srv.Close()
	req, _ := http.NewRequest("GET", srv.URL, nil)
	req.Header.Set("Accept", "text/html,application/xhtml+xml")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "<h1>statz</h1>") {
		t.Fatalf("Accept: text/html did not switch to HTML: %.120s", body)
	}
}

// FuzzStatz drives the recorder's /statz handler, over a 3-sweep ring
// that has seen five sweeps, with an arbitrary raw query (sweep=,
// format=) and Accept header. No input may panic it; it answers 200, 400
// or 404; a JSON 200 decodes as a Snapshot; and sweep=N answers 200
// exactly when N lies within the X-Statz-Ring bounds, with SweepJSON(N)'s
// bytes when the answer is JSON. The request is built by hand, since
// httptest.NewRequest panics on a target it cannot parse.
func FuzzStatz(f *testing.F) {
	rec := NewRecorder(analysis.NewStream(), WithRingCapacity(3))
	feedSweeps(f, rec, "Coffee", "Dentist", "Library", "Pizza", "School")
	h := rec.Handler(campaignEpoch)
	oldest, newest := rec.RingBounds()
	ring := fmt.Sprintf("%d-%d", oldest, newest)
	// raw query, Accept
	for _, seed := range [][2]string{
		{"", ""},
		{"sweep=3", ""},
		{"sweep=5&format=html", ""},
		{"sweep=1", ""},
		{"sweep=6", ""},
		{"sweep=0", ""},
		{"sweep=-2", "text/html"},
		{"sweep=bogus", ""},
		{"sweep=%zz&format=html", ""},
		{"sweep=4&sweep=1", "text/html"},
		{"sweep=99999999999999999999", ""},
		{"format=json", "text/html,application/xhtml+xml"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, rawQuery, accept string) {
		r := &http.Request{
			Method: http.MethodGet,
			URL:    &url.URL{Path: "/statz", RawQuery: rawQuery},
			Header: http.Header{"Accept": {accept}},
			Body:   http.NoBody,
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		switch w.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound:
		default:
			t.Fatalf("query %q: status %d, want 200, 400 or 404", rawQuery, w.Code)
		}
		q := r.URL.Query()
		asJSON := q.Get("format") != "html" && (q.Get("format") != "" || !strings.Contains(accept, "text/html"))
		if got := w.Header().Get(httpheader.StatzRing); w.Code == http.StatusOK && got != ring {
			t.Fatalf("query %q: X-Statz-Ring %q, want %q", rawQuery, got, ring)
		}
		var snap Snapshot
		if w.Code == http.StatusOK && asJSON {
			if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
				t.Fatalf("query %q: body does not decode: %v", rawQuery, err)
			}
		}
		v := q.Get("sweep")
		if v == "" {
			if w.Code != http.StatusOK {
				t.Fatalf("query %q: status %d for the latest snapshot", rawQuery, w.Code)
			}
			return
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			if w.Code != http.StatusBadRequest {
				t.Fatalf("query %q: status %d for sweep %q, want 400", rawQuery, w.Code, v)
			}
			return
		}
		if inRing := n >= oldest && n <= newest; inRing != (w.Code == http.StatusOK) {
			t.Fatalf("query %q: status %d for sweep %d, ring %s", rawQuery, w.Code, n, ring)
		}
		if data, ok := rec.SweepJSON(n); ok && asJSON && !bytes.Equal(w.Body.Bytes(), data) {
			t.Fatalf("query %q: body differs from SweepJSON(%d)", rawQuery, n)
		}
	})
}
