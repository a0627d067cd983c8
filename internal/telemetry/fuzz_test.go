package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"slices"
	"strconv"
	"testing"
	"time"
	"unicode/utf8"

	"geoserp/internal/simclock"
)

// FuzzSpanz fuzzes both ends of the /spanz export.
//
// Client: FetchSpanz pages through the fuzzed bodies (pages split at NUL
// bytes), served in memory one per request, with an error for every
// request after the last. It must not panic; it makes at most one request
// per body plus one, each at the cursor the page before returned; it stops
// at the first reply that is an error, not a page, the last page
// (next_cursor >= total) or a page short of the total that does not
// advance the cursor; it returns a nil error only after the last page; and
// its spans are the decoded pages' spans, in order.
//
// Server: a recorder of ringCap slots records n spans named name, each
// with the attribute val, and SpanzHandler serves it. The fuzzed cursor and
// limit query values never panic it: a value it rejects gets a 400, and any
// other request the page SnapshotRange gives for that cursor and the capped
// limit. FetchSpanz over the handler returns the recorder's Snapshot when
// name and val are valid UTF-8 (encoding/json rewrites invalid bytes).
func FuzzSpanz(f *testing.F) {
	clk := simclock.NewManual(testEpoch)
	rec := NewSpanRecorder(4, clk)
	recordNamed(rec, clk, 6, "op", "v") // the ring holds lifetime spans 2..5
	page := func(query string) []byte {
		w := httptest.NewRecorder()
		SpanzHandler(rec, "seed").ServeHTTP(w, httptest.NewRequest("GET", SpanzPath+"?"+query, nil))
		return w.Body.Bytes()
	}
	first, last := page("cursor=0&limit=2"), page("cursor=4&limit=2")
	stuck := []byte(`{"version":1,"node":"n","total":5,"cursor":0,"next_cursor":0,"spans":[` +
		`{"trace_id":"t","span_id":"0000000000000001","name":"op","start":"2015-06-01T00:00:00Z","end":"2015-06-01T00:00:00Z"}]}`)
	f.Add(bytes.Join([][]byte{first, last}, []byte{0}), uint8(4), uint8(6), "op", "v", "", "")
	f.Add(append(slices.Clone(first), 0), uint8(2), uint8(9), "shard.search", "<&>", "3", "2")
	f.Add(stuck, uint8(8), uint8(20), "ünïcode", " ", "0", "8193")
	f.Add(bytes.Join([][]byte{first, stuck}, []byte{0}), uint8(16), uint8(0), "", "", "18446744073709551615", "1")
	f.Add([]byte(`{"version":2,"total":1}`), uint8(1), uint8(3), "\xff", "\xfe", "-1", "0")
	f.Add([]byte("not json"), uint8(0), uint8(1), "op", "v", "x", "99999999999999999999")
	f.Fuzz(func(t *testing.T, pages []byte, ringCap, n uint8, name, val, cursor, limit string) {
		checkFetchSpanz(t, bytes.Split(pages, []byte{0}))

		clk := simclock.NewManual(testEpoch)
		rec := NewSpanRecorder(int(ringCap%16)+1, clk)
		recordNamed(rec, clk, int(n%40), name, val)
		checkSpanzHandler(t, rec, cursor, limit)
		if utf8.ValidString(name) && utf8.ValidString(val) {
			got, err := FetchSpanz(&http.Client{Transport: handlerTransport{SpanzHandler(rec, "node")}}, "http://node")
			if err != nil {
				t.Fatal(err)
			}
			if want := rec.Snapshot(); !sameSpans(got.Spans, want) {
				t.Fatalf("FetchSpanz returned %+v, the recorder holds %+v", got.Spans, want)
			}
		}
	})
}

// checkFetchSpanz runs FetchSpanz over bodies and checks the client
// properties of FuzzSpanz.
func checkFetchSpanz(t *testing.T, bodies [][]byte) {
	t.Helper()
	tr := &bodyTransport{bodies: bodies}
	got, err := FetchSpanz(&http.Client{Transport: tr}, "http://node")
	var want []SpanRecord
	next, ended, caughtUp := uint64(0), false, false
	for i, u := range tr.urls {
		if ended {
			t.Fatalf("request %d made after the fetch should have ended", i)
		}
		if c := u.Query().Get("cursor"); c != strconv.FormatUint(next, 10) {
			t.Fatalf("request %d asked cursor %s, want %d", i, c, next)
		}
		var p SpanzPage
		if i >= len(bodies) || json.Unmarshal(bodies[i], &p) != nil || p.Version != SpanzVersion {
			ended = true
			continue
		}
		want = append(want, p.Spans...)
		caughtUp = p.NextCursor >= p.Total
		ended = caughtUp || p.NextCursor <= next
		next = p.NextCursor
	}
	if !ended {
		t.Fatalf("fetch ended after %d requests with no reply that ends it", len(tr.urls))
	}
	if (err == nil) != caughtUp {
		t.Fatalf("FetchSpanz error %v, but the last page caught up: %v", err, caughtUp)
	}
	if !reflect.DeepEqual(got.Spans, want) {
		t.Fatalf("FetchSpanz returned %+v, the pages carry %+v", got.Spans, want)
	}
}

// checkSpanzHandler asks rec's handler for one page at the fuzzed query
// values and checks it against SnapshotRange.
func checkSpanzHandler(t *testing.T, rec *SpanRecorder, cursor, limit string) {
	t.Helper()
	w := httptest.NewRecorder()
	query := url.Values{"cursor": {cursor}, "limit": {limit}}.Encode()
	SpanzHandler(rec, "node").ServeHTTP(w, httptest.NewRequest("GET", SpanzPath+"?"+query, nil))

	c, l := uint64(0), DefaultSpanzLimit
	var cerr, lerr error
	if cursor != "" {
		c, cerr = strconv.ParseUint(cursor, 10, 64)
	}
	if limit != "" {
		if l, lerr = strconv.Atoi(limit); lerr == nil && l <= 0 {
			lerr = errors.New("non-positive limit")
		}
	}
	if cerr != nil || lerr != nil {
		if w.Code != http.StatusBadRequest {
			t.Fatalf("cursor %q limit %q: status %d, want 400", cursor, limit, w.Code)
		}
		return
	}
	if w.Code != http.StatusOK {
		t.Fatalf("cursor %q limit %q: status %d: %s", cursor, limit, w.Code, w.Body.String())
	}
	spans, start, total := rec.SnapshotRange(c, min(l, MaxSpanzLimit))
	want := SpanzPage{Version: SpanzVersion, Node: "node", Total: total, Cursor: start,
		NextCursor: start + uint64(len(spans)), Spans: spans}
	if start > c {
		want.Dropped = start - c
	}
	// Decode both, so invalid UTF-8 is rewritten on either side alike.
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var gotPage, wantPage SpanzPage
	if err := json.Unmarshal(w.Body.Bytes(), &gotPage); err != nil {
		t.Fatalf("cursor %q limit %q: %v", cursor, limit, err)
	}
	if err := json.Unmarshal(wantJSON, &wantPage); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotPage, wantPage) {
		t.Fatalf("cursor %q limit %q: page %+v, want %+v", cursor, limit, gotPage, wantPage)
	}
}

// recordNamed records n spans named name, each with the attribute val.
func recordNamed(rec *SpanRecorder, clk *simclock.Manual, n int, name, val string) {
	for i := 0; i < n; i++ {
		s := rec.StartRootSeq("trace-fuzz", name, i)
		s.SetAttr("val", val)
		clk.Advance(time.Millisecond)
		s.End()
	}
}

// sameSpans compares span records, times by instant.
func sameSpans(a, b []SpanRecord) bool {
	return slices.EqualFunc(a, b, func(x, y SpanRecord) bool {
		return x.TraceID == y.TraceID && x.SpanID == y.SpanID && x.ParentID == y.ParentID && x.Name == y.Name &&
			x.Start.Equal(y.Start) && x.End.Equal(y.End) && slices.Equal(x.Attrs, y.Attrs)
	})
}

// bodyTransport answers the i-th request with bodies[i] and every request
// after the last body with an error, recording each request's URL.
type bodyTransport struct {
	bodies [][]byte
	urls   []*url.URL
}

func (tr *bodyTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	i := len(tr.urls)
	tr.urls = append(tr.urls, r.URL)
	if i >= len(tr.bodies) {
		return nil, errors.New("no more pages")
	}
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{},
		Body: io.NopCloser(bytes.NewReader(tr.bodies[i])), Request: r}, nil
}

// handlerTransport serves every request through h, in memory.
type handlerTransport struct{ h http.Handler }

func (tr handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	w := httptest.NewRecorder()
	tr.h.ServeHTTP(w, r)
	return w.Result(), nil
}
