package router

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"
	"time"

	"geoserp/internal/httpheader"
	"geoserp/internal/simclock"
	"geoserp/internal/telemetry"
)

// FuzzShardSearch drives a spans-enabled shard node's /shard/search with
// an arbitrary raw query and arbitrary X-Deadline-Ms, X-Trace-Attempt and
// X-Parent-Span values. No input may panic it, it answers 200, 400 or
// 503, and every 200 is one frame that decodes against the node's
// document table, echoes its shard, replica and fingerprint, and carries
// at most maxShardK hits. The request is built by hand, since
// httptest.NewRequest panics on a target it cannot parse.
func FuzzShardSearch(f *testing.F) {
	clock := simclock.NewManual(epoch)
	fx := newFrameFixture(WithShardClock(clock),
		WithShardSpans(telemetry.NewSpanRecorder(16, clock)))
	past := strconv.FormatInt(epoch.Add(-time.Second).UnixMilli(), 10)
	future := strconv.FormatInt(epoch.Add(time.Second).UnixMilli(), 10)
	for _, seed := range [][4]string{
		{"q=coffee&k=5", "", "", ""},
		{"q=local&k=9999", future, "2", "00f067aa0ba902b7"},
		{"q=pizza", past, "1", ""},
		{"q=pizza", "-5", "-1", "not-a-span"},
		{"q=", "", "", ""},
		{"q=coffee&k=0", "", "99999999999999999999", ""},
		{"q=coffee&k=bogus", "1e3", "", "00F067AA0BA902B7"},
		{"q=%zz&k=%", "", "", ""},
		{"q=coffee&q=pizza&k=48", "", "", ""},
		{"q=\xff\x00;k=3", "", "", ""},
	} {
		f.Add(seed[0], seed[1], seed[2], seed[3])
	}

	f.Fuzz(func(t *testing.T, rawQuery, deadline, attempt, parent string) {
		r := &http.Request{
			Method: http.MethodGet,
			URL:    &url.URL{Path: SearchPath, RawQuery: rawQuery},
			Header: http.Header{},
			Body:   http.NoBody,
		}
		r.Header.Set(httpheader.TraceID, "fuzz-trace")
		r.Header.Set(httpheader.DeadlineMs, deadline)
		r.Header.Set(httpheader.TraceAttempt, attempt)
		r.Header.Set(httpheader.ParentSpan, parent)
		w := httptest.NewRecorder()
		fx.shard.ServeHTTP(w, r)
		switch w.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusServiceUnavailable:
			return
		default:
			t.Fatalf("query %q: status %d, want 200, 400 or 503", rawQuery, w.Code)
		}
		sr, err := decodeFrame(w.Body.Bytes(), fx.docs)
		if err != nil {
			t.Fatalf("query %q: 200 body does not decode: %v", rawQuery, err)
		}
		if sr.Shard != 0 || sr.Replica != 1 || sr.Corpus != fx.corpus {
			t.Fatalf("query %q: frame from shard %d replica %d fingerprint %s, want 0, 1, %s",
				rawQuery, sr.Shard, sr.Replica, corpusHex(sr.Corpus), corpusHex(fx.corpus))
		}
		if len(sr.Hits) > maxShardK {
			t.Fatalf("query %q: %d hits, more than %d", rawQuery, len(sr.Hits), maxShardK)
		}
	})
}
