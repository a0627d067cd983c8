package browser

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"geoserp/internal/detrand"
	"geoserp/internal/httpheader"
	"geoserp/internal/serp"
	"geoserp/internal/simclock"
	"geoserp/internal/telemetry"
)

// shedServer answers 503 (with Retry-After ra when non-empty) for the first
// n requests, then serves a valid page. n < 0 sheds forever.
func shedServer(t *testing.T, n int, ra string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var count atomic.Int64
	ok := okHandler(t)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if c := count.Add(1); n < 0 || c <= int64(n) {
			if ra != "" {
				w.Header().Set("Retry-After", ra)
			}
			http.Error(w, "server overloaded, request shed (queue_full)", http.StatusServiceUnavailable)
			return
		}
		ok.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv, &count
}

// driveSearch runs Search in a goroutine while advancing the virtual clock
// through its sleeps, returning the search error.
func driveSearch(t *testing.T, b *Browser, clk *simclock.Manual) error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := b.Search("x")
		done <- err
	}()
	for {
		select {
		case err := <-done:
			return err
		default:
			if next, ok := clk.NextDeadline(); ok {
				clk.AdvanceTo(next)
			} else {
				time.Sleep(50 * time.Microsecond)
			}
		}
	}
}

func TestRetryAfterOverridesLinearBackoff(t *testing.T) {
	// One 503 naming a 7-second wait, then success. The linear policy would
	// sleep a full minute; honouring the server means exactly 7s elapse.
	srv, count := shedServer(t, 1, "7")
	epoch := time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)
	clk := simclock.NewManual(epoch)
	b, err := New(srv.URL, WithRetry(3, time.Minute), WithClock(clk))
	if err != nil {
		t.Fatal(err)
	}
	if serr := driveSearch(t, b, clk); serr != nil {
		t.Fatalf("search failed despite the shed clearing: %v", serr)
	}
	if got := count.Load(); got != 2 {
		t.Fatalf("requests = %d, want 2", got)
	}
	if got := clk.Now().Sub(epoch); got != 7*time.Second {
		t.Fatalf("virtual time advanced %s, want the server-named 7s (linear policy would sleep 1m)", got)
	}
}

func TestRetryAfterHonouredOn429(t *testing.T) {
	// The same override applies to rate-limit pushback: flakyServer names a
	// 1-second wait on its 429s, which must beat the 1-minute linear base.
	srv, count := flakyServer(t, 2)
	epoch := time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)
	clk := simclock.NewManual(epoch)
	b, err := New(srv.URL, WithRetry(4, time.Minute), WithClock(clk))
	if err != nil {
		t.Fatal(err)
	}
	if serr := driveSearch(t, b, clk); serr != nil {
		t.Fatalf("search failed despite retries: %v", serr)
	}
	if got := count.Load(); got != 3 {
		t.Fatalf("requests = %d, want 3", got)
	}
	if got := clk.Now().Sub(epoch); got != 2*time.Second {
		t.Fatalf("virtual time advanced %s, want 2 server-named seconds", got)
	}
}

func TestShedsAreExemptFromRetryAttempts(t *testing.T) {
	// Five shed waves then success, with only two attempts in the failure
	// budget: sheds must not consume it.
	srv, count := shedServer(t, 5, "")
	reg := telemetry.NewRegistry()
	b, err := New(srv.URL, WithRetry(2, 0), WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	if _, serr := b.Search("x"); serr != nil {
		t.Fatalf("search failed despite shed-exempt retries: %v", serr)
	}
	if got := count.Load(); got != 6 {
		t.Fatalf("requests = %d, want 6", got)
	}
	if got := reg.Counter("browser_shed_total", "").Value(); got != 5 {
		t.Fatalf("browser_shed_total = %d, want 5", got)
	}
}

func TestShedRetriesBoundSustainedOverload(t *testing.T) {
	// A server that never stops shedding: the separate shed cap is what
	// terminates the search, and the error keeps its shed classification.
	srv, count := shedServer(t, -1, "")
	b, err := New(srv.URL, WithRetry(2, 0), WithShedRetries(3))
	if err != nil {
		t.Fatal(err)
	}
	_, serr := b.Search("x")
	if serr == nil {
		t.Fatal("search succeeded against a permanently shedding server")
	}
	if !IsShed(serr) || !IsTransient(serr) {
		t.Fatalf("terminal shed error lost its classification: %v", serr)
	}
	if got := count.Load(); got != 4 {
		t.Fatalf("requests = %d, want 4 (1 + 3 shed retries)", got)
	}

	// WithShedRetries(0): the first 503 is terminal even with attempts left.
	srv0, count0 := shedServer(t, -1, "")
	b0, err := New(srv0.URL, WithRetry(5, 0), WithShedRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, serr := b0.Search("x"); !IsShed(serr) {
		t.Fatalf("err = %v, want a shed", serr)
	}
	if got := count0.Load(); got != 1 {
		t.Fatalf("requests = %d, want 1", got)
	}
}

func TestOversizeBodyFailsPermanently(t *testing.T) {
	var count atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		count.Add(1)
		w.Write(bytes.Repeat([]byte("x"), 4096))
	}))
	defer srv.Close()
	b, err := New(srv.URL, WithRetry(5, 0), WithMaxBodySize(1024))
	if err != nil {
		t.Fatal(err)
	}
	_, serr := b.Search("x")
	if !errors.Is(serr, ErrBodyTooLarge) {
		t.Fatalf("err = %v, want ErrBodyTooLarge", serr)
	}
	if IsTransient(serr) {
		t.Fatalf("oversize body classified transient: %v", serr)
	}
	// Permanent: re-downloading would overflow the cap every time.
	if got := count.Load(); got != 1 {
		t.Fatalf("oversize body was re-fetched: %d requests", got)
	}
}

func TestBodyExactlyAtCapIsAccepted(t *testing.T) {
	page := &serp.Page{
		Query:    "x",
		Location: "1.000000,2.000000",
		Cards: []serp.Card{{
			Type:    serp.Organic,
			Results: []serp.Result{{URL: "https://a/", Title: "A"}},
		}},
	}
	html := serp.RenderHTML(page)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, html)
	}))
	defer srv.Close()
	b, err := New(srv.URL, WithMaxBodySize(int64(len(html))))
	if err != nil {
		t.Fatal(err)
	}
	if _, serr := b.Search("x"); serr != nil {
		t.Fatalf("a body exactly at the cap was rejected: %v", serr)
	}
}

func TestBreakerOpensFailsFastAndRecloses(t *testing.T) {
	var healthy atomic.Bool
	var count atomic.Int64
	ok := okHandler(t)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		count.Add(1)
		if !healthy.Load() {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		ok.ServeHTTP(w, r)
	}))
	defer srv.Close()
	clk := simclock.NewManual(time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC))
	reg := telemetry.NewRegistry()
	b, err := New(srv.URL, WithBreaker(2, time.Minute), WithClock(clk), WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, serr := b.Search("x"); serr == nil {
			t.Fatal("500 accepted")
		}
	}
	if b.BreakerState() != "open" {
		t.Fatalf("state = %s after threshold failures, want open", b.BreakerState())
	}
	// Open: fail fast without touching the wire, naming the cooldown.
	_, serr := b.Search("x")
	if !errors.Is(serr, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", serr)
	}
	if ra, ok := RetryAfter(serr); !ok || ra != time.Minute {
		t.Fatalf("RetryAfter = (%s, %v), want the full cooldown", ra, ok)
	}
	if got := count.Load(); got != 2 {
		t.Fatalf("open breaker let a request through: %d requests", got)
	}
	// Cooldown elapses; the half-open probe still fails, so it reopens.
	clk.Advance(time.Minute)
	if _, serr := b.Search("x"); serr == nil {
		t.Fatal("failing probe accepted")
	}
	if got := count.Load(); got != 3 {
		t.Fatalf("half-open admitted %d probes, want exactly 1", count.Load()-2)
	}
	if b.BreakerState() != "open" {
		t.Fatalf("state = %s after a failed probe, want open", b.BreakerState())
	}
	// Faults clear; the next probe closes the breaker.
	clk.Advance(time.Minute)
	healthy.Store(true)
	if _, serr := b.Search("x"); serr != nil {
		t.Fatalf("search failed after recovery: %v", serr)
	}
	if b.BreakerState() != "closed" {
		t.Fatalf("state = %s after recovery, want closed", b.BreakerState())
	}
	got := reg.CounterVec("browser_breaker_transitions_total", "", "transition").Values()
	want := map[string]uint64{"open": 1, "half_open": 2, "reopen": 1, "close": 1}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("transitions = %v, want %v", got, want)
	}
}

func TestPushbackDoesNotTripBreaker(t *testing.T) {
	// 429s and 503 sheds are explicit pushback from a live server; even a
	// hair-trigger breaker must stay closed through them.
	for _, status := range []int{http.StatusTooManyRequests, http.StatusServiceUnavailable} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			http.Error(w, "pushback", status)
		}))
		b, err := New(srv.URL, WithBreaker(1, time.Minute), WithShedRetries(0))
		if err != nil {
			srv.Close()
			t.Fatal(err)
		}
		if _, serr := b.Search("x"); serr == nil {
			t.Fatalf("status %d accepted", status)
		}
		if b.BreakerState() != "closed" {
			t.Fatalf("status %d tripped the breaker", status)
		}
		srv.Close()
	}
}

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/breaker_timeline.txt from the current browser")

const timelineGoldenPath = "testdata/breaker_timeline.txt"

// timelineServer answers each (trace, attempt) pair with one fixed
// outcome drawn from a hash of the pair: a 500, a 503 shed with
// Retry-After: 2, a 429 with Retry-After: 3, a 404, or the page.
func timelineServer(t *testing.T) *httptest.Server {
	t.Helper()
	ok := okHandler(t)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch detrand.Hash("timeline", r.Header.Get(httpheader.TraceID), r.Header.Get(httpheader.TraceAttempt)) % 8 {
		case 0, 1, 2:
			http.Error(w, "boom", http.StatusInternalServerError)
		case 3:
			w.Header().Set("Retry-After", "2")
			http.Error(w, "shed", http.StatusServiceUnavailable)
		case 4:
			w.Header().Set("Retry-After", "3")
			http.Error(w, "slow down", http.StatusTooManyRequests)
		case 5:
			http.Error(w, "no such page", http.StatusNotFound)
		default:
			ok.ServeHTTP(w, r)
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

// breakerTimeline runs 120 traced searches under each retry policy
// against timelineServer, with a 2-failure, 30 s breaker on a Manual clock
// and 10 virtual seconds between searches. It returns one line per search
// (outcome, retries spent, virtual time taken, breaker state after) and
// each policy's final transition counts. With want set, each line must
// equal its counterpart there as soon as it is written, so a divergence
// fails at its own search instead of hanging a later one.
func breakerTimeline(t *testing.T, base string, want []string) []string {
	t.Helper()
	var lines []string
	emit := func(line string) {
		lines = append(lines, line)
		if want == nil {
			return
		}
		n := len(lines)
		if n > len(want) || want[n-1] != line {
			var w string
			if n <= len(want) {
				w = want[n-1]
			}
			t.Fatalf("timeline diverges at line %d:\n got %s\nwant %s", n, line, w)
		}
	}
	policies := []struct {
		attempts int
		backoff  time.Duration
	}{{1, 0}, {3, 0}, {4, time.Second}, {6, 5 * time.Second}}
	for _, pol := range policies {
		clk := simclock.NewManual(time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC))
		reg := telemetry.NewRegistry()
		b, err := New(base, WithRetry(pol.attempts, pol.backoff), WithBreaker(2, 30*time.Second),
			WithClock(clk), WithTelemetry(reg))
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go clk.DriveUntil(done)
		defer close(done)
		name := fmt.Sprintf("retry(%d,%s)", pol.attempts, pol.backoff)
		for i := 0; i < 120; i++ {
			b.SetTraceID(fmt.Sprintf("tl-%d-%03d", pol.attempts, i))
			retries, start := b.Retries(), clk.Now()
			outcome := "ok"
			if _, serr := b.Search("x"); serr != nil {
				outcome = strconv.Quote(errAttr(serr))
			}
			emit(fmt.Sprintf("%s %03d retries=%d took=%s state=%s %s", name, i,
				b.Retries()-retries, clk.Now().Sub(start), b.BreakerState(), outcome))
			clk.Sleep(10 * time.Second)
		}
		trans := reg.CounterVec("browser_breaker_transitions_total", "", "transition").Values()
		emit(fmt.Sprintf("%s transitions %v", name, trans))
	}
	if want != nil && len(lines) != len(want) {
		t.Fatalf("timeline has %d lines, want %d", len(lines), len(want))
	}
	return lines
}

// TestBreakerChaosDeterminism pins the browser's breaker timeline: which
// searches fail fast, how long they wait out the cooldown, what they
// return and how often the breaker trips, under four retry policies and
// every server answer the browser classifies differently. The golden file
// was captured from the browser's own breaker before it moved into
// internal/breaker; regenerate it with -update-golden only for an
// intended change of breaker semantics. Two runs must both match it.
// Last, a half-open probe is cancelled mid-fetch (see cancelProbe).
func TestBreakerChaosDeterminism(t *testing.T) {
	srv := timelineServer(t)
	if *updateGolden {
		got := breakerTimeline(t, srv.URL, nil)
		if err := os.WriteFile(timelineGoldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(timelineGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	for run := 0; run < 2; run++ {
		breakerTimeline(t, srv.URL, want)
	}
	cancelProbe(t)
}

// cancelProbe cancels a half-open probe mid-fetch: the cancellation is
// neither a success nor a server fault, so the breaker stays half-open
// and the next search is admitted as its probe.
func cancelProbe(t *testing.T) {
	t.Helper()
	var count atomic.Int64
	arrived := make(chan struct{})
	ok := okHandler(t)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch count.Add(1) {
		case 1, 2:
			http.Error(w, "boom", http.StatusInternalServerError)
		case 3:
			close(arrived)
			<-r.Context().Done()
		default:
			ok.ServeHTTP(w, r)
		}
	}))
	defer srv.Close()
	clk := simclock.NewManual(time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC))
	b, err := New(srv.URL, WithBreaker(2, 30*time.Second), WithClock(clk))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, serr := b.Search("x"); serr == nil {
			t.Fatal("500 accepted")
		}
	}
	clk.Advance(30 * time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-arrived
		cancel()
	}()
	if _, serr := b.SearchContext(ctx, "x"); !errors.Is(serr, context.Canceled) {
		t.Fatalf("cancelled probe: err = %v, want context.Canceled", serr)
	}
	if s := b.BreakerState(); s != "half-open" {
		t.Fatalf("state after a cancelled probe = %s, want half-open", s)
	}
	if _, serr := b.Search("x"); serr != nil {
		t.Fatalf("search after a cancelled probe: %v", serr)
	}
	if got := count.Load(); got != 4 {
		t.Fatalf("server saw %d requests, want 4", got)
	}
	if s := b.BreakerState(); s != "closed" {
		t.Fatalf("state after a successful probe = %s, want closed", s)
	}
}
