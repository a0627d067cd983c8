package browser

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"geoserp/internal/httpheader"
	"geoserp/internal/serp"
)

func okHandler(t *testing.T) http.Handler {
	t.Helper()
	page := &serp.Page{
		Query:    "x",
		Location: "1.000000,2.000000",
		Cards: []serp.Card{{
			Type:    serp.Organic,
			Results: []serp.Result{{URL: "https://a/", Title: "A"}},
		}},
	}
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, serp.RenderHTML(page))
	})
}

func TestSearchContextCancellationAbortsFetch(t *testing.T) {
	arrived := make(chan struct{})
	release := make(chan struct{})
	var count atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		count.Add(1)
		close(arrived)
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()
	defer close(release)

	b, err := New(srv.URL, WithPolicy(Policy{Attempts: 5}))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, serr := b.SearchContext(ctx, "x")
		done <- serr
	}()
	<-arrived
	cancel()
	select {
	case serr := <-done:
		if serr == nil {
			t.Fatal("cancelled search succeeded")
		}
		if !errors.Is(serr, context.Canceled) {
			t.Fatalf("error does not carry the cancellation: %v", serr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled search did not return")
	}
	// Cancellation is terminal: the retry policy must not have re-fetched.
	if got := count.Load(); got != 1 {
		t.Fatalf("cancelled fetch was retried: %d requests", got)
	}
	if b.Retries() != 0 {
		t.Fatalf("retries = %d, want 0", b.Retries())
	}
}

func TestSearchContextAlreadyCancelled(t *testing.T) {
	var count atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		count.Add(1)
	}))
	defer srv.Close()
	b, err := New(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, serr := b.SearchContext(ctx, "x"); !errors.Is(serr, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", serr)
	}
	if count.Load() != 0 {
		t.Fatal("fetch issued despite cancelled context")
	}
}

func TestChaosTransportErrorInjectionIsDeterministic(t *testing.T) {
	srv := httptest.NewServer(okHandler(t))
	defer srv.Close()
	observe := func() []bool {
		ct := NewChaosTransport(ChaosConfig{Seed: 42, ErrorRate: 0.3}, nil)
		b, err := New(srv.URL, WithTransport(ct))
		if err != nil {
			t.Fatal(err)
		}
		var outcomes []bool
		for i := 0; i < 40; i++ {
			b.SetTraceID(fmt.Sprintf("trace-%d", i))
			_, serr := b.Search("x")
			outcomes = append(outcomes, serr == nil)
			if serr != nil && !IsTransient(serr) {
				t.Fatalf("injected transport error not transient: %v", serr)
			}
		}
		return outcomes
	}
	a, bb := observe(), observe()
	failures := 0
	for i := range a {
		if a[i] != bb[i] {
			t.Fatalf("run disagreement at trace-%d: faults are not trace-keyed", i)
		}
		if !a[i] {
			failures++
		}
	}
	if failures == 0 || failures == len(a) {
		t.Fatalf("failures = %d/%d, want a mix at 30%% error rate", failures, len(a))
	}
}

func TestChaosRetriedAttemptDrawsFreshFault(t *testing.T) {
	srv := httptest.NewServer(okHandler(t))
	defer srv.Close()
	// With a 50% error rate and 8 attempts, a fault that repeated for every
	// attempt of the same trace would fail this ~0.4% of the time per trace;
	// across 30 traces at least one must succeed via retry unless retries
	// replay the identical draw.
	ct := NewChaosTransport(ChaosConfig{Seed: 7, ErrorRate: 0.5}, nil)
	b, err := New(srv.URL, WithTransport(ct), WithPolicy(Policy{Attempts: 8}))
	if err != nil {
		t.Fatal(err)
	}
	succeeded := 0
	for i := 0; i < 30; i++ {
		b.SetTraceID(fmt.Sprintf("trace-%d", i))
		if _, serr := b.Search("x"); serr == nil {
			succeeded++
		}
	}
	if succeeded == 0 {
		t.Fatal("no search succeeded: retried attempts appear to replay the same fault draw")
	}
	if b.Retries() == 0 {
		t.Fatal("no retries recorded at 50% injected error rate")
	}
}

func TestChaosServerErrorInjection(t *testing.T) {
	var reached atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reached.Add(1)
		okHandler(t).ServeHTTP(w, r)
	}))
	defer srv.Close()
	ct := NewChaosTransport(ChaosConfig{Seed: 1, ServerErrorRate: 1}, nil)
	b, err := New(srv.URL, WithTransport(ct))
	if err != nil {
		t.Fatal(err)
	}
	b.SetTraceID("t-1")
	_, serr := b.Search("x")
	if serr == nil {
		t.Fatal("injected 500 accepted")
	}
	if !IsTransient(serr) {
		t.Fatalf("injected 500 not transient: %v", serr)
	}
	if !strings.Contains(serr.Error(), "500") {
		t.Fatalf("error does not surface the status: %v", serr)
	}
	if reached.Load() != 0 {
		t.Fatal("synthesized 500 still hit the real server")
	}
	if ct.Injected() == 0 {
		t.Fatal("injection counter did not move")
	}
}

func TestChaosTruncationSurfacesUnexpectedEOF(t *testing.T) {
	srv := httptest.NewServer(okHandler(t))
	defer srv.Close()
	ct := NewChaosTransport(ChaosConfig{Seed: 3, TruncateRate: 1}, nil)
	b, err := New(srv.URL, WithTransport(ct))
	if err != nil {
		t.Fatal(err)
	}
	b.SetTraceID("t-1")
	_, serr := b.Search("x")
	if serr == nil {
		t.Fatal("truncated body accepted")
	}
	if !errors.Is(serr, io.ErrUnexpectedEOF) {
		t.Fatalf("truncation surfaced as %v, want io.ErrUnexpectedEOF", serr)
	}
	if !IsTransient(serr) {
		t.Fatalf("truncation not transient: %v", serr)
	}
}

func TestChaosUntracedRequestsStillDrawFaults(t *testing.T) {
	srv := httptest.NewServer(okHandler(t))
	defer srv.Close()
	ct := NewChaosTransport(ChaosConfig{Seed: 9, ErrorRate: 0.5}, nil)
	b, err := New(srv.URL, WithTransport(ct))
	if err != nil {
		t.Fatal(err)
	}
	ok, fail := 0, 0
	for i := 0; i < 40; i++ {
		if _, serr := b.Search("x"); serr == nil {
			ok++
		} else {
			fail++
		}
	}
	if ok == 0 || fail == 0 {
		t.Fatalf("untraced outcomes ok=%d fail=%d, want a mix", ok, fail)
	}
}

func TestChaosPassThroughEchoesTrace(t *testing.T) {
	// A fault-free chaos transport must be invisible: headers (including
	// the trace used for keying) reach the server untouched.
	var gotTrace atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotTrace.Store(r.Header.Get(httpheader.TraceID))
		okHandler(t).ServeHTTP(w, r)
	}))
	defer srv.Close()
	ct := NewChaosTransport(ChaosConfig{Seed: 5}, nil)
	b, err := New(srv.URL, WithTransport(ct))
	if err != nil {
		t.Fatal(err)
	}
	b.SetTraceID("trace-echo")
	if _, serr := b.Search("x"); serr != nil {
		t.Fatalf("fault-free chaos transport broke the fetch: %v", serr)
	}
	if gotTrace.Load() != "trace-echo" {
		t.Fatalf("trace header = %v, want trace-echo", gotTrace.Load())
	}
}

func TestTruncateCutsOnRuneBoundary(t *testing.T) {
	// "café" is 5 bytes; cutting at 4 lands mid-é and must back up.
	if got := truncate("café!!!", 4); got != "caf..." {
		t.Fatalf("truncate = %q, want %q", got, "caf...")
	}
	if got := truncate("plain", 10); got != "plain" {
		t.Fatalf("truncate = %q, want unchanged", got)
	}
	if got := truncate("abcdef", 3); got != "abc..." {
		t.Fatalf("truncate = %q, want %q", got, "abc...")
	}
}
