package browser

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"geoserp/internal/httpheader"
	"geoserp/internal/serp"
	"geoserp/internal/simclock"
)

// flakyServer answers 429 for the first n requests, then serves a minimal
// valid result page.
func flakyServer(t *testing.T, n int) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var count atomic.Int64
	page := &serp.Page{
		Query:    "x",
		Location: "1.000000,2.000000",
		Cards: []serp.Card{{
			Type:    serp.Organic,
			Results: []serp.Result{{URL: "https://a/", Title: "A"}},
		}},
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if count.Add(1) <= int64(n) {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "slow down", http.StatusTooManyRequests)
			return
		}
		fmt.Fprint(w, serp.RenderHTML(page))
	}))
	t.Cleanup(srv.Close)
	return srv, &count
}

func TestRetrySucceedsAfterBackoff(t *testing.T) {
	srv, count := flakyServer(t, 2)
	clk := simclock.NewManual(time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC))
	b, err := New(srv.URL, WithPolicy(Policy{Attempts: 4, Backoff: time.Minute}), WithClock(clk))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := b.Search("x")
		done <- err
	}()
	// Drive the virtual clock through the backoff sleeps.
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("search failed despite retries: %v", err)
			}
			if got := count.Load(); got != 3 {
				t.Fatalf("requests = %d, want 3", got)
			}
			if b.Retries() != 2 {
				t.Fatalf("retries = %d, want 2", b.Retries())
			}
			return
		default:
			if next, ok := clk.NextDeadline(); ok {
				clk.AdvanceTo(next)
			} else {
				time.Sleep(50 * time.Microsecond)
			}
		}
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	srv, count := flakyServer(t, 100)
	b, err := New(srv.URL, WithPolicy(Policy{Attempts: 3})) // zero backoff: no sleeping
	if err != nil {
		t.Fatal(err)
	}
	_, serr := b.Search("x")
	if serr == nil {
		t.Fatal("search succeeded against a permanently limited server")
	}
	if got := count.Load(); got != 3 {
		t.Fatalf("requests = %d, want 3", got)
	}
}

func TestNoRetryByDefault(t *testing.T) {
	srv, count := flakyServer(t, 1)
	b, err := New(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, serr := b.Search("x"); serr == nil {
		t.Fatal("default browser retried a 429")
	}
	if got := count.Load(); got != 1 {
		t.Fatalf("requests = %d, want 1", got)
	}
	if b.Retries() != 0 {
		t.Fatalf("retries = %d", b.Retries())
	}
}

func TestRetryDoesNotMaskPermanentErrors(t *testing.T) {
	var count atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		count.Add(1)
		http.Error(w, "no such page", http.StatusNotFound)
	}))
	defer srv.Close()
	b, err := New(srv.URL, WithPolicy(Policy{Attempts: 5}))
	if err != nil {
		t.Fatal(err)
	}
	if _, serr := b.Search("x"); serr == nil {
		t.Fatal("404 accepted")
	} else if IsTransient(serr) {
		t.Fatalf("404 classified transient: %v", serr)
	}
	if got := count.Load(); got != 1 {
		t.Fatalf("404s retried: %d requests", got)
	}
}

func TestRetryCoversServerErrors(t *testing.T) {
	var count atomic.Int64
	page := &serp.Page{
		Query:    "x",
		Location: "1.000000,2.000000",
		Cards: []serp.Card{{
			Type:    serp.Organic,
			Results: []serp.Result{{URL: "https://a/", Title: "A"}},
		}},
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if count.Add(1) <= 2 {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		fmt.Fprint(w, serp.RenderHTML(page))
	}))
	defer srv.Close()
	b, err := New(srv.URL, WithPolicy(Policy{Attempts: 5}))
	if err != nil {
		t.Fatal(err)
	}
	if _, serr := b.Search("x"); serr != nil {
		t.Fatalf("search failed despite retries: %v", serr)
	}
	if got := count.Load(); got != 3 {
		t.Fatalf("requests = %d, want 3", got)
	}
	if b.Retries() != 2 {
		t.Fatalf("retries = %d, want 2", b.Retries())
	}
}

func TestRetryExhaustedErrorIsTransient(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()
	b, err := New(srv.URL, WithPolicy(Policy{Attempts: 2}))
	if err != nil {
		t.Fatal(err)
	}
	_, serr := b.Search("x")
	if serr == nil {
		t.Fatal("persistent 500s accepted")
	}
	// The crawler's failure accounting keys on this classification.
	if !IsTransient(serr) {
		t.Fatalf("exhausted-retries error lost its transient mark: %v", serr)
	}
}

// TestPolicyValidate: Validate rejects each negative field and a breaker
// threshold without a cooldown, New returns its error, and a later
// WithPolicy replaces an earlier one. Every zero field means its default:
// the zero Policy is one attempt, a 30 s attempt timeout, the 4 MiB body
// cap, no X-Deadline-Ms and no breaker.
func TestPolicyValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    Policy
		want string // "" for a policy that runs
	}{
		{"zero", Policy{}, ""},
		{"cooldown without threshold", Policy{BreakerCooldown: time.Minute}, ""},
		{"every field", Policy{Attempts: 3, Backoff: time.Second, Timeout: time.Second, Deadline: time.Minute,
			MaxBody: 1, BreakerThreshold: 2, BreakerCooldown: time.Minute}, ""},
		{"negative attempts", Policy{Attempts: -1}, "browser: negative retry attempts -1"},
		{"negative backoff", Policy{Backoff: -time.Second}, "browser: negative retry backoff -1s"},
		{"negative timeout", Policy{Timeout: -time.Second}, "browser: negative fetch timeout -1s"},
		{"negative deadline", Policy{Deadline: -time.Second}, "browser: negative deadline -1s"},
		{"negative body cap", Policy{MaxBody: -1}, "browser: negative body cap -1"},
		{"negative threshold", Policy{BreakerThreshold: -1}, "browser: negative breaker threshold -1"},
		{"negative cooldown", Policy{BreakerCooldown: -time.Second}, "browser: negative breaker cooldown -1s"},
		{"threshold without cooldown", Policy{BreakerThreshold: 2}, "browser: breaker threshold 2 needs a positive cooldown"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			verr := tc.p.Validate()
			_, nerr := New("http://example.test", WithPolicy(tc.p))
			for _, err := range []error{verr, nerr} {
				if tc.want == "" && err != nil {
					t.Fatalf("rejected: %v", err)
				}
				if tc.want != "" && (err == nil || err.Error() != tc.want) {
					t.Fatalf("err = %v, want %q", err, tc.want)
				}
			}
		})
	}
	if _, err := New("http://example.test", WithPolicy(Policy{Attempts: -1}), WithPolicy(Policy{})); err != nil {
		t.Fatalf("a later WithPolicy did not replace a rejected one: %v", err)
	}

	var count, deadlines atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		count.Add(1)
		if r.Header.Get(httpheader.DeadlineMs) != "" {
			deadlines.Add(1)
		}
		switch r.URL.Query().Get("q") {
		case "fits":
			w.Write(bytes.Repeat([]byte("x"), 4<<20))
		case "over":
			w.Write(bytes.Repeat([]byte("x"), 4<<20+1))
		default:
			http.Error(w, "boom", http.StatusInternalServerError)
		}
	}))
	defer srv.Close()
	b, err := New(srv.URL, WithPolicy(Policy{}))
	if err != nil {
		t.Fatal(err)
	}
	if b.client.Timeout != 30*time.Second {
		t.Fatalf("attempt timeout = %s, want 30s", b.client.Timeout)
	}
	if _, serr := b.Search("boom"); !IsTransient(serr) {
		t.Fatalf("500: err = %v, want a transient failure", serr)
	}
	// A body of exactly 4 MiB is read whole and fails to parse; one byte
	// more is over the cap.
	if _, serr := b.Search("fits"); serr == nil || errors.Is(serr, ErrBodyTooLarge) {
		t.Fatalf("4 MiB body: err = %v, want a parse error", serr)
	}
	if _, serr := b.Search("over"); !errors.Is(serr, ErrBodyTooLarge) {
		t.Fatalf("4 MiB + 1 body: err = %v, want ErrBodyTooLarge", serr)
	}
	// Two transient failures and a permanent one: one attempt each.
	if got := count.Load(); got != 3 || b.Retries() != 0 {
		t.Fatalf("requests = %d, retries = %d; want 3 and 0", got, b.Retries())
	}
	if got := deadlines.Load(); got != 0 {
		t.Fatalf("%d requests carried %s", got, httpheader.DeadlineMs)
	}
	if s := b.BreakerState(); s != "" {
		t.Fatalf("breaker state %q, want none", s)
	}
}
