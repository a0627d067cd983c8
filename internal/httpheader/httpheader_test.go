package httpheader

import (
	"net/http"
	"testing"
	"time"
)

func TestDeadline(t *testing.T) {
	for _, tc := range []struct {
		name string
		h    http.Header
		want time.Time
	}{
		{"absent", http.Header{}, time.Time{}},
		{"empty", http.Header{DeadlineMs: {""}}, time.Time{}},
		{"non-numeric", http.Header{DeadlineMs: {"soon"}}, time.Time{}},
		{"not an integer", http.Header{DeadlineMs: {"1.5e3"}}, time.Time{}},
		{"trailing garbage", http.Header{DeadlineMs: {"1433116800000ms"}}, time.Time{}},
		{"zero", http.Header{DeadlineMs: {"0"}}, time.Time{}},
		{"negative", http.Header{DeadlineMs: {"-5"}}, time.Time{}},
		{"unix ms", http.Header{DeadlineMs: {"1433116800250"}}, time.UnixMilli(1433116800250)},
	} {
		if got := Deadline(tc.h); !got.Equal(tc.want) {
			t.Errorf("%s: Deadline = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestSetDeadlineRoundTrip(t *testing.T) {
	// Sub-millisecond precision is dropped on the wire.
	at := time.Date(2015, 6, 1, 0, 0, 1, 250_999_999, time.UTC)
	h := http.Header{}
	SetDeadline(h, at)
	if v := h.Get(DeadlineMs); v != "1433116801250" {
		t.Fatalf("%s = %q, want unix milliseconds", DeadlineMs, v)
	}
	if got, want := Deadline(h), at.Truncate(time.Millisecond); !got.Equal(want) {
		t.Fatalf("round trip = %v, want %v", got, want)
	}

	h = http.Header{}
	SetDeadline(h, time.Time{})
	if _, ok := h[DeadlineMs]; ok {
		t.Fatalf("a zero deadline set %s = %q", DeadlineMs, h.Get(DeadlineMs))
	}
	if got := Deadline(h); !got.IsZero() {
		t.Fatalf("zero deadline round-trips to %v", got)
	}
}

func TestAttempt(t *testing.T) {
	for _, tc := range []struct {
		name   string
		h      http.Header
		want   int
		wantOK bool
	}{
		{"absent", http.Header{}, 0, false},
		{"empty", http.Header{TraceAttempt: {""}}, 0, false},
		{"zero", http.Header{TraceAttempt: {"0"}}, 0, true},
		{"negative", http.Header{TraceAttempt: {"-3"}}, -3, true},
		{"attempt", http.Header{TraceAttempt: {"7"}}, 7, true},
		{"leading space", http.Header{TraceAttempt: {" 7"}}, 0, false},
		{"trailing garbage", http.Header{TraceAttempt: {"7x"}}, 0, false},
		{"out of range", http.Header{TraceAttempt: {"99999999999999999999"}}, 0, false},
	} {
		if n, ok := Attempt(tc.h); n != tc.want || ok != tc.wantOK {
			t.Errorf("%s: Attempt = %d, %v, want %d, %v", tc.name, n, ok, tc.want, tc.wantOK)
		}
	}
	for _, n := range []int{1, 3, 0, -2} {
		h := http.Header{}
		SetAttempt(h, n)
		if got, ok := Attempt(h); got != n || !ok {
			t.Errorf("SetAttempt(%d) reads back as %d, %v (header %q)", n, got, ok, h.Get(TraceAttempt))
		}
	}
}
