package browser

import (
	"context"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"geoserp/internal/serp"
)

// sleepLog is a Clock that never blocks: Sleep records its duration and
// moves Now forward by it.
type sleepLog struct {
	mu     sync.Mutex
	now    time.Time
	sleeps []time.Duration
}

func (c *sleepLog) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *sleepLog) Sleep(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sleeps = append(c.sleeps, d)
	c.now = c.now.Add(d)
}

// fuzzStatuses are the statuses a script byte's low nibble picks: success,
// each class the browser tells apart, and codes it has no case for.
var fuzzStatuses = [16]int{200, 200, 429, 503, 503, 500, 502, 504, 404, 400, 204, 304, 302, 418, 599, 299}

// fuzzScript is the answer plan of FuzzSearchContext's server: request i
// is answered by script[i mod len(script)], or by a valid page when the
// script is empty. A byte's low nibble picks the status; bit 4 sends the
// Retry-After value, bit 5 the Content-Length value, and bit 6 a valid
// page instead of the fuzzed body.
type fuzzScript struct {
	page string

	mu                      sync.Mutex
	script                  []byte
	retryAfter, length, doc string
	requests                int
}

// reset installs the next input's plan and zeroes the request count.
func (s *fuzzScript) reset(script []byte, retryAfter, length, doc string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.script, s.retryAfter, s.length, s.doc, s.requests = script, retryAfter, length, doc, 0
}

// served returns how many requests reached the server since reset.
func (s *fuzzScript) served() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.requests
}

func (s *fuzzScript) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	i := s.requests
	s.requests++
	script, retryAfter, length, body := s.script, s.retryAfter, s.length, s.doc
	s.mu.Unlock()
	if len(script) == 0 {
		_, _ = io.WriteString(w, s.page)
		return
	}
	op := script[i%len(script)]
	if op&0x10 != 0 {
		w.Header().Set("Retry-After", retryAfter)
	}
	if op&0x20 != 0 {
		w.Header().Set("Content-Length", length)
	}
	if op&0x40 != 0 {
		body = s.page
	}
	w.WriteHeader(fuzzStatuses[op&0xf])
	_, _ = io.WriteString(w, body)
}

// FuzzSearchContext serves one SearchContext from a server whose statuses,
// Retry-After, Content-Length and bodies are fuzzed, under a fuzzed policy,
// on a clock that records its sleeps without blocking. No input may panic
// the browser; at most Attempts + shedRetries requests reach the server;
// no wait exceeds the larger of maxRetryAfter and what the policy itself
// can ask for (its backoff after the last retry it allows, its breaker
// cooldown); and with a deadline the clock never passes it. Each input
// costs a few loopback round trips through net/http.
func FuzzSearchContext(f *testing.F) {
	page := serp.RenderHTML(&serp.Page{
		Query:    "x",
		Location: "1.000000,2.000000",
		Cards:    []serp.Card{{Type: serp.Organic, Results: []serp.Result{{URL: "https://a/", Title: "A"}}}},
	})
	fs := &fuzzScript{page: page}
	srv := httptest.NewUnstartedServer(fs)
	// A fuzzed Content-Length the server refuses is logged, not answered.
	srv.Config.ErrorLog = log.New(io.Discard, "", 0)
	srv.Start()
	f.Cleanup(srv.Close)

	const (
		ok      = 0x40
		ra      = 0x10
		cl      = 0x20
		shed    = 0x03
		limited = 0x02
		fault   = 0x05
	)
	// script, Retry-After, Content-Length, body, attempts, backoff (s),
	// deadline (s), breaker threshold, body cap
	f.Add([]byte{}, "", "", "", uint8(1), uint16(0), uint16(0), uint8(0), uint16(0))
	f.Add([]byte{shed | ra}, "86400", "", "busy", uint8(3), uint16(30), uint16(0), uint8(0), uint16(0))
	f.Add([]byte{shed | ra, ok}, "9223372037", "", "", uint8(2), uint16(0), uint16(0), uint8(0), uint16(0))
	f.Add([]byte{limited | ra, limited | ra, ok}, "99999999999999", "", "", uint8(4), uint16(1), uint16(600), uint8(0), uint16(0))
	f.Add([]byte{limited | ra, ok}, "60", "", "", uint8(2), uint16(0), uint16(30), uint8(0), uint16(0))
	f.Add([]byte{fault}, "", "", "boom", uint8(5), uint16(10), uint16(0), uint8(2), uint16(0))
	f.Add([]byte{ok | cl}, "", "99999", "", uint8(3), uint16(1), uint16(0), uint8(0), uint16(0))
	f.Add([]byte{ok | cl, ok}, "", "12", "", uint8(3), uint16(1), uint16(0), uint8(1), uint16(0))
	f.Add([]byte{0x00}, "", "", "<html>not a results page</html>", uint8(2), uint16(0), uint16(0), uint8(0), uint16(0))
	f.Add([]byte{ok}, "", "", "", uint8(2), uint16(0), uint16(0), uint8(0), uint16(64))
	f.Add([]byte{shed | ra, fault | ra, 0x08, ok}, "-1", "abc", "\xff\x00", uint8(0), uint16(65535), uint16(1), uint8(3), uint16(1))
	f.Fuzz(func(t *testing.T, script []byte, retryAfter, length, doc string,
		attempts uint8, backoffS, deadlineS uint16, threshold uint8, maxBody uint16) {
		pol := Policy{
			Attempts:         int(attempts % 6),
			Backoff:          time.Duration(backoffS) * time.Second,
			Timeout:          5 * time.Second,
			Deadline:         time.Duration(deadlineS) * time.Second,
			MaxBody:          int64(maxBody),
			BreakerThreshold: int(threshold % 4),
		}
		if pol.BreakerThreshold > 0 {
			pol.BreakerCooldown = 30 * time.Second
		}
		fs.reset(script, retryAfter, length, doc)
		epoch := time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)
		clk := &sleepLog{now: epoch}
		b, err := New(srv.URL, WithPolicy(pol), WithClock(clk))
		if err != nil {
			t.Fatal(err)
		}
		p, err := b.SearchContext(context.Background(), "x")
		if err == nil && p == nil {
			t.Fatal("no page and no error")
		}
		tries := max(pol.Attempts, 1)
		if n := fs.served(); n > tries+shedRetries {
			t.Fatalf("%d requests reached the server, want at most %d + %d", n, tries, shedRetries)
		}
		bound := max(maxRetryAfter, time.Duration(max(tries-1, shedRetries))*pol.Backoff, pol.BreakerCooldown)
		for _, d := range clk.sleeps {
			if d < 0 || d > bound {
				t.Fatalf("waited %s, want within [0, %s]; waits %v", d, bound, clk.sleeps)
			}
		}
		if pol.Deadline > 0 && clk.Now().Sub(epoch) > pol.Deadline {
			t.Fatalf("clock passed the %s deadline: waits %v", pol.Deadline, clk.sleeps)
		}
	})
}
