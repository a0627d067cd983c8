package serpserver

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"geoserp/internal/engine"
	"geoserp/internal/httpheader"
	"geoserp/internal/serp"
	"geoserp/internal/simclock"
)

func testHandler(t *testing.T, mutate func(*engine.Config)) *Handler {
	t.Helper()
	clk := simclock.NewManual(time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC))
	cfg := engine.DefaultConfig()
	cfg.RateBurst = 1 << 20
	cfg.RatePerMinute = 1 << 20
	if mutate != nil {
		mutate(&cfg)
	}
	return NewHandler(engine.New(cfg, clk))
}

func get(t *testing.T, h http.Handler, url string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	req.RemoteAddr = "192.0.2.10:54321"
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestSearchHTML(t *testing.T) {
	h := testHandler(t, nil)
	w := get(t, h, "/search?q=Coffee&ll=41.4993,-81.6944", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("content type = %q", ct)
	}
	page, err := serp.ParseHTML(w.Body.String())
	if err != nil {
		t.Fatalf("served HTML does not parse: %v", err)
	}
	if page.Query != "Coffee" {
		t.Fatalf("parsed query = %q", page.Query)
	}
	if n := page.LinkCount(); n < 10 || n > 22 {
		t.Fatalf("served page has %d links", n)
	}
	if !strings.HasPrefix(page.Location, "41.4993") {
		t.Fatalf("page location %q does not echo the spoofed GPS", page.Location)
	}
	if w.Header().Get(httpheader.ServedBy) == "" {
		t.Fatal("missing X-Served-By header")
	}
}

func TestSearchJSON(t *testing.T) {
	h := testHandler(t, nil)
	w := get(t, h, "/search?q=School&ll=41.4993,-81.6944&format=json", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	var page serp.Page
	if err := json.Unmarshal(w.Body.Bytes(), &page); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if page.Query != "School" || len(page.Cards) == 0 {
		t.Fatalf("page = %+v", page)
	}
}

func TestSearchParamValidation(t *testing.T) {
	h := testHandler(t, nil)
	if w := get(t, h, "/search", nil); w.Code != http.StatusBadRequest {
		t.Fatalf("missing q: status = %d", w.Code)
	}
	if w := get(t, h, "/search?q=", nil); w.Code != http.StatusBadRequest {
		t.Fatalf("empty q: status = %d", w.Code)
	}
	if w := get(t, h, "/search?q=Coffee&ll=banana", nil); w.Code != http.StatusBadRequest {
		t.Fatalf("bad ll: status = %d", w.Code)
	}
	if w := get(t, h, "/search?q=Coffee&ll=999,0", nil); w.Code != http.StatusBadRequest {
		t.Fatalf("out-of-range ll: status = %d", w.Code)
	}
}

func TestNoGPSFallsBackToIP(t *testing.T) {
	h := testHandler(t, nil)
	w := get(t, h, "/search?q=Coffee", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	page, err := serp.ParseHTML(w.Body.String())
	if err != nil {
		t.Fatal(err)
	}
	if page.Location == "" {
		t.Fatal("no location inferred from IP")
	}
}

func TestXForwardedForAttribution(t *testing.T) {
	h := testHandler(t, func(cfg *engine.Config) {
		cfg.RateBurst = 2
		cfg.RatePerMinute = 0.001
	})
	// Two requests from machine A exhaust its budget...
	hdrA := map[string]string{httpheader.ForwardedFor: "10.0.0.1"}
	for i := 0; i < 2; i++ {
		if w := get(t, h, "/search?q=Coffee&ll=41.5,-81.7", hdrA); w.Code != http.StatusOK {
			t.Fatalf("request %d: status = %d", i, w.Code)
		}
	}
	w := get(t, h, "/search?q=Coffee&ll=41.5,-81.7", hdrA)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-budget status = %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// ...while machine B in the same pool is unaffected.
	hdrB := map[string]string{httpheader.ForwardedFor: "10.0.1.1"}
	if w := get(t, h, "/search?q=Coffee&ll=41.5,-81.7", hdrB); w.Code != http.StatusOK {
		t.Fatalf("machine B status = %d", w.Code)
	}
}

func TestDatacenterPinningHeader(t *testing.T) {
	h := testHandler(t, nil)
	w := get(t, h, "/search?q=Coffee&ll=41.5,-81.7",
		map[string]string{httpheader.Datacenter: "dc-1"})
	if got := w.Header().Get(httpheader.ServedBy); got != "dc-1" {
		t.Fatalf("served by %q, want dc-1", got)
	}
}

func TestSessionCookieRoundTrip(t *testing.T) {
	h := testHandler(t, nil)
	req := httptest.NewRequest("GET", "/search?q=Coffee&ll=41.5,-81.7", nil)
	req.RemoteAddr = "192.0.2.10:54321"
	req.AddCookie(&http.Cookie{Name: SessionCookie, Value: "sess-42"})
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	found := false
	for _, c := range w.Result().Cookies() {
		if c.Name == SessionCookie && c.Value == "sess-42" {
			found = true
		}
	}
	if !found {
		t.Fatal("session cookie not refreshed")
	}
	// Cookieless requests are minted a fresh session.
	w2 := get(t, h, "/search?q=Coffee&ll=41.5,-81.7", nil)
	mintedNew := false
	for _, c := range w2.Result().Cookies() {
		if c.Name == SessionCookie && c.Value != "" && c.Value != "sess-42" {
			mintedNew = true
		}
	}
	if !mintedNew {
		t.Fatal("cookieless request was not minted a session")
	}
}

func TestHealthAndStats(t *testing.T) {
	h := testHandler(t, nil)
	if w := get(t, h, "/healthz", nil); w.Code != http.StatusOK {
		t.Fatalf("healthz = %d", w.Code)
	}
	get(t, h, "/search?q=Coffee&ll=41.5,-81.7", nil)
	w := get(t, h, "/statz", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("statz = %d", w.Code)
	}
	var st Stats
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Served != 1 || st.Requests < 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestRealServerOverTCP serves a mobile and a desktop page through a real
// server. Each is written once with its length, so it arrives unchunked
// with a Content-Length equal to the body's.
func TestRealServerOverTCP(t *testing.T) {
	h := testHandler(t, nil)
	srv, err := Listen("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	}()

	for _, ua := range []string{mobileUA, desktopUA} {
		req, err := http.NewRequest("GET", srv.URL()+"/search?q=Hospital&ll=41.4993,-81.6944", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("User-Agent", ua)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d", ua, resp.StatusCode)
		}
		if serp.IsDesktopHTML(string(body)) != (ua == desktopUA) {
			t.Fatalf("%s: served the wrong surface", ua)
		}
		page, err := serp.ParseAnyHTML(string(body))
		if err != nil {
			t.Fatal(err)
		}
		if page.Query != "Hospital" {
			t.Fatalf("%s: query = %q", ua, page.Query)
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: ContentLength = %d, TransferEncoding = %q for a %d B page; want the page's length, unchunked",
				ua, resp.ContentLength, resp.TransferEncoding, len(body))
		}
	}
}

func TestServerShutdownIdempotent(t *testing.T) {
	h := testHandler(t, nil)
	srv, err := Listen("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ctx := context.Background()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// Second shutdown must not panic or error fatally.
	_ = srv.Shutdown(ctx)
}

// TestShutdownClosesUnusedConnections pins the fix for a ~5 s stall: net/http
// counts a connection that never sent a request as busy until it is 5 s old.
func TestShutdownClosesUnusedConnections(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", testHandler(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Wait until the server has accepted the connection (StateNew).
	for n := 0; n == 0; time.Sleep(time.Millisecond) {
		srv.mu.Lock()
		n = len(srv.fresh)
		srv.mu.Unlock()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("shutdown took %v with one unused connection open, want < 1s", took)
	}
}

func TestClientIPFallsBackToRemoteAddr(t *testing.T) {
	req := httptest.NewRequest("GET", "/search?q=x", nil)
	req.RemoteAddr = "203.0.113.7:9999"
	if got := clientIP(req); got != "203.0.113.7" {
		t.Fatalf("clientIP = %q", got)
	}
	req.Header.Set(httpheader.ForwardedFor, "198.51.100.1, 10.0.0.1")
	if got := clientIP(req); got != "198.51.100.1" {
		t.Fatalf("clientIP with XFF = %q", got)
	}
	req.Header.Set(httpheader.ForwardedFor, " ")
	req.RemoteAddr = "noport"
	if got := clientIP(req); got != "noport" {
		t.Fatalf("clientIP fallback = %q", got)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	h := testHandler(t, nil)
	req := httptest.NewRequest("POST", "/search?q=Coffee", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST status = %d, want 405", w.Code)
	}
}
