package serpserver

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"geoserp/internal/engine"
	"geoserp/internal/httpheader"
	"geoserp/internal/simclock"
	"geoserp/internal/telemetry"
)

// admissionRig wraps next in admission control per cfg, backed by a real
// handler whose registry the assertions read.
func admissionRig(t *testing.T, cfg AdmissionConfig, next http.Handler) (*Handler, *httptest.Server) {
	t.Helper()
	clk := simclock.NewManual(time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC))
	h := NewHandler(engine.New(engine.DefaultConfig(), clk))
	srv := httptest.NewServer(WithAdmission(cfg, h, next))
	t.Cleanup(srv.Close)
	return h, srv
}

// waitGauge polls until the named gauge reaches want; queued requests park
// asynchronously, so tests must observe the gauge rather than sleep.
func waitGauge(t *testing.T, reg *telemetry.Registry, name string, want float64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if reg.Gauge(name, "").Value() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("%s never reached %v", name, want)
}

// httpGet fetches url over the wire and returns the status code, body,
// and headers (the package's get helper drives handlers in-process).
func httpGet(t *testing.T, client *http.Client, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, string(body), resp.Header
}

// getCode is httpGet for concurrent callers (goroutines must not t.Fatal):
// transport errors surface as -1.
func getCode(client *http.Client, url string) int {
	resp, err := client.Get(url)
	if err != nil {
		return -1
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

func TestAdmissionShedsWhenQueueFull(t *testing.T) {
	entered := make(chan string, 8)
	release := make(chan struct{})
	next := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- r.URL.Query().Get("q")
		<-release
		w.WriteHeader(http.StatusOK)
	})
	h, srv := admissionRig(t, AdmissionConfig{MaxInflight: 1, QueueDepth: 1, ServiceTime: 2 * time.Second}, next)
	client := srv.Client()

	codes := make(chan int, 2)
	go func() { codes <- getCode(client, srv.URL+"/search?q=a") }()
	<-entered // a holds the only slot
	go func() { codes <- getCode(client, srv.URL+"/search?q=b") }()
	waitGauge(t, h.Telemetry(), "serpd_admission_queued", 1)

	// Slot busy, queue full: the third request is shed with an honest hint.
	code, body, hdr := httpGet(t, client, srv.URL+"/search?q=c")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", code)
	}
	if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer of seconds", hdr.Get("Retry-After"))
	}
	if !strings.Contains(body, "queue_full") {
		t.Fatalf("shed body does not name the reason: %q", body)
	}

	close(release)
	for i := 0; i < 2; i++ {
		if c := <-codes; c != http.StatusOK {
			t.Fatalf("blocked request finished %d, want 200", c)
		}
	}
	// The freed slot was handed to the queued request, not re-acquired.
	if q := <-entered; q != "b" {
		t.Fatalf("second admitted request was %q, want the queued b", q)
	}
	reg := h.Telemetry()
	if got := reg.Counter("serpd_admission_admitted_total", "").Value(); got != 2 {
		t.Fatalf("admitted = %d, want 2", got)
	}
	sheds := reg.CounterVec("serpd_admission_shed_total", "", "reason").Values()
	if sheds["queue_full"] != 1 || len(sheds) != 1 {
		t.Fatalf("sheds = %v, want exactly one queue_full", sheds)
	}
}

func TestAdmissionHandsSlotsFIFO(t *testing.T) {
	var order []string // appended only from inside the single slot
	entered := make(chan string, 8)
	release := make(chan struct{})
	next := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query().Get("q")
		order = append(order, q)
		entered <- q
		<-release
		w.WriteHeader(http.StatusOK)
	})
	h, srv := admissionRig(t, AdmissionConfig{MaxInflight: 1, QueueDepth: 2}, next)
	client := srv.Client()

	codes := make(chan int, 3)
	go func() { codes <- getCode(client, srv.URL+"/search?q=a") }()
	<-entered
	go func() { codes <- getCode(client, srv.URL+"/search?q=b") }()
	waitGauge(t, h.Telemetry(), "serpd_admission_queued", 1)
	go func() { codes <- getCode(client, srv.URL+"/search?q=c") }()
	waitGauge(t, h.Telemetry(), "serpd_admission_queued", 2)

	// Each departure hands the slot to the oldest waiter, so the arrival
	// order is the service order.
	close(release)
	for i := 0; i < 3; i++ {
		if c := <-codes; c != http.StatusOK {
			t.Fatalf("request finished %d, want 200", c)
		}
	}
	<-entered
	<-entered
	if got := strings.Join(order, ""); got != "abc" {
		t.Fatalf("service order = %q, want abc (FIFO)", got)
	}
}

func TestAdmissionShedsDeadOnArrival(t *testing.T) {
	var reached atomic.Int64
	next := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		reached.Add(1)
		w.WriteHeader(http.StatusOK)
	})
	h, srv := admissionRig(t, AdmissionConfig{MaxInflight: 4, QueueDepth: 4}, next)

	req, err := http.NewRequest(http.MethodGet, srv.URL+"/search?q=x", nil)
	if err != nil {
		t.Fatal(err)
	}
	httpheader.SetDeadline(req.Header, time.Now().Add(-time.Second))
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 for a dead-on-arrival request", resp.StatusCode)
	}
	if !strings.Contains(string(body), "deadline") {
		t.Fatalf("shed body does not name the reason: %q", body)
	}
	if reached.Load() != 0 {
		t.Fatal("dead-on-arrival request still consumed a slot")
	}
	// The same request with a live deadline sails through an idle gate.
	httpheader.SetDeadline(req.Header, time.Now().Add(time.Hour))
	resp, err = srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || reached.Load() != 1 {
		t.Fatalf("live-deadline request: status=%d reached=%d", resp.StatusCode, reached.Load())
	}
	sheds := h.Telemetry().CounterVec("serpd_admission_shed_total", "", "reason").Values()
	if sheds["deadline"] != 1 {
		t.Fatalf("sheds = %v, want one deadline shed", sheds)
	}
}

func TestAdmissionRefusesToQueueDoomedRequests(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	next := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		entered <- struct{}{}
		<-release
		w.WriteHeader(http.StatusOK)
	})
	h, srv := admissionRig(t, AdmissionConfig{MaxInflight: 1, QueueDepth: 4, ServiceTime: 10 * time.Second}, next)
	client := srv.Client()

	done := make(chan int, 1)
	go func() { done <- getCode(client, srv.URL+"/search?q=a") }()
	<-entered

	// The queue has room, but a 1-second deadline cannot survive a 10-second
	// backlog estimate: shed immediately instead of queueing to time out.
	req, err := http.NewRequest(http.MethodGet, srv.URL+"/search?q=b", nil)
	if err != nil {
		t.Fatal(err)
	}
	httpheader.SetDeadline(req.Header, time.Now().Add(time.Second))
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 for a doomed request", resp.StatusCode)
	}
	sheds := h.Telemetry().CounterVec("serpd_admission_shed_total", "", "reason").Values()
	if sheds["deadline"] != 1 {
		t.Fatalf("sheds = %v, want one deadline shed", sheds)
	}
	close(release)
	if c := <-done; c != http.StatusOK {
		t.Fatalf("admitted request finished %d", c)
	}
}

func TestAdmissionGatesOnlySearch(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	next := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/search" {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		entered <- struct{}{}
		<-release
		w.WriteHeader(http.StatusOK)
	})
	_, srv := admissionRig(t, AdmissionConfig{MaxInflight: 1, QueueDepth: 0}, next)
	client := srv.Client()

	done := make(chan int, 1)
	go func() { done <- getCode(client, srv.URL+"/search?q=a") }()
	<-entered

	// Saturated for /search — but observability paths bypass the gate, so
	// the server can still be diagnosed precisely while it is drowning.
	if code, _, _ := httpGet(t, client, srv.URL+"/statsz"); code != http.StatusNoContent {
		t.Fatalf("/statsz through a saturated gate = %d, want 204", code)
	}
	if code, _, _ := httpGet(t, client, srv.URL+"/search?q=b"); code != http.StatusServiceUnavailable {
		t.Fatalf("second /search = %d, want 503 with no queue", code)
	}
	close(release)
	if c := <-done; c != http.StatusOK {
		t.Fatalf("admitted request finished %d", c)
	}
}

// nopHandler is a comparable http.Handler, so the disabled-gate test can
// assert WithAdmission returned next itself rather than a wrapper.
type nopHandler struct{}

func (nopHandler) ServeHTTP(http.ResponseWriter, *http.Request) {}

func TestWithAdmissionDisabledReturnsNext(t *testing.T) {
	clk := simclock.NewManual(time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC))
	h := NewHandler(engine.New(engine.DefaultConfig(), clk))
	next := nopHandler{}
	if got := WithAdmission(AdmissionConfig{}, h, next); got != http.Handler(next) {
		t.Fatal("disabled admission config still wrapped the handler")
	}
}
