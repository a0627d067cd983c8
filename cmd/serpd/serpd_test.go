package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"geoserp/internal/serp"
	"geoserp/internal/telemetry"
)

func TestBuildServerAndServe(t *testing.T) {
	srv, eng, _, err := buildServer(options{
		Addr:        "127.0.0.1:0",
		Seed:        7,
		Datacenters: 2,
		RateBurst:   1000,
		RatePerMin:  100000,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Shutdown(context.Background())

	resp, err := http.Get(srv.URL() + "/search?q=Coffee&ll=41.4993,-81.6944")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	page, err := serp.ParseHTML(string(body))
	if err != nil {
		t.Fatal(err)
	}
	if page.Query != "Coffee" {
		t.Fatalf("query = %q", page.Query)
	}
	if eng.Served() != 1 {
		t.Fatalf("served = %d", eng.Served())
	}
	if len(eng.Datacenters()) != 2 {
		t.Fatalf("datacenters = %v", eng.Datacenters())
	}
}

func TestBuildServerQuietModeDeterministic(t *testing.T) {
	srv, _, _, err := buildServer(options{Addr: "127.0.0.1:0", Quiet: true,
		RateBurst: 1000, RatePerMin: 100000})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Shutdown(context.Background())
	fetch := func() string {
		resp, err := http.Get(srv.URL() + "/search?q=School&ll=41.4993,-81.6944")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	if fetch() != fetch() {
		t.Fatal("quiet mode served different pages for identical requests")
	}
}

func TestBuildServerAccessLog(t *testing.T) {
	var buf syncBuffer
	srv, _, _, err := buildServer(options{Addr: "127.0.0.1:0",
		RateBurst: 1000, RatePerMin: 100000,
		Logger: telemetry.NewLogger(&buf, "text")})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Shutdown(context.Background())
	resp, err := http.Get(srv.URL() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if out := buf.String(); !strings.Contains(out, "status=200") || !strings.Contains(out, "path=/healthz") {
		t.Fatalf("access log = %q", out)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer: the access log is written
// from the server goroutine while the test reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestMetricszAndPprofEndpoints(t *testing.T) {
	srv, _, _, err := buildServer(options{Addr: "127.0.0.1:0",
		RateBurst: 1000, RatePerMin: 100000})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Shutdown(context.Background())

	resp, err := http.Get(srv.URL() + "/search?q=Coffee&ll=41.4993,-81.6944")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(srv.URL() + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := string(body)
	for _, want := range []string{"serpd_http_requests_total", "engine_served_total 1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("metricsz missing %q:\n%s", want, out)
		}
	}

	pprofSrv, pprofAddr, err := telemetry.ServePprof("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pprofSrv.Close()
	resp, err = http.Get("http://" + pprofAddr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof status = %d", resp.StatusCode)
	}
}

func TestBuildServerBadAddr(t *testing.T) {
	if _, _, _, err := buildServer(options{Addr: "256.256.256.256:99999"}); err == nil {
		t.Fatal("bad address accepted")
	}
}

// TestBuildShardServer exercises serpd's shard mode end to end: the node
// serves its partition over /shard/search with the standard operability
// endpoints, and refuses to start with an out-of-range shard ID or with
// -shards, which would make it a coordinator too.
func TestBuildShardServer(t *testing.T) {
	srv, sh, err := buildShardServer(options{
		Addr: "127.0.0.1:0", Seed: 7, ShardID: 1, ShardCount: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Shutdown(context.Background())
	if sh.Docs() == 0 {
		t.Fatal("shard owns no documents")
	}

	resp, err := http.Get(srv.URL() + "/shard/search?q=coffee&k=5")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shard search status = %d: %s", resp.StatusCode, body)
	}
	// The reply is one frame (internal/router/frame.go): magic, shard,
	// replica, fingerprint, count, then 12 bytes per hit. The fingerprint
	// is the one a seed-7 three-shard coordinator expects: its document
	// table's index.Fingerprint with the shard count folded in.
	const corpus uint64 = 0x9246838aa48274fb
	le := binary.LittleEndian
	if len(body) < 24 || string(body[:4]) != "GSF1" {
		t.Fatalf("shard reply is not a frame: %q", body)
	}
	if shard, replica := le.Uint32(body[4:]), le.Uint32(body[8:]); shard != 1 || replica != 0 {
		t.Fatalf("shard reply from shard %d replica %d, want 1, 0", shard, replica)
	}
	if got := le.Uint64(body[12:]); got != corpus {
		t.Fatalf("shard reply corpus %016x, want %016x", got, corpus)
	}
	if n := le.Uint32(body[20:]); n == 0 || n > 5 || len(body) != 24+12*int(n) {
		t.Fatalf("shard reply: count %d in a %d-byte frame", n, len(body))
	}

	resp, err = http.Get(srv.URL() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct{ Corpus string }
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("healthz status = %d, decode error %v", resp.StatusCode, err)
	}
	if want := fmt.Sprintf("%016x", corpus); health.Corpus != want {
		t.Fatalf("healthz corpus = %q, want %q", health.Corpus, want)
	}

	for name, bad := range map[string]options{
		"out-of-range shard ID":         {Addr: "127.0.0.1:0", ShardID: 3, ShardCount: 3},
		"both -shards and -shard-count": {Addr: "127.0.0.1:0", ShardCount: 3, Shards: srv.URL()},
	} {
		if _, _, err := buildShardServer(bad); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}
