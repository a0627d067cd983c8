package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"testing"

	"geoserp/internal/engine"
	"geoserp/internal/httpheader"
	"geoserp/internal/router"
	"geoserp/internal/serpserver"
	"geoserp/internal/simclock"
)

// startShard boots one real shard node (the same construction cmd/serpd's
// shard mode performs) on a loopback port.
func startShard(t *testing.T, seed uint64, id, count int, opts ...router.ShardOption) *serpserver.Server {
	t.Helper()
	view := router.BuildShardIndex(seed, nil, id, count, 0)
	sh := router.NewShardHandler(id, view, opts...)
	srv, err := serpserver.Listen("127.0.0.1:0", sh)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	return srv
}

func get(t *testing.T, url, trace string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("User-Agent", "Mozilla/5.0 (Linux; Android 5.1) Mobile")
	if trace != "" {
		req.Header.Set(httpheader.TraceID, trace)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp, string(body)
}

// TestRouterOverRealSockets boots two shard serpd nodes and a serprouter
// over real loopback sockets and checks the routed page is byte-identical
// to a monolithic engine's — the full cmd-layer version of the cluster
// equality the internal/router tests prove in-process.
func TestRouterOverRealSockets(t *testing.T) {
	const seed = 7
	s0 := startShard(t, seed, 0, 2)
	s1 := startShard(t, seed, 1, 2)

	srv, eng, client, err := buildServer(options{
		Addr:       "127.0.0.1:0",
		Shards:     s0.URL() + "," + s1.URL(),
		Seed:       seed,
		RateBurst:  1000,
		RatePerMin: 100000,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Shutdown(context.Background())
	if client.Shards() != 2 {
		t.Fatalf("client shards = %d", client.Shards())
	}

	// Monolithic reference with the identical engine shape.
	cfg := engine.DefaultConfig()
	cfg.Seed = seed
	cfg.RateBurst = 1000
	cfg.RatePerMinute = 100000
	mono := serpserver.NewHandler(engine.NewCustom(cfg, simclock.Wall()))
	monoSrv, err := serpserver.Listen("127.0.0.1:0", mono)
	if err != nil {
		t.Fatal(err)
	}
	monoSrv.Start()
	defer monoSrv.Shutdown(context.Background())

	const q = "/search?q=coffee+shop&ll=41.4993,-81.6944&format=json"
	resp, routed := get(t, srv.URL()+q, "trace-eq")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("router status = %d: %s", resp.StatusCode, routed)
	}
	if resp.Header.Get(httpheader.SerpPartial) != "" {
		t.Fatal("healthy cluster served a partial page")
	}
	_, want := get(t, monoSrv.URL()+q, "trace-eq")
	if routed != want {
		t.Fatalf("routed page differs from monolith\nrouted:   %s\nmonolith: %s", routed, want)
	}
	if eng.Served() == 0 {
		t.Fatal("engine served counter not incremented")
	}

	// Kill shard 1: pages degrade to partial 200s, never errors.
	s1.Shutdown(context.Background())
	resp, body := get(t, srv.URL()+q, "trace-degraded")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded status = %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get(httpheader.SerpPartial) != "web" {
		t.Fatalf("degraded page not marked partial (header %q)", resp.Header.Get(httpheader.SerpPartial))
	}

	// Kill shard 0 too: nothing left to answer from, so /search sheds.
	s0.Shutdown(context.Background())
	resp, _ = get(t, srv.URL()+q, "trace-down")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("all-shards-down status = %d, want 503", resp.StatusCode)
	}
}

func TestSplitShards(t *testing.T) {
	got, err := splitShards(" http://a:1 , http://b:2/ ,")
	if err != nil || len(got) != 2 || got[0] != "http://a:1" || got[1] != "http://b:2" {
		t.Fatalf("splitShards = %v, %v", got, err)
	}
	for _, bad := range []string{"", "  ,  ", "ftp://a:1", "a:1"} {
		if _, err := splitShards(bad); err == nil {
			t.Fatalf("splitShards(%q) accepted", bad)
		}
	}
}

func TestBuildServerRequiresShards(t *testing.T) {
	if _, _, _, err := buildServer(options{Addr: "127.0.0.1:0"}); err == nil {
		t.Fatal("missing -shards accepted")
	}
}

// TestShardCountMismatch documents the failure modes of a misconfigured
// topology: a shard that believes it is part of a different partition, or
// that regenerated its world from another seed, still answers honestly,
// but the router rejects the reply — on the shard ID or on the corpus
// fingerprint. A mismatched world degrades the page and never contributes
// a hit; with no other shard, /search sheds.
func TestShardCountMismatch(t *testing.T) {
	const seed = 7
	for _, tc := range []struct {
		name      string
		shardSeed uint64
		id, count int
	}{
		// The shard claims ID 1, but the router addresses it as shard 0.
		{"wrong shard ID", seed, 1, 2},
		// Shard 0 of 1, as the router expects, but of seed 8's corpus.
		{"wrong seed", seed + 1, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wrong := startShard(t, tc.shardSeed, tc.id, tc.count)
			srv, _, _, err := buildServer(options{
				Addr:       "127.0.0.1:0",
				Shards:     wrong.URL(),
				Seed:       seed,
				RateBurst:  1000,
				RatePerMin: 100000,
			})
			if err != nil {
				t.Fatal(err)
			}
			srv.Start()
			defer srv.Shutdown(context.Background())
			resp, _ := get(t, srv.URL()+"/search?q=coffee&format=json", "t-"+strconv.Itoa(1))
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("misrouted-only cluster: status %d, want 503", resp.StatusCode)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("503 without Retry-After hint")
			}
		})
	}
}

// TestHealthzCorpus checks the corpus fingerprint shards publish on
// /healthz: every node regenerated from one seed reports the same value
// (replicas and other shards alike), and another seed reports another.
func TestHealthzCorpus(t *testing.T) {
	corpus := func(srv *serpserver.Server) string {
		t.Helper()
		_, body := get(t, srv.URL()+"/healthz", "")
		var h struct{ Corpus string }
		if err := json.Unmarshal([]byte(body), &h); err != nil || len(h.Corpus) != 16 {
			t.Fatalf("healthz %s: corpus %q, error %v", body, h.Corpus, err)
		}
		return h.Corpus
	}
	r0 := corpus(startShard(t, 7, 0, 2))
	r1 := corpus(startShard(t, 7, 0, 2, router.WithShardReplica(1)))
	s1 := corpus(startShard(t, 7, 1, 2))
	other := corpus(startShard(t, 8, 0, 2))
	if r0 != r1 || r0 != s1 {
		t.Fatalf("seed-7 nodes disagree on the corpus: replicas %s, %s; shard 1 %s", r0, r1, s1)
	}
	if other == r0 {
		t.Fatalf("seeds 7 and 8 report the same corpus %s", r0)
	}
}
