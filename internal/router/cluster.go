package router

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"geoserp/internal/engine"
	"geoserp/internal/index"
	"geoserp/internal/queries"
	"geoserp/internal/serpserver"
	"geoserp/internal/simclock"
	"geoserp/internal/telemetry"
	"geoserp/internal/webcorpus"
)

// ClusterConfig assembles a complete in-process cluster: N shard nodes plus
// a router front end, wired through an in-memory transport so no sockets
// are involved. The soak harness and the cluster tests both drive this —
// it is the same code path cmd/serprouter and cmd/serpd take, minus the
// network.
type ClusterConfig struct {
	// Shards is the shard count (>= 1).
	Shards int
	// Replicas is the data replication factor: every shard runs this many
	// identical replica nodes (<= 0 selects 1), and the router fails a
	// fan-out leg over between them. Distinct from VirtualNodes, the
	// ring's hashing knob.
	Replicas int
	// VirtualNodes is the ring's virtual-node count per shard (<= 0
	// selects DefaultVirtualNodes). Every node in a real deployment must
	// agree on it.
	VirtualNodes int
	// Engine configures the coordinator engine (seed, datacenters,
	// buckets, ...). The shard indexes are built from the same seed, so
	// shards and coordinator see the identical deterministic corpus.
	Engine engine.Config
	// Clock drives the coordinator engine, shard deadline checks, and
	// breaker cooldowns — the campaign clock in virtual-time rigs.
	Clock simclock.Clock
	// ShardAdmission, when enabled, gates each shard's /shard/search with
	// the serpserver FIFO admission machinery (each shard gets its own
	// gate and metrics registry).
	ShardAdmission serpserver.AdmissionConfig
	// ShardMiddleware, when set, wraps each replica's handler chain —
	// between the admission gate (outermost) and the shard handler — so a
	// chaos rig can inject per-node faults.
	ShardMiddleware func(shard, replica int, next http.Handler) http.Handler
	// ShardTimeout bounds one fan-out request on the wall clock (<= 0: no
	// per-shard timeout).
	ShardTimeout time.Duration
	// BreakerThreshold / BreakerCooldown configure the router's
	// per-replica circuit breakers; threshold <= 0 disables them.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// HedgeAfter, when > 0, arms the client's hedged requests (see
	// ClientConfig.HedgeAfter).
	HedgeAfter time.Duration
	// ProbeInterval, when > 0, starts the client's background /healthz
	// probe loop re-admitting recovered replicas (see
	// ClientConfig.ProbeInterval); stop it via LocalCluster.StopProber.
	ProbeInterval time.Duration
	// SpanCapacity, when > 0, installs span recorders (router and shards)
	// with that ring-buffer capacity.
	SpanCapacity int
	// Registry, when set, receives the router-side metrics (engine, HTTP
	// front end, scatter-gather) instead of a fresh private registry — so
	// a harness can read engine and router counters off one registry.
	// Shards always get their own registries.
	Registry *telemetry.Registry
	// RouterSpans, when set, is used as the router handler's span
	// recorder instead of a fresh one (SpanCapacity then only sizes the
	// per-shard recorders).
	RouterSpans *telemetry.SpanRecorder
	// RouterOptions are extra options for the router's serpserver.Handler
	// (logger, etc). Spans are installed automatically per RouterSpans /
	// SpanCapacity.
	RouterOptions []serpserver.HandlerOption
}

// LocalCluster is the assembled in-process cluster.
type LocalCluster struct {
	// Handler is the router front end — serve /search on it exactly like a
	// monolithic serpd handler. Callers add chaos / admission wrapping on
	// top if they want the router gated too.
	Handler *serpserver.Handler
	// Engine is the coordinator engine behind Handler.
	Engine *engine.Engine
	// Client is the scatter-gather retriever the engine uses.
	Client *Client
	// Registry is the router-side telemetry registry (engine + HTTP +
	// scatter-gather metrics).
	Registry *telemetry.Registry
	// Spans is the router-side span recorder (nil when SpanCapacity == 0).
	Spans *telemetry.SpanRecorder
	// ShardHandlers are the raw shard nodes, indexed [shard][replica].
	ShardHandlers [][]*ShardHandler
	// ShardChains are the replicas' full serving chains (admission gate
	// around middleware around handler) as mounted in the transport,
	// indexed [shard][replica].
	ShardChains [][]http.Handler
	// StopProber stops the background health prober; a no-op function
	// when ProbeInterval was 0. Idempotent.
	StopProber func()
}

// NewLocalCluster partitions the corpus, builds every shard node and the
// router, and wires them together. The partition is exhaustive and
// disjoint (ring ownership over document URLs), and every shard view keeps
// full-corpus IDF statistics, so the merged cluster ranking is
// byte-identical to a monolithic engine at any shard count.
func NewLocalCluster(cfg ClusterConfig) *LocalCluster {
	if cfg.Shards < 1 {
		panic("router: cluster needs at least one shard")
	}
	if cfg.Clock == nil {
		cfg.Clock = simclock.Wall()
	}

	// Build the full index once from the same deterministic world the
	// coordinator engine generates, then carve per-shard views off it.
	// (Real shard processes each rebuild the world from the seed instead —
	// same corpus, no shared memory; see cmd/serpd's shard mode.)
	full := index.BuildFromWeb(studyWeb(cfg.Engine.Seed, nil))
	ring := NewRing(cfg.Shards, cfg.VirtualNodes)
	replicas := cfg.Replicas
	if replicas <= 0 {
		replicas = 1
	}

	hosts := make(map[string]http.Handler, cfg.Shards*replicas)
	handlers := make([][]*ShardHandler, cfg.Shards)
	chains := make([][]http.Handler, cfg.Shards)
	urls := make([][]string, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		i := i
		// One frozen view per shard, shared by its replicas — exactly what
		// a real deployment gets from every replica regenerating the
		// identical world from the seed.
		view := full.Shard(func(d webcorpus.Doc) bool { return ring.Owner(d.URL) == i })
		handlers[i] = make([]*ShardHandler, replicas)
		chains[i] = make([]http.Handler, replicas)
		urls[i] = make([]string, replicas)
		for r := 0; r < replicas; r++ {
			opts := []ShardOption{WithShardClock(cfg.Clock), WithShardReplica(r)}
			var shardSpans *telemetry.SpanRecorder
			if cfg.SpanCapacity > 0 {
				shardSpans = telemetry.NewSpanRecorder(cfg.SpanCapacity, cfg.Clock)
				opts = append(opts, WithShardSpans(shardSpans))
			}
			sh := NewShardHandler(i, view, opts...)
			var chain http.Handler = sh
			if cfg.ShardMiddleware != nil {
				chain = cfg.ShardMiddleware(i, r, chain)
			}
			if cfg.ShardAdmission.Enabled() {
				ac := cfg.ShardAdmission
				if ac.Clock == nil {
					ac.Clock = cfg.Clock
				}
				adm := serpserver.NewAdmission(ac, sh.Telemetry(), shardSpans, chain)
				if g, ok := adm.(*serpserver.Admission); ok {
					// Deadline sheds at the handler advertise the gate's
					// backlog-derived Retry-After instead of a constant.
					sh.SetRetryAfter(g.RetryAfter)
				}
				chain = adm
			}
			handlers[i][r] = sh
			chains[i][r] = chain
			host := ShardNodeName(i, r)
			hosts[host] = chain
			urls[i][r] = "http://" + host
		}
	}

	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	client := NewClient(ClientConfig{
		Shards:           urls,
		Timeout:          cfg.ShardTimeout,
		BreakerThreshold: cfg.BreakerThreshold,
		BreakerCooldown:  cfg.BreakerCooldown,
		HedgeAfter:       cfg.HedgeAfter,
		ProbeInterval:    cfg.ProbeInterval,
		Clock:            cfg.Clock,
		Transport:        &memTransport{hosts: hosts},
		// The shard views share this table, so the router adds none.
		Docs: full.Docs(),
	}, reg)

	eng := engine.NewCustom(cfg.Engine, cfg.Clock,
		engine.WithTelemetry(reg), engine.WithRetriever(client))
	hOpts := append([]serpserver.HandlerOption(nil), cfg.RouterOptions...)
	spans := cfg.RouterSpans
	if spans == nil && cfg.SpanCapacity > 0 {
		spans = telemetry.NewSpanRecorder(cfg.SpanCapacity, cfg.Clock)
	}
	if spans != nil {
		hOpts = append(hOpts, serpserver.WithSpans(spans))
	}
	handler := serpserver.NewHandler(eng, hOpts...)

	return &LocalCluster{
		Handler:       handler,
		Engine:        eng,
		Client:        client,
		Registry:      reg,
		Spans:         spans,
		ShardHandlers: handlers,
		ShardChains:   chains,
		StopProber:    client.StartProber(),
	}
}

// BuildShardIndex rebuilds the deterministic corpus from seed and returns
// shard shardID's view of a shardCount-way partition. This is how a
// standalone shard process (cmd/serpd -shard-id/-shard-count) obtains its
// slice without any data distribution: every node regenerates the
// identical world from the seed and keeps only the documents the ring
// assigns it. corpus may be nil for the study corpus; virtualNodes <= 0
// selects DefaultVirtualNodes (every node must agree on both). Replicas
// of one shard all build the identical view — replication is running this
// same partition more than once.
func BuildShardIndex(seed uint64, corpus *queries.Corpus, shardID, shardCount, virtualNodes int) *index.Index {
	if shardID < 0 || shardID >= shardCount {
		panic("router: shard ID out of range")
	}
	full := index.BuildFromWeb(studyWeb(seed, corpus))
	ring := NewRing(shardCount, virtualNodes)
	return full.Shard(func(d webcorpus.Doc) bool { return ring.Owner(d.URL) == shardID })
}

// CorpusDocs rebuilds the deterministic corpus from seed and returns its
// document table in doc-ID order — what a standalone router passes as
// ClientConfig.Docs. seed and corpus (nil: the study corpus) must match
// the shards' BuildShardIndex arguments; a mismatch shows up as a corpus
// fingerprint the client rejects.
func CorpusDocs(seed uint64, corpus *queries.Corpus) []webcorpus.Doc {
	return index.DocsOf(studyWeb(seed, corpus))
}

// studyWeb generates the static web every cluster node shares: seed's
// world over corpus (nil: the study corpus) and the study regions.
func studyWeb(seed uint64, corpus *queries.Corpus) *webcorpus.Web {
	if corpus == nil {
		corpus = queries.StudyCorpus()
	}
	regions := make([]webcorpus.Region, 0)
	for _, ri := range engine.StudyRegions() {
		regions = append(regions, ri.Region)
	}
	return webcorpus.NewWeb(seed, corpus, regions)
}

// memTransport dispatches shard requests to in-process handlers by host
// name — full HTTP serialization, no sockets. Unknown hosts fail like a
// connection refusal (a breaker-eligible transport error).
type memTransport struct {
	hosts map[string]http.Handler
}

func (t *memTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	h, ok := t.hosts[r.URL.Host]
	if !ok {
		return nil, fmt.Errorf("memtransport: no such host %q", r.URL.Host)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	resp := rec.Result()
	resp.Request = r
	return resp, nil
}
