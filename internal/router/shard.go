package router

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"geoserp/internal/httpheader"
	"geoserp/internal/index"
	"geoserp/internal/simclock"
	"geoserp/internal/telemetry"
)

// SearchPath is the shard retrieval endpoint. The admission gate in
// internal/serpserver recognizes it alongside /search, so a shard node
// reuses the exact FIFO admission machinery the monolith serves under.
const SearchPath = "/shard/search"

// defaultShardK bounds a shard reply when the router omits k. It matches
// the engine's retrieval depth so a bare query still returns a full page's
// candidates.
const defaultShardK = 48

// maxShardK caps how many hits one shard response will carry, whatever the
// client asked for.
const maxShardK = 512

// ShardResponse is one shard's answer as the router decodes it from the
// reply frame (see frame.go for the wire layout). Scores cross the wire as
// their exact bits, so the merged ranking equals the monolith's exactly.
type ShardResponse struct {
	// Shard echoes the answering shard's ID (mismatch = misrouted query).
	Shard int
	// Replica echoes the answering node's replica ID within the shard's
	// ReplicaSet (mismatch = misrouted query). Every replica serves the
	// identical document slice, so this is a topology check, not a data
	// property.
	Replica int
	// Corpus is the fingerprint of the shard's document table
	// (index.Fingerprint); it must equal the router's (mismatch = the
	// shard was built from another seed or corpus).
	Corpus uint64
	// Hits is the shard's top-k, already in merge order (score descending,
	// URL ascending), with each Doc resolved from its ID through the
	// router's document table.
	Hits []index.Hit
}

// ShardNodeName is the canonical node name for replica r of shard s, used
// for span lanes, spanz exports, and the in-process cluster's host names.
// Replica 0 keeps the legacy bare "shard-<s>" name so single-replica
// topologies are indistinguishable from pre-replication ones.
func ShardNodeName(shard, replica int) string {
	if replica <= 0 {
		return "shard-" + strconv.Itoa(shard)
	}
	return "shard-" + strconv.Itoa(shard) + "-r" + strconv.Itoa(replica)
}

// ShardHandler is one shard node's HTTP surface: GET /shard/search over a
// document-partitioned shard view of the inverted index (see index.Shard),
// plus the standard /healthz, /metricsz, and /tracez operability
// endpoints. It carries no personalization state — shards rank with global
// IDF and return raw TF-IDF candidates; everything location- or
// session-dependent happens at the router.
type ShardHandler struct {
	id      int
	replica int
	idx     *index.Index
	corpus  uint64 // index.Fingerprint(idx.Docs()), sent on every reply
	mux     *http.ServeMux
	tel     *telemetry.Registry
	spans   *telemetry.SpanRecorder
	clock   simclock.Clock

	// retryAfter, when set (SetRetryAfter), supplies the backlog-derived
	// Retry-After hint for deadline sheds.
	retryAfter func() time.Duration

	requests *telemetry.Counter    // shard_requests_total
	errors   *telemetry.CounterVec // shard_errors_total{reason}
	hits     *telemetry.Counter    // shard_hits_returned_total
	duration *telemetry.Histogram  // shard_search_duration_seconds
	wall     simclock.Clock
}

// ShardOption configures a ShardHandler.
type ShardOption func(*ShardHandler)

// WithShardTelemetry registers the shard's metrics on an existing registry
// (default: a private one).
func WithShardTelemetry(reg *telemetry.Registry) ShardOption {
	return func(h *ShardHandler) { h.tel = reg }
}

// WithShardSpans installs a span recorder: every retrieval gets a
// "shard.search" span keyed off the propagated X-Trace-Id (a remote child
// of the router's fan-out leg when X-Parent-Span is present), and the
// handler mounts GET /tracez and the GET /spanz export over the recorder.
func WithShardSpans(rec *telemetry.SpanRecorder) ShardOption {
	return func(h *ShardHandler) { h.spans = rec }
}

// WithShardClock sets the clock used for deadline checks — the campaign
// clock in virtual-time rigs. Defaults to the wall clock.
func WithShardClock(c simclock.Clock) ShardOption {
	return func(h *ShardHandler) { h.clock = c }
}

// WithShardReplica sets this node's replica ID within its shard's
// ReplicaSet (default 0). It is echoed in every reply frame and
// /healthz body and names the node's span lane (see ShardNodeName); the
// served documents are identical across replicas by construction.
func WithShardReplica(r int) ShardOption {
	return func(h *ShardHandler) { h.replica = r }
}

// NewShardHandler builds a shard node serving the given (already frozen)
// shard index view as shard id. It fingerprints the view's document table
// once, here, for every reply frame and /healthz.
func NewShardHandler(id int, idx *index.Index, opts ...ShardOption) *ShardHandler {
	h := &ShardHandler{id: id, idx: idx, corpus: index.Fingerprint(idx.Docs()),
		mux: http.NewServeMux(), wall: simclock.Wall()}
	for _, o := range opts {
		o(h)
	}
	if h.tel == nil {
		h.tel = telemetry.NewRegistry()
	}
	if h.clock == nil {
		h.clock = simclock.Wall()
	}
	h.requests = h.tel.Counter("shard_requests_total", "Retrieval requests received by this shard.")
	h.errors = h.tel.CounterVec("shard_errors_total", "Shard requests answered with an error status, by reason.", "reason")
	h.hits = h.tel.Counter("shard_hits_returned_total", "Hits returned across all shard responses.")
	h.duration = h.tel.Histogram("shard_search_duration_seconds", "Wall-clock shard retrieval time.", nil)
	h.mux.HandleFunc("GET "+SearchPath, h.handleSearch)
	h.mux.HandleFunc("GET /healthz", h.handleHealth)
	h.mux.Handle("GET /metricsz", h.tel.MetricsHandler())
	if h.spans != nil {
		h.mux.Handle("GET /tracez", telemetry.TracezHandler(h.spans))
		h.mux.Handle("GET "+telemetry.SpanzPath,
			telemetry.SpanzHandler(h.spans, ShardNodeName(h.id, h.replica)))
	}
	return h
}

// Telemetry returns the registry backing /metricsz.
func (h *ShardHandler) Telemetry() *telemetry.Registry { return h.tel }

// Spans returns the installed span recorder (nil when none).
func (h *ShardHandler) Spans() *telemetry.SpanRecorder { return h.spans }

// Docs returns how many documents this shard owns.
func (h *ShardHandler) Docs() int { return h.idx.Len() }

// SetRetryAfter wires the admission gate's backlog-derived retry hint
// into deadline sheds, so router-side clients back off proportionally to
// the queue actually in front of them instead of a hard-coded second.
func (h *ShardHandler) SetRetryAfter(hint func() time.Duration) { h.retryAfter = hint }

// retryAfterSeconds renders the Retry-After value for a deadline shed:
// the gate's backlog estimate when one is wired, else the 1-second floor.
func (h *ShardHandler) retryAfterSeconds() string {
	if h.retryAfter != nil {
		if d := h.retryAfter(); d > time.Second {
			return strconv.Itoa(int((d + time.Second - 1) / time.Second))
		}
	}
	return "1"
}

func (h *ShardHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

func (h *ShardHandler) handleSearch(w http.ResponseWriter, r *http.Request) {
	h.requests.Inc()
	start := h.wall.Now()
	defer h.duration.ObserveSince(start)

	var sp *telemetry.Span
	if h.spans != nil {
		attempt := 0
		if v := r.Header.Get(httpheader.TraceAttempt); v != "" {
			if n, err := strconv.Atoi(v); err == nil {
				attempt = n
			}
		}
		// The router names its fan-out leg in X-Parent-Span, so this span
		// joins the caller's trace as a remote child — the stitcher needs
		// no heuristics. Callers without the header still get a root.
		sp = h.spans.StartRemoteChild(r.Header.Get(httpheader.TraceID), "shard.search",
			r.Header.Get(httpheader.ParentSpan), attempt)
		sp.SetAttr("shard", strconv.Itoa(h.id))
		defer sp.End()
	}

	// A propagated deadline that already passed means the router (or its
	// client) has given up; refuse the work instead of ranking a partition
	// nobody will merge.
	if dl := parseDeadline(r); !dl.IsZero() && h.clock.Now().After(dl) {
		h.errors.With("deadline").Inc()
		sp.SetAttr("error", "deadline")
		w.Header().Set("Retry-After", h.retryAfterSeconds())
		http.Error(w, "deadline exceeded", http.StatusServiceUnavailable)
		return
	}

	q := r.URL.Query().Get("q")
	if q == "" {
		h.errors.With("empty_query").Inc()
		sp.SetAttr("error", "empty_query")
		http.Error(w, "empty query", http.StatusBadRequest)
		return
	}
	sp.SetAttr("query", q)

	k := defaultShardK
	if v := r.URL.Query().Get("k"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			h.errors.With("bad_k").Inc()
			sp.SetAttr("error", "bad_k")
			http.Error(w, "bad k", http.StatusBadRequest)
			return
		}
		k = n
	}
	if k > maxShardK {
		k = maxShardK
	}

	res := h.idx.Search(q, k)
	h.hits.Add(uint64(len(res)))
	sp.SetAttr("hits", strconv.Itoa(len(res)))

	frame := appendFrame(make([]byte, 0, frameHeaderLen+frameHitLen*len(res)),
		h.id, h.replica, h.corpus, res)
	w.Header().Set("Content-Type", "application/octet-stream")
	if trace := r.Header.Get(httpheader.TraceID); trace != "" {
		w.Header().Set(httpheader.TraceID, trace)
	}
	if _, err := w.Write(frame); err != nil {
		// The client went away mid-write; nothing useful to do.
		h.errors.With("write").Inc()
	}
}

func (h *ShardHandler) handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status":  "ok",
		"shard":   h.id,
		"replica": h.replica,
		"docs":    h.idx.Len(),
		"corpus":  corpusHex(h.corpus),
	})
}
