package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"geoserp/internal/httpheader"
	"geoserp/internal/simclock"
)

// Span names: one per layer boundary the benchmark times from outside.
const (
	spanClient    = "client.request"       // closed-loop client: request written to last body byte
	spanFetch     = "browser.fetch"        // campaign transport: request written to last body byte
	spanAdmission = "serpserver.admission" // outside the admission gate
	spanHandler   = "serpserver.handler"   // around serpserver.Handler (inside the gate)
	spanShard     = "router.shard"         // ShardMiddleware around one replica's shard handler
	spanSweep     = "crawler.sweep"        // first fetch of a sweep to its Sink call
	spanIngest    = "analysis.ingest_sweep"
)

// span is one timed region. Times are offsets from the tracer's origin on
// simclock.Wall(); req is the request's trace ID (the sweep index for
// campaign-level spans), parent the enclosing span's name.
type span struct {
	name, parent, req string
	start, end        time.Duration
	shard, replica    int // router.shard only; -1 elsewhere
	bytes             int // response bytes, where counted
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps the traced run's spans and raw wide records in memory.
// on gates every recording site that sits on a path shared with the
// untraced run.
type tracer struct {
	on     atomic.Bool
	wall   simclock.Clock
	origin time.Time

	mu    sync.Mutex
	spans []span
	wide  []string
}

func newTracer() *tracer {
	w := simclock.Wall()
	return &tracer{wall: w, origin: w.Now()}
}

func (t *tracer) now() time.Duration { return t.wall.Now().Sub(t.origin) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) addWide(rec string) {
	t.mu.Lock()
	t.wide = append(t.wide, rec)
	t.mu.Unlock()
}

// take returns and clears everything recorded so far.
func (t *tracer) take() ([]span, []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, w := t.spans, t.wide
	t.spans, t.wide = nil, nil
	return s, w
}

// timed wraps next in a span named name. It is only mounted on the traced
// serving chain, so it records unconditionally.
func (t *tracer) timed(name, parent string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := t.now()
		next.ServeHTTP(w, r)
		t.record(span{name: name, parent: parent, req: r.Header.Get(httpheader.TraceID),
			start: start, end: t.now(), shard: -1})
	})
}

// shardMiddleware is the cluster's ClusterConfig.ShardMiddleware: while
// tracing it times each replica's shard handler and counts its reply
// bytes; otherwise it costs one atomic load.
func (t *tracer) shardMiddleware(shard, replica int, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		start := t.now()
		next.ServeHTTP(cw, r)
		t.record(span{name: spanShard, parent: spanHandler, req: r.Header.Get(httpheader.TraceID),
			start: start, end: t.now(), shard: shard, replica: replica, bytes: cw.n})
	})
}

// countingWriter counts body bytes written through it.
type countingWriter struct {
	http.ResponseWriter
	n int
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += n
	return n, err
}

// modeSwitch routes each request to the plain or the traced serving chain,
// so one rig serves both runs and the untraced run carries no wrappers.
type modeSwitch struct {
	tr            *tracer
	plain, traced http.Handler
}

func (m modeSwitch) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if m.tr.on.Load() {
		m.traced.ServeHTTP(w, r)
		return
	}
	m.plain.ServeHTTP(w, r)
}

// writeSpans writes spans as tab-separated lines (name, request, parent,
// start ns, end ns, shard, replica, bytes) under dir, replacing any file
// from an earlier run of the same workload.
func writeSpans(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	path := filepath.Join(dir, workload+".spans.tsv")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "name\treq\tparent\tstart_ns\tend_ns\tshard\treplica\tbytes")
	for _, s := range spans {
		bw.WriteString(s.name + "\t" + s.req + "\t" + s.parent + "\t" +
			strconv.FormatInt(int64(s.start), 10) + "\t" + strconv.FormatInt(int64(s.end), 10) + "\t" +
			strconv.Itoa(s.shard) + "\t" + strconv.Itoa(s.replica) + "\t" + strconv.Itoa(s.bytes) + "\n")
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	return path, nil
}
