package router

import (
	"encoding/json"
	"fmt"
	"html"
	"net/http"
	"strconv"
	"strings"

	"geoserp/internal/telemetry"
)

// ClusterTracezPath is the path the coordinator serves the cluster-wide
// trace surface on.
const ClusterTracezPath = "/clustertracez"

// ClusterTracez is the coordinator's cluster-wide trace surface: on every
// request it drains the router's own span ring plus each shard's /spanz
// export (over the scatter-gather client's transport), stitches them into
// cross-process traces, and serves critical-path reports.
//
//	GET /clustertracez                  JSON, every stitched trace
//	GET /clustertracez?trace=<id>       one trace (deterministic body:
//	                                    no ring totals, only trace content)
//	GET /clustertracez?limit=N          at most N most recent traces
//	GET /clustertracez?format=html      human-readable summary
//	GET /clustertracez?format=chrome    multi-process Chrome trace export,
//	                                    one process lane per node
type ClusterTracez struct {
	node   string
	spans  *telemetry.SpanRecorder
	client *Client
}

// NewClusterTracez builds the surface over the coordinator's recorder
// (named node "router" in exports) and its scatter-gather client.
func NewClusterTracez(spans *telemetry.SpanRecorder, client *Client) *ClusterTracez {
	return &ClusterTracez{node: "router", spans: spans, client: client}
}

// Collect snapshots every node's spans, router lane first then shards in
// shard order, plus one error string per lane ("" on success).
func (h *ClusterTracez) Collect() ([]telemetry.NodeSpans, []string) {
	nodes := []telemetry.NodeSpans{{Node: h.node, Spans: h.spans.Snapshot()}}
	errs := []string{""}
	shardNodes, shardErrs := h.client.CollectSpanz()
	nodes = append(nodes, shardNodes...)
	for _, err := range shardErrs {
		if err != nil {
			errs = append(errs, err.Error())
		} else {
			errs = append(errs, "")
		}
	}
	return nodes, errs
}

// clusterNode is one lane's collection summary.
type clusterNode struct {
	Node  string `json:"node"`
	Spans int    `json:"spans"`
	Error string `json:"error,omitempty"`
}

// clusterTraceView is one stitched trace with its attribution report.
type clusterTraceView struct {
	Report TraceReport              `json:"report"`
	Spans  []telemetry.StitchedSpan `json:"spans"`
}

func (h *ClusterTracez) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "bad limit", http.StatusBadRequest)
			return
		}
		limit = n
	}
	want := r.URL.Query().Get("trace")
	format := r.URL.Query().Get("format")
	if format == "" && strings.Contains(r.Header.Get("Accept"), "text/html") {
		format = "html"
	}

	nodes, errs := h.Collect()
	traces := telemetry.Stitch(nodes)
	if want != "" {
		if spans := telemetry.SpansOf(traces, want); spans != nil {
			traces = []telemetry.StitchedTrace{{TraceID: want, Spans: spans}}
		} else {
			traces = nil
		}
	}
	// Most recent trace first, like /tracez; Stitch returns oldest first.
	views := make([]clusterTraceView, 0, len(traces))
	for i := len(traces) - 1; i >= 0; i-- {
		if limit > 0 && len(views) >= limit {
			break
		}
		views = append(views, clusterTraceView{Report: Analyze(traces[i]), Spans: traces[i].Spans})
	}

	switch format {
	case "chrome":
		h.writeChrome(w, nodes, views)
	case "html":
		h.writeHTML(w, nodes, errs, views, want)
	default:
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if want != "" {
			// A filtered body carries only trace content — no ring
			// totals, which drift with unrelated traffic — so same-seed
			// probes export byte-identical bodies.
			enc.Encode(struct {
				Version int                `json:"version"`
				Traces  []clusterTraceView `json:"traces"`
			}{telemetry.SpanzVersion, views})
			return
		}
		lanes := make([]clusterNode, len(nodes))
		for i, n := range nodes {
			lanes[i] = clusterNode{Node: n.Node, Spans: len(n.Spans), Error: errs[i]}
		}
		enc.Encode(struct {
			Version int                `json:"version"`
			Nodes   []clusterNode      `json:"nodes"`
			Traces  []clusterTraceView `json:"traces"`
		}{telemetry.SpanzVersion, lanes, views})
	}
}

// writeChrome renders the (possibly trace-filtered) stitched spans as a
// multi-process Chrome trace: one process lane per node, in collection
// order (router, shard-0, shard-1, …), so a fan-out reads as parallel
// tracks across lanes.
func (h *ClusterTracez) writeChrome(w http.ResponseWriter, nodes []telemetry.NodeSpans, views []clusterTraceView) {
	byNode := make(map[string][]telemetry.SpanRecord, len(nodes))
	// Walk views oldest-first so lane content is chronological.
	for i := len(views) - 1; i >= 0; i-- {
		for _, s := range views[i].Spans {
			byNode[s.Node] = append(byNode[s.Node], s.SpanRecord)
		}
	}
	procs := make([]telemetry.ProcessSpans, 0, len(nodes))
	for _, n := range nodes {
		procs = append(procs, telemetry.ProcessSpans{Name: n.Node, Spans: byNode[n.Node]})
	}
	w.Header().Set("Content-Type", "application/json")
	telemetry.WriteChromeTraceProcs(w, procs)
}

func (h *ClusterTracez) writeHTML(w http.ResponseWriter, nodes []telemetry.NodeSpans, errs []string, views []clusterTraceView, want string) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	var b strings.Builder
	b.WriteString("<!doctype html><title>clustertracez</title>" +
		"<style>body{font-family:monospace}li{list-style:none}</style>" +
		"<h1>clustertracez</h1><p>")
	for i, n := range nodes {
		if i > 0 {
			b.WriteString(" · ")
		}
		fmt.Fprintf(&b, "%s: %d spans", html.EscapeString(n.Node), len(n.Spans))
		if errs[i] != "" {
			fmt.Fprintf(&b, " (error: %s)", html.EscapeString(errs[i]))
		}
	}
	b.WriteString("</p>")
	if want != "" && len(views) == 0 {
		fmt.Fprintf(&b, "<p>trace %s not found on any node</p>", html.EscapeString(want))
	}
	for _, v := range views {
		rep := v.Report
		fmt.Fprintf(&b, "<h2>trace %s</h2><p>%d request span(s), %d shed(s), complete=%v</p><ul>",
			html.EscapeString(rep.TraceID), rep.Requests, rep.Sheds, rep.Complete)
		for _, ret := range rep.Retrievals {
			fmt.Fprintf(&b, "<li>retrieve %s · fanout %s · straggler shard %d (%s, %s)</li>",
				html.EscapeString(ret.SpanID), ret.FanoutDur, ret.Straggler,
				html.EscapeString(ret.StragglerOutcome), ret.StragglerDur)
			for _, l := range ret.Legs {
				fmt.Fprintf(&b, "<li>&nbsp;&nbsp;&nbsp;&nbsp;shard %d · %s · client %s",
					l.Shard, html.EscapeString(l.Outcome), l.ClientDur)
				if l.Replica >= 0 {
					fmt.Fprintf(&b, " · replica %d", l.Replica)
				}
				if l.Stitched {
					fmt.Fprintf(&b, " · server %s on %s", l.ServerDur, html.EscapeString(l.Node))
				}
				if l.Error != "" {
					fmt.Fprintf(&b, " · %s", html.EscapeString(l.Error))
				}
				b.WriteString("</li>")
				for _, la := range l.Attempts {
					fmt.Fprintf(&b, "<li>&nbsp;&nbsp;&nbsp;&nbsp;&nbsp;&nbsp;&nbsp;&nbsp;replica %d · %s",
						la.Replica, html.EscapeString(la.Outcome))
					if la.Stitched {
						fmt.Fprintf(&b, " · server %s on %s", la.ServerDur, html.EscapeString(la.Node))
					}
					if la.Error != "" {
						fmt.Fprintf(&b, " · %s", html.EscapeString(la.Error))
					}
					b.WriteString("</li>")
				}
			}
		}
		b.WriteString("</ul>")
	}
	fmt.Fprint(w, b.String())
}
