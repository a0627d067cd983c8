package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"

	"geoserp/internal/httpheader"
	"geoserp/internal/router"
	"geoserp/internal/telemetry"
)

// Trace stitching checks: after the campaign the soak drains every node's
// span ring through the same /clustertracez machinery a coordinator serpd
// serves, and asserts the observability invariants — every sampled request
// left a complete stitched trace (router plus all contacted shards), the
// critical-path attribution matches the injected fault schedule exactly,
// and probe exports are byte-identical across same-seed runs.

// clusterProbes is how many post-campaign probe requests are issued against
// the quiesced cluster. Probes run on the frozen campaign clock with fixed
// inputs, so their stitched traces — and the /clustertracez and Chrome
// bodies exported for them — are byte-identical across same-seed runs,
// which the full-ring export is not (which attempts shed under overload
// depends on wall-clock overlap).
const clusterProbes = 2

// probeTraceID names probe i's trace.
func probeTraceID(i int) string { return fmt.Sprintf("soak-probe-%d", i) }

// collectClusterTraces issues the probes directly against the coordinator
// handler (bypassing the admission gate and chaos latency, which are
// wall-clock dependent), then collects and stitches every node's spans and
// captures the deterministic per-probe exports.
func collectClusterTraces(h http.Handler, ct *router.ClusterTracez, sum *soakSummary) error {
	for i := 0; i < clusterProbes; i++ {
		trace := probeTraceID(i)
		r := httptest.NewRequest(http.MethodGet,
			"/search?q=pizza&ll=41.4993,-81.6944&format=json", nil)
		r.Header.Set("User-Agent", "Mozilla/5.0 (Linux; Android 5.1) Mobile")
		r.Header.Set(httpheader.ForwardedFor, "203.0.113.77")
		r.Header.Set(httpheader.TraceID, trace)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			return fmt.Errorf("soak: probe %s: status %d: %s", trace, w.Code, w.Body.String())
		}
		if p := w.Header().Get(httpheader.SerpPartial); p != "" {
			return fmt.Errorf("soak: probe %s served partial page (%q) on the healed cluster", trace, p)
		}
		sum.ProbeTraceIDs = append(sum.ProbeTraceIDs, trace)
	}

	nodes, errs := ct.Collect()
	sum.ClusterLaneErrors = errs
	sum.ClusterTraces = telemetry.Stitch(nodes)

	serve := func(target string) ([]byte, error) {
		r := httptest.NewRequest(http.MethodGet, target, nil)
		w := httptest.NewRecorder()
		ct.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			return nil, fmt.Errorf("soak: GET %s: status %d", target, w.Code)
		}
		return w.Body.Bytes(), nil
	}
	for _, trace := range sum.ProbeTraceIDs {
		body, err := serve(router.ClusterTracezPath + "?trace=" + trace)
		if err != nil {
			return err
		}
		sum.ClusterTracezJSON = append(sum.ClusterTracezJSON, body...)
		chrome, err := serve(router.ClusterTracezPath + "?trace=" + trace + "&format=chrome")
		if err != nil {
			return err
		}
		sum.ClusterChrome = append(sum.ClusterChrome, chrome...)
	}
	return nil
}

// clusterTraceViolations checks the stitched-trace postconditions, one
// message per violated invariant.
func clusterTraceViolations(sum *soakSummary) []string {
	var bad []string
	for i, e := range sum.ClusterLaneErrors {
		if e != "" {
			bad = append(bad, fmt.Sprintf("span collection lane %d failed: %s", i, e))
		}
	}
	byID := make(map[string]telemetry.StitchedTrace, len(sum.ClusterTraces))
	for _, tr := range sum.ClusterTraces {
		byID[tr.TraceID] = tr
	}

	// Completeness: every sampled request (one trace per observation) must
	// stitch into a full cross-process trace — coordinator span present,
	// every ok fan-out leg joined to its shard-side server span.
	missing, incomplete := 0, 0
	for _, id := range sum.ObsTraceIDs {
		tr, ok := byID[id]
		if !ok {
			missing++
			continue
		}
		if !router.Analyze(tr).Complete {
			incomplete++
		}
	}
	if missing > 0 {
		bad = append(bad, fmt.Sprintf("%d of %d sampled requests left no stitched trace", missing, len(sum.ObsTraceIDs)))
	}
	if incomplete > 0 {
		bad = append(bad, fmt.Sprintf("%d of %d sampled requests stitched incompletely (ok legs missing their shard span)", incomplete, len(sum.ObsTraceIDs)))
	}

	// Fault attribution: the only injected server-side fault is the
	// replica-0 outage window, and failover absorbs it — so every fan-out
	// LEG must read ok, while the error and breaker_open records live on
	// router.attempt spans that must all point at replica 0 (errors only
	// inside the outage window; an open breaker can linger past it until
	// the prober re-closes it).
	errorAttempts, misattributed, badLegs := 0, 0, 0
	for _, tr := range sum.ClusterTraces {
		for _, s := range tr.Spans {
			switch s.Name {
			case "router.shard":
				if out := s.Attr("outcome"); out != "" && out != "ok" {
					badLegs++
				}
			case "router.attempt":
				switch s.Attr("outcome") {
				case "error":
					errorAttempts++
					if s.Attr("replica") != "0" || !inReplicaOutage(s.Start) {
						misattributed++
					}
				case "breaker_open":
					if s.Attr("replica") != "0" {
						misattributed++
					}
				}
			}
		}
	}
	if badLegs > 0 {
		bad = append(bad, fmt.Sprintf("%d stitched fan-out legs ended non-ok (replication must absorb every replica fault)", badLegs))
	}
	if errorAttempts == 0 {
		bad = append(bad, "no stitched trace carries an error attempt despite the replica-outage window")
	}
	if misattributed > 0 {
		bad = append(bad, fmt.Sprintf("%d attempts attribute faults outside the injected schedule (errors must hit replica 0 inside the outage window, open breakers only replica 0)", misattributed))
	}

	// Probe traces: the healed cluster must answer each probe from every
	// shard, completely stitched.
	for _, id := range sum.ProbeTraceIDs {
		tr, ok := byID[id]
		if !ok {
			bad = append(bad, fmt.Sprintf("probe trace %s missing from the stitched set", id))
			continue
		}
		rep := router.Analyze(tr)
		if !rep.Complete || rep.Outcomes["ok"] != shards {
			bad = append(bad, fmt.Sprintf("probe trace %s degenerate: complete=%v outcomes=%v", id, rep.Complete, rep.Outcomes))
		}
	}
	if len(sum.ClusterTracezJSON) == 0 || len(sum.ClusterChrome) == 0 {
		bad = append(bad, "probe exports empty — nothing for the byte-identity check to compare")
	}
	if strings.Contains(string(sum.ClusterTracezJSON), `"nodes"`) {
		bad = append(bad, "filtered /clustertracez body leaks ring totals — it cannot be byte-deterministic")
	}
	return bad
}
