package router

import (
	"sort"
	"strconv"
	"time"

	"geoserp/internal/telemetry"
)

// The critical-path analyzer turns one stitched cross-process trace into
// an attribution report: which shard was the straggler each fan-out waited
// on, how much of the fan-out window was spent waiting for it, and whether
// any leg was lost to a shed, an open breaker, or a deadline. It reads
// only span names and attributes the router and shard layers already
// record — no extra instrumentation on the hot path.

// Span names the analyzer keys on (matching what serpserver, the engine,
// the router client, and the shard handler record).
const (
	spanRequest     = "serpd.request"
	spanShed        = "serpd.shed"
	spanRetrieve    = "engine.retrieve"
	spanShardLeg    = "router.shard"
	spanAttempt     = "router.attempt"
	spanShardSearch = "shard.search"
)

// LegAttempt is one replica contact (or breaker fail-fast skip) within a
// fan-out leg, joined (when possible) with the replica-side server span
// it caused.
type LegAttempt struct {
	Replica int    `json:"replica"`
	Outcome string `json:"outcome"`
	Error   string `json:"error,omitempty"`
	// Stitched reports that the replica-side server span was found; Node
	// and ServerDur come from it.
	Stitched  bool          `json:"stitched,omitempty"`
	Node      string        `json:"node,omitempty"`
	ServerDur time.Duration `json:"server_dur_ns,omitempty"`
}

// ShardLeg is one fan-out leg of a retrieval, joined (when possible) with
// the shard-side server span it caused.
type ShardLeg struct {
	Shard   int    `json:"shard"`
	Outcome string `json:"outcome"`
	// Replica is the replica that delivered the leg's answer; -1 when
	// unknown (failed legs).
	Replica int `json:"replica"`
	// ClientDur is the leg's duration as the router's span saw it.
	ClientDur time.Duration `json:"client_dur_ns"`
	// Stitched reports that the serving replica's server span was found;
	// Node and ServerDur come from it.
	Stitched  bool          `json:"stitched"`
	Node      string        `json:"node,omitempty"`
	ServerDur time.Duration `json:"server_dur_ns,omitempty"`
	Error     string        `json:"error,omitempty"`
	// Attempts is the leg's replica failover chain (empty when its
	// attempt spans were evicted from the ring).
	Attempts []LegAttempt `json:"attempts,omitempty"`
}

// Retrieval is one scatter-gather round's breakdown.
type Retrieval struct {
	SpanID string `json:"span_id"`
	// FanoutDur is the engine.retrieve span's duration: the whole
	// scatter-gather window including the merge.
	FanoutDur time.Duration `json:"fanout_dur_ns"`
	Legs      []ShardLeg    `json:"legs"`
	// Straggler is the contacted shard with the longest client-observed
	// leg (ties break to the lowest shard ID); -1 when no shard did
	// retrieval work (all legs breaker-open or shed).
	Straggler        int           `json:"straggler_shard"`
	StragglerOutcome string        `json:"straggler_outcome,omitempty"`
	StragglerDur     time.Duration `json:"straggler_dur_ns"`
	// Partial reports that at least one leg did not contribute hits.
	Partial bool `json:"partial"`
	// Complete reports that every ok leg stitched to its server span.
	Complete bool `json:"complete"`
}

// TraceReport is the critical-path attribution for one stitched trace.
type TraceReport struct {
	TraceID string `json:"trace_id"`
	// Requests counts coordinator serpd.request spans (one per admitted
	// attempt); Sheds counts serpd.shed spans (admission refusals).
	Requests   int            `json:"requests"`
	Sheds      int            `json:"sheds"`
	Retrievals []Retrieval    `json:"retrievals"`
	Outcomes   map[string]int `json:"outcomes,omitempty"`
	// Complete reports that the trace saw at least one coordinator span
	// and every retrieval stitched completely — the soak's per-request
	// completeness invariant.
	Complete bool `json:"complete"`
}

// Analyze builds the critical-path report for one stitched trace.
func Analyze(tr telemetry.StitchedTrace) TraceReport {
	rep := TraceReport{TraceID: tr.TraceID, Outcomes: map[string]int{}}

	// Index shard-side server spans by the replica attempt span that
	// caused them (their remote parent). Attempts that never reached a
	// replica (breaker open, transport error) have no entry. Attempt spans
	// are indexed by their leg so each leg can render its failover chain.
	serverByParent := make(map[string]telemetry.StitchedSpan)
	attemptsByLeg := make(map[string][]telemetry.StitchedSpan)
	for _, s := range tr.Spans {
		switch s.Name {
		case spanRequest:
			rep.Requests++
		case spanShed:
			rep.Sheds++
		case spanAttempt:
			if s.ParentID != "" {
				attemptsByLeg[s.ParentID] = append(attemptsByLeg[s.ParentID], s)
			}
		case spanShardSearch:
			if s.ParentID != "" {
				serverByParent[s.ParentID] = s
			}
		}
	}

	for _, s := range tr.Spans {
		if s.Name != spanRetrieve {
			continue
		}
		ret := Retrieval{SpanID: s.SpanID, FanoutDur: s.Dur(), Straggler: -1, Complete: true}
		for _, leg := range tr.Spans {
			if leg.Name != spanShardLeg || leg.ParentID != s.SpanID {
				continue
			}
			shard, err := strconv.Atoi(leg.Attr("shard"))
			if err != nil {
				shard = -1
			}
			l := ShardLeg{
				Shard:     shard,
				Outcome:   leg.Attr("outcome"),
				Replica:   -1,
				ClientDur: leg.Dur(),
				Error:     leg.Attr("error"),
			}
			if rv, rerr := strconv.Atoi(leg.Attr("replica")); rerr == nil {
				l.Replica = rv
			}
			for _, as := range attemptsByLeg[leg.SpanID] {
				la := LegAttempt{
					Replica: -1,
					Outcome: as.Attr("outcome"),
					Error:   as.Attr("error"),
				}
				if rv, rerr := strconv.Atoi(as.Attr("replica")); rerr == nil {
					la.Replica = rv
				}
				if srv, ok := serverByParent[as.SpanID]; ok {
					la.Stitched = true
					la.Node = srv.Node
					la.ServerDur = srv.Dur()
				}
				if la.Outcome == outcomeOK {
					// The serving attempt lends the leg its server-side
					// join, and its replica when the leg span lacks one.
					l.Stitched = la.Stitched
					l.Node = la.Node
					l.ServerDur = la.ServerDur
					if l.Replica < 0 {
						l.Replica = la.Replica
					}
				}
				l.Attempts = append(l.Attempts, la)
			}
			rep.Outcomes[l.Outcome]++
			if l.Outcome != outcomeOK {
				ret.Partial = true
			}
			if l.Outcome == outcomeOK && !l.Stitched {
				ret.Complete = false
			}
			ret.Legs = append(ret.Legs, l)
		}
		sort.Slice(ret.Legs, func(i, j int) bool { return ret.Legs[i].Shard < ret.Legs[j].Shard })
		for _, l := range ret.Legs {
			// Breaker-open legs were never contacted and shed legs were
			// refused by the gate without retrieval work; neither is the
			// shard the fan-out did ranking work waiting on.
			if l.Outcome == outcomeBreakerOpen || l.Outcome == outcomeShed {
				continue
			}
			if ret.Straggler < 0 || l.ClientDur > ret.StragglerDur {
				ret.Straggler = l.Shard
				ret.StragglerOutcome = l.Outcome
				ret.StragglerDur = l.ClientDur
			}
		}
		rep.Retrievals = append(rep.Retrievals, ret)
	}
	// Retrievals inherit the stitched span order — chronological with
	// deterministic tie-breaks — so reports are stable run to run.

	rep.Complete = rep.Requests > 0
	for _, r := range rep.Retrievals {
		if !r.Complete {
			rep.Complete = false
		}
	}
	if len(rep.Outcomes) == 0 {
		rep.Outcomes = nil
	}
	return rep
}
