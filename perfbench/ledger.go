package main

import (
	"fmt"
	"sort"
	"time"
)

// Layer names of the per-request ledger. A request's layers plus its
// unattributed remainder add up to its end-to-end time exactly.
const (
	layerAdmissionWait = "serpserver.admission_wait" // outside minus inside the gate
	layerServerSelf    = "serpserver.self"           // handler minus engine stages
	layerMergeSelf     = "router.merge_self"         // retrieve stage minus its slowest leg
	layerWire          = "router.wire"               // slowest leg minus its shard handlers
	layerShard         = "router.shard"              // slowest leg's shard handlers
	// Engine stages appear as "engine.<stage>" from the wide record.
)

// reqTiming is one request's boundaries, joined by trace ID.
type reqTiming struct {
	e2e     time.Duration // client-side root span
	gate    time.Duration // outside the admission gate; 0 when there is none
	handler time.Duration // around serpserver.Handler
	wide    wideRecord
	shards  []span // router.shard spans of this request
}

// part is one layer's share of a request.
type part struct {
	name string
	d    time.Duration
}

// ledger is one request's attribution.
type ledger struct {
	e2e   time.Duration
	parts []part
}

// unattributed is what no layer explains: the end-to-end time minus every
// layer. For the serving chains it is mostly net/http and loopback TCP on
// both ends of the connection.
func (l ledger) unattributed() time.Duration {
	u := l.e2e
	for _, p := range l.parts {
		u -= p.d
	}
	return u
}

// leg is one scatter-gather leg: every replica attempt of one shard.
type leg struct {
	shard   int
	dur     time.Duration // sum of the leg's attempts, client side
	handler time.Duration // sum of its shard-handler spans
	firstOK bool
	bytes   int
}

// legsOf folds a wide record's replica attempts and the request's shard
// spans into per-shard legs, in shard order.
func legsOf(w wideRecord, shards []span) []leg {
	byShard := map[int]*leg{}
	var order []int
	for _, a := range w.Shards {
		l, ok := byShard[a.Shard]
		if !ok {
			l = &leg{shard: a.Shard, firstOK: a.Outcome == "ok"}
			byShard[a.Shard] = l
			order = append(order, a.Shard)
		}
		l.dur += time.Duration(a.US) * time.Microsecond
	}
	for _, s := range shards {
		if l, ok := byShard[s.shard]; ok {
			l.handler += s.dur()
			l.bytes += s.bytes
		}
	}
	sort.Ints(order)
	out := make([]leg, 0, len(order))
	for _, sh := range order {
		out = append(out, *byShard[sh])
	}
	return out
}

// slowest returns the index of the longest leg (-1 when there are none).
func slowest(legs []leg) int {
	best := -1
	for i, l := range legs {
		if best < 0 || l.dur > legs[best].dur {
			best = i
		}
	}
	return best
}

// attribute decomposes one request. Everything the gate or handler span
// covers is split into layers: admission wait, the engine stages (with
// the retrieve stage of a cluster request replaced by its critical path:
// merge self time, then the slowest leg's wire and shard time), and the
// handler's self time. The client-side remainder is left unattributed.
func attribute(rt reqTiming) ledger {
	l := ledger{e2e: rt.e2e}
	if rt.gate > 0 {
		l.parts = append(l.parts, part{layerAdmissionWait, rt.gate - rt.handler})
	}
	var stages time.Duration
	for _, s := range rt.wide.Stages {
		d := time.Duration(s.US) * time.Microsecond
		stages += d
		if s.Name == "retrieve" && len(rt.wide.Shards) > 0 {
			legs := legsOf(rt.wide, rt.shards)
			sl := legs[slowest(legs)]
			l.parts = append(l.parts,
				part{layerMergeSelf, d - sl.dur},
				part{layerWire, sl.dur - sl.handler},
				part{layerShard, sl.handler})
			continue
		}
		l.parts = append(l.parts, part{"engine." + s.Name, d})
	}
	l.parts = append(l.parts, part{layerServerSelf, rt.handler - stages})
	return l
}

// layerFold is the traced run folded per layer, in microseconds.
type layerFold struct {
	requests  int // requests with a complete ledger
	unmatched int // root spans missing a handler span or wide record
	e2e       []float64
	handler   []float64
	retrieve  []float64 // the engine's retrieve stage, before decomposition
	parts     map[string][]float64
	unattrib  []float64
	legs      []leg
	straggler []float64 // per cluster request: slowest minus median leg
}

// foldTrace joins the traced run's spans and wide records by trace ID and
// folds every complete request's ledger. root names the client-side span.
func foldTrace(spans []span, wide []string, root string) (*layerFold, error) {
	records := make(map[string]wideRecord, len(wide))
	for _, raw := range wide {
		w, err := parseWide(raw)
		if err != nil {
			return nil, err
		}
		records[w.Trace] = w
	}
	type joined struct {
		root, gate, handler *span
		shards              []span
	}
	byReq := map[string]*joined{}
	var reqOrder []string
	for i := range spans {
		s := &spans[i]
		j, ok := byReq[s.req]
		if !ok {
			j = &joined{}
			byReq[s.req] = j
			reqOrder = append(reqOrder, s.req)
		}
		switch s.name {
		case root:
			j.root = s
		case spanAdmission:
			j.gate = s
		case spanHandler:
			j.handler = s
		case spanShard:
			j.shards = append(j.shards, *s)
		}
	}
	sort.Strings(reqOrder)
	f := &layerFold{parts: map[string][]float64{}}
	for _, req := range reqOrder {
		j := byReq[req]
		if j.root == nil {
			continue
		}
		w, ok := records[req]
		if j.handler == nil || !ok {
			f.unmatched++
			continue
		}
		rt := reqTiming{e2e: j.root.dur(), handler: j.handler.dur(), wide: w, shards: j.shards}
		if j.gate != nil {
			rt.gate = j.gate.dur()
		}
		l := attribute(rt)
		f.requests++
		f.e2e = append(f.e2e, us(rt.e2e))
		f.handler = append(f.handler, us(rt.handler))
		f.retrieve = append(f.retrieve, float64(w.stage("retrieve")))
		for _, p := range l.parts {
			f.parts[p.name] = append(f.parts[p.name], us(p.d))
		}
		f.unattrib = append(f.unattrib, us(l.unattributed()))
		legs := legsOf(w, j.shards)
		f.legs = append(f.legs, legs...)
		if len(legs) > 0 {
			ds := make([]float64, len(legs))
			for i, lg := range legs {
				ds[i] = us(lg.dur)
			}
			fd := foldOf(ds)
			f.straggler = append(f.straggler, ds[slowest(legs)]-fd.p50)
		}
	}
	if f.requests == 0 {
		return nil, fmt.Errorf("trace: no request joined its spans and wide record (%d spans, %d records)", len(spans), len(wide))
	}
	return f, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
