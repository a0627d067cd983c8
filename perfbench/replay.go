package main

import (
	"encoding/json"
	"time"

	"geoserp/internal/engine"
	"geoserp/internal/geo"
	"geoserp/internal/index"
	"geoserp/internal/queries"
	"geoserp/internal/router"
	"geoserp/internal/serp"
	"geoserp/internal/webcorpus"
)

// replayMax caps how many of a run's requests the replays re-execute.
const replayMax = 2000

// replayInputs are inputs the run itself generated, for timing the layers
// a request hides: retrieval on the full index and on shard views, the
// merge, the shard reply codec, Places lookups, and the HTML codec.
type replayInputs struct {
	queries []string    // one per request, in request order
	places  []placeCall // the local requests' Places lookups
	pages   [][]byte    // HTML bodies the run served
}

// placeCall is one Places.Near lookup as the engine makes it first.
type placeCall struct {
	pt   geo.Point
	kind string
}

// servingReplayInputs regenerates the first requests of a serving run.
func servingReplayInputs(s *requestStream, samples []pageSample, served int) replayInputs {
	var in replayInputs
	for i := 0; i < served && i < replayMax; i++ {
		spec := s.at(uint64(i))
		q := s.terms[spec.termIx]
		in.queries = append(in.queries, q.Term)
		if q.Category == queries.Local {
			in.places = append(in.places, placeCall{s.pts[spec.locIx], q.ID()})
		}
	}
	for _, smp := range samples {
		if smp.body != nil {
			in.pages = append(in.pages, smp.body)
		}
	}
	return in
}

// replay times each hidden layer over in and records the medians (per
// call, µs) in res. The cold Places figure is a fresh Places's first pass
// divided by its calls, since its cost is all in cache misses.
func replay(res *result, in replayInputs) {
	m := res.layers
	cfg := benchEngineConfig()
	regions := make([]webcorpus.Region, 0)
	for _, ri := range engine.StudyRegions() {
		regions = append(regions, ri.Region)
	}
	full := index.BuildFromWeb(webcorpus.NewWeb(cfg.Seed, queries.StudyCorpus(), regions))
	ring := router.NewRing(3, 0)
	views := make([]*index.Index, ring.Shards())
	for i := range views {
		views[i] = full.Shard(func(d webcorpus.Doc) bool { return ring.Owner(d.URL) == i })
	}
	var search, shardSearch, merge, decode []time.Duration
	var mergeMismatch int
	for _, q := range in.queries {
		t0 := wall.Now()
		want := full.Search(q, 48)
		search = append(search, wall.Now().Sub(t0))
		var merged []index.Hit
		for sh, v := range views {
			t0 = wall.Now()
			hits := v.Search(q, 48)
			shardSearch = append(shardSearch, wall.Now().Sub(t0))
			body, err := json.Marshal(router.ShardResponse{Shard: sh, Hits: hits})
			if err != nil {
				mergeMismatch++
				continue
			}
			var back router.ShardResponse
			t0 = wall.Now()
			err = json.Unmarshal(body, &back)
			decode = append(decode, wall.Now().Sub(t0))
			if err != nil {
				mergeMismatch++
				continue
			}
			merged = append(merged, back.Hits...)
		}
		t0 = wall.Now()
		got := index.MergeHits(merged, 48)
		merge = append(merge, wall.Now().Sub(t0))
		if !sameHits(got, want) {
			mergeMismatch++
		}
	}
	m["index.search_us"] = median(micros(search))
	m["index.shard_search_us"] = median(micros(shardSearch))
	m["index.merge_us"] = median(micros(merge))
	m["router.reply_decode_us"] = median(micros(decode))
	res.check("shard_merge_equals_index", mergeMismatch == 0 && len(in.queries) > 0,
		"%d replayed queries, %d merged rankings differ from the full index", len(in.queries), mergeMismatch)

	if len(in.places) > 0 {
		p := webcorpus.NewPlaces(cfg.Seed)
		t0 := wall.Now()
		for _, c := range in.places {
			p.Near(c.pt, c.kind, cfg.PlaceRadiusKm)
		}
		m["webcorpus.places_near_cold_us"] = us(wall.Now().Sub(t0)) / float64(len(in.places))
		warm := make([]time.Duration, 0, len(in.places))
		for _, c := range in.places {
			t0 = wall.Now()
			p.Near(c.pt, c.kind, cfg.PlaceRadiusKm)
			warm = append(warm, wall.Now().Sub(t0))
		}
		m["webcorpus.places_near_us"] = median(micros(warm))
	}

	var render, parse []time.Duration
	var roundTripOff int
	for _, body := range in.pages {
		doc := string(body)
		t0 := wall.Now()
		page, err := serp.ParseHTML(doc)
		parse = append(parse, wall.Now().Sub(t0))
		if err != nil {
			roundTripOff++
			continue
		}
		t0 = wall.Now()
		out := serp.RenderHTML(page)
		render = append(render, wall.Now().Sub(t0))
		if out != doc {
			roundTripOff++
		}
	}
	m["serp.parse_us"] = median(micros(parse))
	m["serp.render_us"] = median(micros(render))
	res.check("render_parse_roundtrip", roundTripOff == 0 && len(in.pages) > 0,
		"%d served pages, %d not reproduced by RenderHTML(ParseHTML(page))", len(in.pages), roundTripOff)
}

// sameHits reports whether two rankings agree document for document and
// bit for bit in score.
func sameHits(a, b []index.Hit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Doc.URL != b[i].Doc.URL || a[i].Score != b[i].Score {
			return false
		}
	}
	return true
}
