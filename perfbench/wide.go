package main

import (
	"context"
	"fmt"
	"log/slog"
	"strconv"
	"strings"
)

// wideRecord is one parsed "search.wide" line: the canonical per-request
// record serpserver.WithWideEvents emits (telemetry.WideEvent.AppendText).
// Durations are the record's integer microseconds.
type wideRecord struct {
	Trace     string
	Status    int
	DurUS     int64
	Partial   string
	Err       string
	Stages    []wideStage
	Shards    []wideShard
	Hedges    int // hedged backup requests fired
	HedgeWins int
	Dropped   int
}

// wideStage is one engine stage of a wide record.
type wideStage struct {
	Name string
	US   int64
}

// wideShard is one replica attempt of a scatter-gather leg.
type wideShard struct {
	Shard, Replica int
	Outcome        string
	Hedge          bool
	US             int64
}

// stage returns the named stage's microseconds (0 when absent).
func (w wideRecord) stage(name string) int64 {
	for _, s := range w.Stages {
		if s.Name == name {
			return s.US
		}
	}
	return 0
}

// parseWide parses the space-separated key=value record. Unknown keys are
// an error: a format change must fail loudly rather than zero a layer.
func parseWide(s string) (wideRecord, error) {
	var w wideRecord
	for _, field := range strings.Fields(s) {
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return w, fmt.Errorf("wide record: field %q has no '='", field)
		}
		var err error
		switch k {
		case "trace":
			w.Trace = v
		case "status":
			w.Status, err = strconv.Atoi(v)
		case "dur_us":
			w.DurUS, err = strconv.ParseInt(v, 10, 64)
		case "partial":
			w.Partial = v
		case "err":
			w.Err = v
		case "stages":
			w.Stages, err = parseStages(v)
		case "shards":
			w.Shards, err = parseShards(v)
		case "hedges":
			wins, fired, ok := strings.Cut(v, "/")
			if !ok {
				return w, fmt.Errorf("wide record: hedges %q is not wins/fired", v)
			}
			if w.HedgeWins, err = strconv.Atoi(wins); err == nil {
				w.Hedges, err = strconv.Atoi(fired)
			}
		case "dropped":
			w.Dropped, err = strconv.Atoi(v)
		default:
			return w, fmt.Errorf("wide record: unknown key %q", k)
		}
		if err != nil {
			return w, fmt.Errorf("wide record: %s: %w", k, err)
		}
	}
	if w.Trace == "" && w.Status == 0 {
		return w, fmt.Errorf("wide record: no trace or status in %q", s)
	}
	return w, nil
}

func parseStages(v string) ([]wideStage, error) {
	var out []wideStage
	for _, item := range strings.Split(v, ",") {
		name, us, ok := strings.Cut(item, ":")
		if !ok {
			return nil, fmt.Errorf("stage %q is not name:us", item)
		}
		n, err := strconv.ParseInt(us, 10, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, wideStage{Name: name, US: n})
	}
	return out, nil
}

func parseShards(v string) ([]wideShard, error) {
	var out []wideShard
	for _, item := range strings.Split(v, ",") {
		parts := strings.Split(item, ":")
		if len(parts) < 3 || len(parts) > 4 || (len(parts) == 4 && parts[3] != "h") {
			return nil, fmt.Errorf("shard attempt %q is not shard.replica:outcome:us[:h]", item)
		}
		sh, rep, ok := strings.Cut(parts[0], ".")
		if !ok {
			return nil, fmt.Errorf("shard attempt %q has no replica", item)
		}
		var a wideShard
		var err error
		if a.Shard, err = strconv.Atoi(sh); err != nil {
			return nil, err
		}
		if a.Replica, err = strconv.Atoi(rep); err != nil {
			return nil, err
		}
		if a.US, err = strconv.ParseInt(parts[2], 10, 64); err != nil {
			return nil, err
		}
		a.Outcome = parts[1]
		a.Hedge = len(parts) == 4
		out = append(out, a)
	}
	return out, nil
}

// wideSink is the slog handler behind serpserver.WithWideEvents on the
// traced serving path: it keeps each "search.wide" record's raw text in
// the tracer and drops everything else. Parsing waits for the fold, off
// the request path.
type wideSink struct{ tr *tracer }

func (s wideSink) Enabled(context.Context, slog.Level) bool { return true }

func (s wideSink) Handle(_ context.Context, r slog.Record) error {
	if r.Message != "search.wide" {
		return nil
	}
	r.Attrs(func(a slog.Attr) bool {
		if a.Key == "record" {
			s.tr.addWide(a.Value.String())
			return false
		}
		return true
	})
	return nil
}

func (s wideSink) WithAttrs([]slog.Attr) slog.Handler { return s }
func (s wideSink) WithGroup(string) slog.Handler      { return s }
