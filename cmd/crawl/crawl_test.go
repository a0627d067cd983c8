package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"geoserp/internal/browser"
	"geoserp/internal/crawler"
	"geoserp/internal/queries"
	"geoserp/internal/statz"
	"geoserp/internal/storage"
)

func TestRunCrawlInProcess(t *testing.T) {
	out := filepath.Join(t.TempDir(), "campaign.jsonl")
	n, err := runCrawl(options{
		Out:              out,
		TermsPerCategory: 2,
		Days:             1,
		Machines:         44,
		Seed:             1,
		PinnedDatacenter: "dc-0",
		Wait:             11 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	// (2 local + 2 controversial + 2 politicians) × 59 locations × 2 roles × 1 day.
	want := 6 * 59 * 2
	if n != want {
		t.Fatalf("observations = %d, want %d", n, want)
	}
	obs, err := storage.LoadJSONL(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != want {
		t.Fatalf("file has %d observations, want %d", len(obs), want)
	}
	for _, o := range obs {
		if o.Datacenter != "dc-0" {
			t.Fatalf("observation served by %q, want dc-0", o.Datacenter)
		}
	}
}

func TestRunCrawlCheckpointLifecycle(t *testing.T) {
	dir := t.TempDir()
	opts := options{
		Out:              filepath.Join(dir, "a.jsonl"),
		TermsPerCategory: 1,
		Days:             1,
		Machines:         44,
		Seed:             7,
		PinnedDatacenter: "dc-0",
		Wait:             11 * time.Minute,
	}
	if _, err := runCrawl(opts); err != nil {
		t.Fatal(err)
	}
	for _, leftover := range []string{opts.Out + ".ckpt", opts.Out + ".partial"} {
		if _, err := os.Stat(leftover); err == nil {
			t.Fatalf("%s survived a successful campaign", leftover)
		}
	}
	ref, err := os.ReadFile(opts.Out)
	if err != nil {
		t.Fatal(err)
	}

	// A stale cursor from some earlier run must not steer a fresh campaign.
	stale := opts
	stale.Out = filepath.Join(dir, "b.jsonl")
	if err := os.WriteFile(stale.Out+".ckpt", []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runCrawl(stale); err != nil {
		t.Fatalf("fresh run tripped over stale checkpoint: %v", err)
	}
	got, err := os.ReadFile(stale.Out)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(ref) {
		t.Fatal("fresh run with stale checkpoint diverged from reference")
	}

	// -resume with no cursor on disk is just a fresh run.
	resumed := stale
	resumed.Out = filepath.Join(dir, "c.jsonl")
	resumed.Resume = true
	if _, err := runCrawl(resumed); err != nil {
		t.Fatal(err)
	}
	got, err = os.ReadFile(resumed.Out)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(ref) {
		t.Fatal("-resume without a checkpoint diverged from a fresh run")
	}
}

// TestRunCrawlRefusedResumeHasNoRestartHint: resuming with another plan
// fails without telling the user to resume again. The checkpoint is the
// one a -terms 3 campaign killed after its first four sweeps leaves, taken
// from an uninterrupted run's output; -terms 2 skips two of those sweeps
// and is refused at the third.
func TestRunCrawlRefusedResumeHasNoRestartHint(t *testing.T) {
	dir := t.TempDir()
	opts := options{
		Out:              filepath.Join(dir, "full.jsonl"),
		TermsPerCategory: 3,
		Days:             1,
		Machines:         44,
		Seed:             7,
		PinnedDatacenter: "dc-0",
		Wait:             11 * time.Minute,
	}
	if _, err := runCrawl(opts); err != nil {
		t.Fatal(err)
	}
	obs, err := storage.LoadJSONL(opts.Out)
	if err != nil {
		t.Fatal(err)
	}
	p := crawler.ScaledPhases(queries.StudyCorpus(), 3, 1)[0]
	var partial []storage.Observation
	for _, q := range p.Terms[:4] {
		for _, o := range obs {
			if o.Phase == p.Name && o.Granularity == p.Granularities[0].Short() && o.Day == 0 && o.Term == q.Term {
				partial = append(partial, o)
			}
		}
	}
	last := partial[len(partial)-1]
	resumed := opts
	resumed.Out = filepath.Join(dir, "resumed.jsonl")
	resumed.TermsPerCategory = 2
	resumed.Resume = true
	if err := storage.SaveJSONL(resumed.Out+".partial", partial); err != nil {
		t.Fatal(err)
	}
	if err := storage.SaveCheckpoint(resumed.Out+".ckpt", storage.Checkpoint{
		Sweeps: 4, Observations: len(partial),
		Phase: last.Phase, Granularity: last.Granularity, Day: last.Day, Term: last.Term,
	}); err != nil {
		t.Fatal(err)
	}
	_, err = runCrawl(resumed)
	if !errors.Is(err, crawler.ErrResumeRefused) {
		t.Fatalf("resume with another plan: err = %v, want ErrResumeRefused", err)
	}
	if strings.Contains(err.Error(), "-resume") {
		t.Fatalf("refused resume tells the user to resume again: %v", err)
	}
}

func TestRunCrawlValidation(t *testing.T) {
	if _, err := runCrawl(options{Out: ""}); err == nil {
		t.Fatal("empty output path accepted")
	}
	if _, err := runCrawl(options{Out: "/nonexistent-dir/x.jsonl", TermsPerCategory: 1, Days: 1}); err == nil {
		t.Fatal("unwritable output path accepted")
	}
	// -retries -1: the policy is refused before the campaign writes its
	// output, checkpoint or partial file.
	dir := t.TempDir()
	_, err := runCrawl(options{Out: filepath.Join(dir, "x.jsonl"), TermsPerCategory: 1, Days: 1,
		Fetch: browser.Policy{Attempts: -1}})
	if err == nil || !strings.Contains(err.Error(), "negative retry attempts -1") {
		t.Fatalf("err = %v, want the policy refused", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("refused policy left %d files behind", len(entries))
	}
}

// runCrawl's in-process server goes with it: a campaign that lands and one
// refused after the server started each leave the goroutine count where
// they found it. net/http's goroutines exit asynchronously, so the count
// is polled for a while.
func TestRunCrawlStopsInProcessServer(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fetch browser.Policy
		ok    bool
	}{
		{"campaign", browser.Policy{}, true},
		{"refused policy", browser.Policy{Attempts: -1}, false},
	} {
		base := runtime.NumGoroutine()
		_, err := runCrawl(options{Out: filepath.Join(t.TempDir(), "x.jsonl"), TermsPerCategory: 1, Days: 1,
			Seed: 1, Fetch: tc.fetch})
		if (err == nil) != tc.ok {
			t.Fatalf("%s: err = %v", tc.name, err)
		}
		for end := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base && time.Now().Before(end); {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines after runCrawl, %d before:\n%s", tc.name, n, base, buf[:runtime.Stack(buf, true)])
		}
	}
}

func TestRunCrawlAgainstDeadServer(t *testing.T) {
	out := filepath.Join(t.TempDir(), "x.jsonl")
	_, err := runCrawl(options{
		Out:              out,
		Server:           "http://127.0.0.1:1",
		TermsPerCategory: 1,
		Days:             1,
		Wait:             time.Millisecond,
	})
	if err == nil {
		t.Fatal("crawl against dead server succeeded")
	}
}

func TestRunCrawlCustomCorpus(t *testing.T) {
	dir := t.TempDir()
	corpusPath := filepath.Join(dir, "corpus.json")
	doc := `[
	  {"term": "Coffee", "category": "local"},
	  {"term": "Health", "category": "controversial"},
	  {"term": "Barack Obama", "category": "politician"}
	]`
	if err := os.WriteFile(corpusPath, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "obs.jsonl.gz")
	n, err := runCrawl(options{
		Out:        out,
		CorpusPath: corpusPath,
		Days:       1,
		Machines:   44,
		Wait:       11 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 3 terms × 59 locations × 2 roles.
	if want := 3 * 59 * 2; n != want {
		t.Fatalf("observations = %d, want %d", n, want)
	}
	obs, err := storage.LoadJSONL(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != n {
		t.Fatalf("gzip file has %d observations", len(obs))
	}
	if _, err := runCrawl(options{Out: out, CorpusPath: filepath.Join(dir, "missing.json"), Days: 1}); err == nil {
		t.Fatal("missing corpus accepted")
	}
}

// TestRunCrawlStatzDeterminism: the -statz-out snapshot is a deterministic
// artifact of (seed, campaign shape). Two same-seed runs — one also serving
// the live /statz surface, one headless — must write byte-identical
// snapshots: serving the audit endpoint during the campaign cannot perturb
// the campaign itself. The snapshot carries the build block and a finished
// campaign progress summary.
func TestRunCrawlStatzDeterminism(t *testing.T) {
	dir := t.TempDir()
	base := options{
		TermsPerCategory: 1,
		Days:             2,
		Machines:         44,
		Seed:             3,
		PinnedDatacenter: "dc-0",
		Wait:             11 * time.Minute,
		DriftThreshold:   0.5,
	}

	live := base
	live.Out = filepath.Join(dir, "a.jsonl")
	live.StatzOut = filepath.Join(dir, "a-statz.json")
	live.StatzAddr = "127.0.0.1:0"
	if _, err := runCrawl(live); err != nil {
		t.Fatal(err)
	}
	headless := base
	headless.Out = filepath.Join(dir, "b.jsonl")
	headless.StatzOut = filepath.Join(dir, "b-statz.json")
	if _, err := runCrawl(headless); err != nil {
		t.Fatal(err)
	}

	aj, err := os.ReadFile(live.StatzOut)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := os.ReadFile(headless.StatzOut)
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Fatalf("same-seed statz snapshots differ (%d vs %d bytes)", len(aj), len(bj))
	}

	var snap statz.Snapshot
	if err := json.Unmarshal(aj, &snap); err != nil {
		t.Fatalf("statz snapshot unparseable: %v", err)
	}
	if snap.Build.GoVersion == "" {
		t.Error("statz snapshot missing build.go_version")
	}
	if snap.Sweep == 0 || snap.Stream.Sweeps != snap.Sweep {
		t.Errorf("snapshot sweep=%d stream.sweeps=%d, want matching non-zero", snap.Sweep, snap.Stream.Sweeps)
	}
	if snap.Campaign == nil || snap.Campaign.SweepsDone != snap.Campaign.SweepsTotal || snap.Campaign.SweepsTotal == 0 {
		t.Errorf("campaign block = %+v, want finished plan", snap.Campaign)
	}
	if len(snap.Stream.Scorecard) == 0 {
		t.Error("statz snapshot carries no scorecard claims")
	}
	if len(snap.Errors) != 0 {
		t.Errorf("statz snapshot recorded ingest errors: %v", snap.Errors)
	}
}

// TestRunCrawlObservabilityArtifacts: -trace-out and -metrics-out land
// beside the data — a valid Chrome trace with the full span hierarchy,
// and a Prometheus snapshot carrying the campaign counters.
func TestRunCrawlObservabilityArtifacts(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	promPath := filepath.Join(dir, "snapshot.prom")
	_, err := runCrawl(options{
		Out:              filepath.Join(dir, "campaign.jsonl"),
		TermsPerCategory: 1,
		Days:             1,
		Machines:         44,
		Seed:             1,
		Wait:             11 * time.Minute,
		TraceOut:         tracePath,
		MetricsOut:       promPath,
	})
	if err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		names[ev.Name] = true
	}
	for _, want := range []string{
		"crawler.campaign", "crawler.phase", "crawler.sweep",
		"browser.fetch", "serpd.request", "engine.rerank",
	} {
		if !names[want] {
			t.Fatalf("trace missing %q spans", want)
		}
	}

	prom, err := os.ReadFile(promPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"crawler_queries_total", "browser_fetches_total",
		"engine_stage_duration_seconds_bucket{stage=\"rerank\"",
	} {
		if !strings.Contains(string(prom), want) {
			t.Fatalf("metrics snapshot missing %q:\n%s", want, prom)
		}
	}
}
