package crawler

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"geoserp/internal/browser"
	"geoserp/internal/engine"
	"geoserp/internal/geo"
	"geoserp/internal/queries"
	"geoserp/internal/serpserver"
	"geoserp/internal/simclock"
	"geoserp/internal/storage"
)

// brokenVantageRig serves every request normally except those from the
// given vantage coordinate, which always receive a 500 — one persistently
// broken location in an otherwise healthy campaign.
func brokenVantageRig(t *testing.T, cfg Config, badLL string) *Crawler {
	t.Helper()
	clk := simclock.NewManual(time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC))
	eng := engine.New(engine.DefaultConfig(), clk)
	inner := serpserver.NewHandler(eng)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("ll") == badLL {
			http.Error(w, "vantage hardware fault", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	cr, err := New(cfg, clk, srv.URL, geo.StudyDataset(), queries.StudyCorpus())
	if err != nil {
		t.Fatal(err)
	}
	return cr
}

func TestFailSoftPhaseRecordsFailedObservations(t *testing.T) {
	badLoc := geo.StudyDataset().At(geo.County)[0]
	cfg := DefaultConfig()
	cfg.FailureBudget = 0.1 // 2 failed fetches out of 30 per round
	cr := brokenVantageRig(t, cfg, badLoc.Point.String())

	phase := smallPhase(3, geo.County, 1)
	obs, err := cr.RunCampaign(context.Background(), []Phase{phase})
	if err != nil {
		t.Fatalf("campaign aborted despite failure budget: %v", err)
	}
	// Every slot is recorded: 3 terms × 15 locations × 2 roles.
	if want := 3 * 15 * 2; len(obs) != want {
		t.Fatalf("observations = %d, want %d", len(obs), want)
	}
	var failed, ok int
	for _, o := range obs {
		if err := o.Validate(); err != nil {
			t.Fatalf("invalid observation: %v", err)
		}
		if o.Failed {
			failed++
			if o.LocationID != badLoc.ID {
				t.Fatalf("unexpected failure at %s: %s", o.LocationID, o.Err)
			}
			if o.Err == "" || o.Page != nil || o.TraceID == "" || o.Phase != "test" {
				t.Fatalf("malformed failed observation: %+v", o)
			}
		} else {
			ok++
			if o.LocationID == badLoc.ID {
				t.Fatal("broken vantage produced a successful observation")
			}
		}
	}
	// The broken vantage fails treatment and control for all 3 terms.
	if failed != 6 {
		t.Fatalf("failed observations = %d, want 6", failed)
	}
	if ok != 3*14*2 {
		t.Fatalf("successful observations = %d", ok)
	}
	// Telemetry: every failure was retried to exhaustion first.
	inst := cr.instruments()
	if got := inst.fetchFailures.With("test").Value(); got != 6 {
		t.Fatalf("crawler_fetch_failures_total{test} = %d, want 6", got)
	}
	wantRetries := uint64(6 * (cfg.Fetch.Attempts - 1))
	if got := inst.fetchRetries.With("test").Value(); got != wantRetries {
		t.Fatalf("crawler_fetch_retries_total{test} = %d, want %d", got, wantRetries)
	}
}

func TestFailureBudgetZeroAbortsOnFirstFailure(t *testing.T) {
	badLoc := geo.StudyDataset().At(geo.County)[0]
	cfg := DefaultConfig() // FailureBudget 0: strict
	cr := brokenVantageRig(t, cfg, badLoc.Point.String())
	if _, err := cr.RunCampaign(context.Background(), []Phase{smallPhase(2, geo.County, 1)}); err == nil {
		t.Fatal("zero-budget campaign tolerated a failing vantage")
	}
}

func TestFailureBudgetValidation(t *testing.T) {
	clk := simclock.NewManual(time.Now())
	ds, corpus := geo.StudyDataset(), queries.StudyCorpus()
	bad := DefaultConfig()
	bad.FailureBudget = 1.5
	if _, err := New(bad, clk, "http://x", ds, corpus); err == nil {
		t.Fatal("failure budget > 1 accepted")
	}
}

// TestNewRejectsInvalidFetchPolicy: New refuses, before anything is
// fetched, every policy browser.Policy.Validate refuses, with Validate's
// error wrapped.
func TestNewRejectsInvalidFetchPolicy(t *testing.T) {
	clk := simclock.NewManual(time.Now())
	ds, corpus := geo.StudyDataset(), queries.StudyCorpus()
	for _, p := range []browser.Policy{
		{Attempts: -1},
		{Backoff: -time.Second},
		{Timeout: -time.Second},
		{Deadline: -time.Second},
		{MaxBody: -1},
		{BreakerThreshold: -1},
		{BreakerCooldown: -time.Second},
		{BreakerThreshold: 2},
	} {
		want := p.Validate()
		if want == nil {
			t.Fatalf("Validate accepted %+v", p)
		}
		cfg := DefaultConfig()
		cfg.Fetch = p
		_, err := New(cfg, clk, "http://x", ds, corpus)
		if err == nil || errors.Unwrap(err).Error() != want.Error() {
			t.Fatalf("New with %+v: err = %v, want %q wrapped", p, err, want)
		}
	}
}

// resumeRig builds a fresh engine+server+crawler trio on its own virtual
// clock; trace-keyed noise makes two rigs with the same seed byte-for-byte
// interchangeable, which is what checkpoint resume relies on.
func resumeRig(t *testing.T) *Crawler {
	t.Helper()
	clk := simclock.NewManual(time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC))
	eng := engine.New(engine.DefaultConfig(), clk)
	srv := httptest.NewServer(serpserver.NewHandler(eng))
	t.Cleanup(srv.Close)
	cr, err := New(DefaultConfig(), clk, srv.URL, geo.StudyDataset(), queries.StudyCorpus())
	if err != nil {
		t.Fatal(err)
	}
	return cr
}

func marshalObs(t *testing.T, obs []storage.Observation) string {
	t.Helper()
	data, err := json.MarshalIndent(obs, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// interruptedRun executes the phase with checkpointing on and cancels at
// the first day's last sweep, returning the checkpoint file's bytes.
func interruptedRun(t *testing.T, phase Phase, ckptPath, obsPath string) []byte {
	t.Helper()
	cr := resumeRig(t)
	cr.EnableCheckpoint(ckptPath, obsPath)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cr.Sink = cancelAtSweep{last: len(phase.Terms) - 1, cancel: cancel}
	if _, err := cr.RunCampaign(ctx, []Phase{phase}); err == nil {
		t.Fatal("cancelled campaign reported success")
	}
	data, err := os.ReadFile(ckptPath)
	if err != nil {
		t.Fatalf("read checkpoint after interrupted run: %v", err)
	}
	return data
}

func TestResumeReproducesUninterruptedCampaign(t *testing.T) {
	phase := smallPhase(2, geo.County, 2)
	dir := t.TempDir()

	// Reference: the uninterrupted campaign, checkpointing as it goes so
	// its final cursor file can be compared with the resumed run's.
	refCkpt := filepath.Join(dir, "reference.ckpt")
	crRef := resumeRig(t)
	crRef.EnableCheckpoint(refCkpt, filepath.Join(dir, "reference.partial.jsonl"))
	want, err := crRef.RunCampaign(context.Background(), []Phase{phase})
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: checkpointing on, cancelled after the first day.
	ckptPath := filepath.Join(dir, "campaign.ckpt")
	obsPath := filepath.Join(dir, "campaign.partial.jsonl")
	ckBytes := interruptedRun(t, phase, ckptPath, obsPath)
	ck, ok, err := storage.LoadCheckpoint(ckptPath)
	if err != nil || !ok {
		t.Fatalf("no checkpoint after interrupted run: ok=%v err=%v", ok, err)
	}
	if ck.Sweeps != 2 || ck.Day != 0 {
		t.Fatalf("checkpoint cursor %+v, want 2 day-0 sweeps", ck)
	}

	// A second, identically interrupted run writes a byte-identical
	// checkpoint file: UpdatedAt comes from the campaign clock, not the
	// machine's, so the cursor itself is deterministic.
	ckBytes2 := interruptedRun(t, phase,
		filepath.Join(dir, "campaign2.ckpt"), filepath.Join(dir, "campaign2.partial.jsonl"))
	if !bytes.Equal(ckBytes, ckBytes2) {
		t.Fatalf("identically interrupted runs wrote different checkpoint files:\n%s\nvs\n%s", ckBytes, ckBytes2)
	}

	// Resumed run: a brand-new crawler against a brand-new engine.
	cr2 := resumeRig(t)
	if err := cr2.Resume(ckptPath, obsPath); err != nil {
		t.Fatal(err)
	}
	got, err := cr2.RunCampaign(context.Background(), []Phase{phase})
	if err != nil {
		t.Fatal(err)
	}
	if marshalObs(t, got) != marshalObs(t, want) {
		t.Fatal("resumed campaign's observations differ from the uninterrupted run")
	}
	// Day alignment survived the fast-forward: day-1 pages really were
	// served on engine day 1.
	for _, o := range got {
		if o.Page.Day != o.Day {
			t.Fatalf("crawler day %d served engine day %d after resume", o.Day, o.Page.Day)
		}
	}
	// The resumed run only re-fetched days it had not completed.
	if ck2, ok, err := storage.LoadCheckpoint(ckptPath); err != nil || !ok || ck2.Sweeps != 4 {
		t.Fatalf("final checkpoint %+v ok=%v err=%v, want 4 sweeps", ck2, ok, err)
	}
	// And its final cursor file is byte-identical to the uninterrupted
	// run's: the crash-and-resume left no trace even in the metadata.
	finalRef, err := os.ReadFile(refCkpt)
	if err != nil {
		t.Fatal(err)
	}
	finalResumed, err := os.ReadFile(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(finalRef, finalResumed) {
		t.Fatalf("resumed run's final checkpoint differs from the uninterrupted run's:\n%s\nvs\n%s", finalResumed, finalRef)
	}
}

// TestResumeCutsPartialFileInPlace: Resume cuts the partial file after the
// records its cursor acknowledges and rewrites none of them. Here the
// acknowledged lines are valid JSON that json.Encoder does not write (a
// space after every colon), followed by an unacknowledged sweep and a torn
// line: after Resume the file must be exactly the acknowledged bytes, and
// the resumed campaign must still return the uninterrupted run's
// observations.
func TestResumeCutsPartialFileInPlace(t *testing.T) {
	phase := smallPhase(2, geo.County, 2)
	want, err := resumeRig(t).RunCampaign(context.Background(), []Phase{phase})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ckptPath := filepath.Join(dir, "campaign.ckpt")
	obsPath := filepath.Join(dir, "campaign.partial.jsonl")
	interruptedRun(t, phase, ckptPath, obsPath) // 2 day-0 sweeps, 60 records
	data, err := os.ReadFile(obsPath)
	if err != nil {
		t.Fatal(err)
	}
	acked := spaceAfterColons(data)
	var tail bytes.Buffer
	if err := storage.WriteJSONL(&tail, want[60:90]); err != nil {
		t.Fatal(err)
	}
	tail.WriteString(`{"phase":"test","term":`)
	if err := os.WriteFile(obsPath, append(append([]byte(nil), acked...), tail.Bytes()...), 0o644); err != nil {
		t.Fatal(err)
	}

	cr := resumeRig(t)
	if err := cr.Resume(ckptPath, obsPath); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(obsPath); err != nil || !bytes.Equal(got, acked) {
		t.Fatalf("after Resume the partial file holds %d bytes (err %v), want its %d acknowledged bytes unchanged",
			len(got), err, len(acked))
	}
	got, err := cr.RunCampaign(context.Background(), []Phase{phase})
	if err != nil {
		t.Fatal(err)
	}
	if marshalObs(t, got) != marshalObs(t, want) {
		t.Fatal("resumed campaign's observations differ from the uninterrupted run")
	}
}

// spaceAfterColons returns JSON Lines data with a space after every colon
// outside strings: the same records, in a byte form json.Encoder never
// writes.
func spaceAfterColons(data []byte) []byte {
	var out []byte
	inString, escaped := false, false
	for _, c := range data {
		out = append(out, c)
		switch {
		case escaped:
			escaped = false
		case inString && c == '\\':
			escaped = true
		case c == '"':
			inString = !inString
		case !inString && c == ':':
			out = append(out, ' ')
		}
	}
	return out
}

// TestResumeRefusesAnotherPlan: a checkpoint resumes only the plan it was
// written for. Resumed with other terms, the same terms in another order,
// or a plan shorter than the checkpoint, the campaign fails with
// ErrResumeRefused without fetching anything, instead of splicing the
// first plan's recovered sweeps in beside the second plan's.
func TestResumeRefusesAnotherPlan(t *testing.T) {
	phase := smallPhase(2, geo.County, 2)
	local := queries.StudyCorpus().Category(queries.Local)
	for _, tc := range []struct {
		name        string
		interrupted Phase // cut after its first day
		plan        Phase
	}{
		{"other terms", phase, Phase{Name: phase.Name, Terms: local[2:4], Granularities: phase.Granularities, Days: phase.Days}},
		{"reordered terms", phase, Phase{Name: phase.Name, Terms: []queries.Query{local[1], local[0]}, Granularities: phase.Granularities, Days: phase.Days}},
		// The last covered slot and the set of covered slots match; only
		// the order of the first two differs.
		{"first two terms swapped", smallPhase(4, geo.County, 2),
			Phase{Name: phase.Name, Terms: []queries.Query{local[1], local[0], local[2], local[3]}, Granularities: phase.Granularities, Days: phase.Days}},
		{"fewer sweeps", phase, smallPhase(1, geo.County, 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ckptPath := filepath.Join(dir, "campaign.ckpt")
			obsPath := filepath.Join(dir, "campaign.partial.jsonl")
			interruptedRun(t, tc.interrupted, ckptPath, obsPath)
			cr := resumeRig(t)
			if err := cr.Resume(ckptPath, obsPath); err != nil {
				t.Fatal(err)
			}
			obs, err := cr.RunCampaign(context.Background(), []Phase{tc.plan})
			if err == nil {
				t.Fatalf("resumed another plan: %d observations", len(obs))
			}
			if !errors.Is(err, ErrResumeRefused) {
				t.Fatalf("refused resume's error %v does not wrap ErrResumeRefused", err)
			}
			if obs != nil {
				t.Fatalf("refused resume returned %d observations", len(obs))
			}
			if n := cr.instruments().queries.Value(); n != 0 {
				t.Fatalf("refused resume fetched %d queries first", n)
			}
		})
	}
}

// TestResumeRefusesInconsistentCheckpoint: a cursor that counts more
// sweeps than its partial file holds is refused on load, before a plan
// can skip a slot the file has no sweep for.
func TestResumeRefusesInconsistentCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ckptPath := filepath.Join(dir, "campaign.ckpt")
	obsPath := filepath.Join(dir, "campaign.partial.jsonl")
	interruptedRun(t, smallPhase(2, geo.County, 2), ckptPath, obsPath) // 2 day-0 sweeps
	ck, _, err := storage.LoadCheckpoint(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	ck.Sweeps++
	if err := storage.SaveCheckpoint(ckptPath, ck); err != nil {
		t.Fatal(err)
	}
	if err := resumeRig(t).Resume(ckptPath, obsPath); err == nil {
		t.Fatal("resumed a cursor counting 3 sweeps over a file holding 2")
	}
}

func TestResumeWithoutCheckpointStartsFresh(t *testing.T) {
	dir := t.TempDir()
	cr := resumeRig(t)
	if err := cr.Resume(filepath.Join(dir, "none.ckpt"), filepath.Join(dir, "none.jsonl")); err != nil {
		t.Fatal(err)
	}
	obs, err := cr.RunCampaign(context.Background(), []Phase{smallPhase(1, geo.County, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 1*15*2 {
		t.Fatalf("observations = %d", len(obs))
	}
	// The run wrote a checkpoint as it went.
	if _, ok, err := storage.LoadCheckpoint(filepath.Join(dir, "none.ckpt")); err != nil || !ok {
		t.Fatalf("fresh checkpointed run left no cursor: ok=%v err=%v", ok, err)
	}
}

func TestChaosCampaignCompletesWithinBudget(t *testing.T) {
	clk := simclock.NewManual(time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC))
	eng := engine.New(engine.DefaultConfig(), clk)
	srv := httptest.NewServer(serpserver.NewHandler(eng))
	t.Cleanup(srv.Close)
	cfg := DefaultConfig()
	cfg.FailureBudget = 0.2
	cr, err := New(cfg, clk, srv.URL, geo.StudyDataset(), queries.StudyCorpus())
	if err != nil {
		t.Fatal(err)
	}
	// 5% injected fetch-error rate with latency, slept on the campaign
	// clock so virtual time absorbs it.
	chaos := browser.NewChaosTransport(browser.ChaosConfig{
		Seed:      99,
		ErrorRate: 0.05,
		Latency:   250 * time.Millisecond,
		Clock:     clk,
	}, nil)
	cr.Transport = chaos

	phase := smallPhase(3, geo.County, 2)
	obs, err := cr.RunCampaign(context.Background(), []Phase{phase})
	if err != nil {
		t.Fatalf("chaos campaign aborted: %v", err)
	}
	if want := 3 * 15 * 2 * 2; len(obs) != want {
		t.Fatalf("observations = %d, want %d (every slot recorded)", len(obs), want)
	}
	if chaos.Injected() == 0 {
		t.Fatal("chaos transport injected nothing at a 5% error rate")
	}
	// With 3 attempts against a 5% error rate, nearly every fetch
	// recovers; the retry counter must show the recovery work happened.
	inst := cr.instruments()
	if inst.fetchRetries.With("test").Value() == 0 {
		t.Fatal("no retries recorded despite injected faults")
	}
	failed := 0
	for _, o := range obs {
		if o.Failed {
			failed++
		}
	}
	// 0.05^3 per-fetch residual failure odds: the budget (20% per round)
	// must never have been threatened.
	if failed > len(obs)/10 {
		t.Fatalf("failed observations = %d/%d, retries not absorbing the fault rate", failed, len(obs))
	}
}
