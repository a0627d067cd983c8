package crawler

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"geoserp/internal/analysis"
	"geoserp/internal/geo"
	"geoserp/internal/storage"
)

// collectSink records every sweep delivered to it.
type collectSink struct {
	infos []SweepInfo
	obs   [][]storage.Observation
}

func (c *collectSink) ObserveSweep(info SweepInfo, obs []storage.Observation) {
	c.infos = append(c.infos, info)
	c.obs = append(c.obs, append([]storage.Observation(nil), obs...))
}

func (c *collectSink) flat() []storage.Observation {
	var out []storage.Observation
	for _, sw := range c.obs {
		out = append(out, sw...)
	}
	return out
}

// cancelAtSweep cancels a campaign's context once sweep last has
// completed: the run stops at the next term boundary, its checkpoint
// holding sweeps 0 through last.
type cancelAtSweep struct {
	last   int
	cancel context.CancelFunc
}

func (s cancelAtSweep) ObserveSweep(info SweepInfo, _ []storage.Observation) {
	if info.Sweep == s.last {
		s.cancel()
	}
}

func TestSinkReceivesEveryCampaignSweep(t *testing.T) {
	rig := newRig(t, DefaultConfig(), nil)
	sink := &collectSink{}
	rig.cr.Sink = sink
	start := rig.clk.Now()
	phase := smallPhase(2, geo.County, 2)
	obs, err := rig.cr.RunCampaign(context.Background(), []Phase{phase})
	if err != nil {
		t.Fatal(err)
	}

	if len(sink.infos) != 4 {
		t.Fatalf("sweeps delivered = %d, want 4 (2 terms x 2 days)", len(sink.infos))
	}
	var total int
	for i, info := range sink.infos {
		if info.Sweep != i {
			t.Fatalf("sweep %d delivered with index %d (must be contiguous campaign order)", i, info.Sweep)
		}
		if info.Recovered {
			t.Fatalf("sweep %d marked recovered in a fresh run", i)
		}
		if info.Phase != "test" || info.Granularity != "county" {
			t.Fatalf("sweep %d labeled %s/%s", i, info.Phase, info.Granularity)
		}
		if i > 0 && info.At.Before(sink.infos[i-1].At) {
			t.Fatalf("sweep %d completed at %v, before sweep %d at %v — campaign clock ran backwards",
				i, info.At, i-1, sink.infos[i-1].At)
		}
		if len(sink.obs[i]) != 15*2 {
			t.Fatalf("sweep %d carried %d observations, want 30", i, len(sink.obs[i]))
		}
		total += len(sink.obs[i])
	}
	if total != len(obs) {
		t.Fatalf("sink saw %d observations, campaign returned %d", total, len(obs))
	}

	prog := rig.cr.ProgressState()
	if prog.SweepsDone != 4 || prog.SweepsTotal != 4 {
		t.Fatalf("progress %d/%d, want 4/4", prog.SweepsDone, prog.SweepsTotal)
	}
	if prog.Observations != total || prog.Failed != 0 || prog.Shed != 0 {
		t.Fatalf("progress tallies %+v", prog)
	}
	if !prog.VirtualNow.Equal(sink.infos[3].At) {
		t.Fatalf("VirtualNow %v, want last sweep instant %v", prog.VirtualNow, sink.infos[3].At)
	}
	// One granularity over two days: the plan's ETA is exactly two 24h
	// lock-step blocks past the campaign start.
	if want := start.Add(48 * time.Hour); !prog.VirtualETA.Equal(want) {
		t.Fatalf("VirtualETA %v, want %v", prog.VirtualETA, want)
	}
}

// TestSinkStreamMatchesBatchOnRealCampaign is the end-to-end parity
// invariant at the crawler layer: feeding the sink's sweeps, in crawl
// order, into a stream yields the exact scorecard that NewDataset's replay
// of the campaign's full observation list computes.
func TestSinkStreamMatchesBatchOnRealCampaign(t *testing.T) {
	rig := newRig(t, DefaultConfig(), nil)
	sink := &collectSink{}
	rig.cr.Sink = sink
	obs, err := rig.cr.RunCampaign(context.Background(), []Phase{smallPhase(3, geo.County, 2)})
	if err != nil {
		t.Fatal(err)
	}
	s := analysis.NewStream()
	for i := range sink.infos {
		if err := s.IngestSweep(sink.infos[i].At, sink.obs[i]); err != nil {
			t.Fatalf("sweep %d: %v", i, err)
		}
	}
	d, err := analysis.NewDataset(obs)
	if err != nil {
		t.Fatal(err)
	}
	batch, live := d.Scorecard(), s.Scorecard()
	if !reflect.DeepEqual(batch, live) {
		t.Fatalf("streaming scorecard diverged from batch on a real campaign:\nbatch: %+v\nstream: %+v", batch, live)
	}
}

func TestResumeReplaysRecoveredSweepsToSink(t *testing.T) {
	dir := t.TempDir()
	phase := smallPhase(2, geo.County, 2)
	ckptPath := filepath.Join(dir, "campaign.ckpt")
	obsPath := filepath.Join(dir, "campaign.partial.jsonl")

	// Reference: the uninterrupted campaign, sink attached.
	crRef := resumeRig(t)
	ref := &collectSink{}
	crRef.Sink = ref
	crRef.EnableCheckpoint(filepath.Join(dir, "ref.ckpt"), filepath.Join(dir, "ref.partial.jsonl"))
	if _, err := crRef.RunCampaign(context.Background(), []Phase{phase}); err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancelled after the first completed day (2 sweeps).
	cr1 := resumeRig(t)
	cr1.EnableCheckpoint(ckptPath, obsPath)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cr1.Sink = cancelAtSweep{last: 1, cancel: cancel}
	if _, err := cr1.RunCampaign(ctx, []Phase{phase}); err == nil {
		t.Fatal("cancelled campaign reported success")
	}

	// Resumed run: recovered sweeps must flow through the sink exactly
	// like executed ones, flagged Recovered, so a streaming aggregator
	// attached on resume still sees the whole campaign.
	cr2 := resumeRig(t)
	sink := &collectSink{}
	cr2.Sink = sink
	if err := cr2.Resume(ckptPath, obsPath); err != nil {
		t.Fatal(err)
	}
	if _, err := cr2.RunCampaign(context.Background(), []Phase{phase}); err != nil {
		t.Fatal(err)
	}

	if len(sink.infos) != 4 {
		t.Fatalf("resumed run delivered %d sweeps, want all 4", len(sink.infos))
	}
	for i, info := range sink.infos {
		if info.Sweep != i {
			t.Fatalf("resumed sweep %d indexed %d", i, info.Sweep)
		}
		wantRecovered := i < 2
		if info.Recovered != wantRecovered {
			t.Fatalf("sweep %d recovered=%v, want %v", i, info.Recovered, wantRecovered)
		}
	}
	if marshalObs(t, sink.flat()) != marshalObs(t, ref.flat()) {
		t.Fatal("resumed run's sink feed differs from the uninterrupted run's")
	}
	if prog := cr2.ProgressState(); prog.SweepsDone != 4 || prog.SweepsTotal != 4 {
		t.Fatalf("resumed progress %+v", prog)
	}

	// And the streaming scorecard built from the resumed feed matches the
	// one built from the uninterrupted feed.
	build := func(c *collectSink) []analysis.Check {
		s := analysis.NewStream()
		for i := range c.infos {
			if err := s.IngestSweep(c.infos[i].At, c.obs[i]); err != nil {
				t.Fatalf("sweep %d: %v", i, err)
			}
		}
		return s.Scorecard()
	}
	if !reflect.DeepEqual(build(sink), build(ref)) {
		t.Fatal("resumed streaming scorecard diverged from the uninterrupted run's")
	}
}
