package crawler

import (
	"context"
	"errors"
	"testing"
	"time"

	"geoserp/internal/geo"
)

func TestRunCampaignContextCancellation(t *testing.T) {
	rig := newRig(t, DefaultConfig(), nil)
	ctx, cancel := context.WithCancel(context.Background())

	// Cancel at the first day's last sweep.
	rig.cr.Sink = cancelAtSweep{last: 3, cancel: cancel}

	obs, err := rig.cr.RunCampaign(ctx, []Phase{smallPhase(4, geo.County, 5)})
	if err == nil {
		t.Fatal("cancelled campaign completed")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in chain", err)
	}
	if obs != nil {
		t.Fatal("cancelled campaign returned partial observations")
	}
}

func TestRunCampaignContextPreCancelled(t *testing.T) {
	rig := newRig(t, DefaultConfig(), nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := rig.cr.RunCampaign(ctx, []Phase{smallPhase(1, geo.County, 1)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

func TestRunCampaignContextUncancelledCompletes(t *testing.T) {
	rig := newRig(t, DefaultConfig(), nil)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	obs, err := rig.cr.RunCampaign(ctx, []Phase{smallPhase(2, geo.County, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 2*15*2 {
		t.Fatalf("observations = %d", len(obs))
	}
}
