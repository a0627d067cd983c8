package crawler

import (
	"time"

	"geoserp/internal/geo"
	"geoserp/internal/storage"
)

// SweepInfo describes one completed lock-step sweep: a single term queried
// from every vantage of one granularity, treatment and control, on one
// campaign day.
type SweepInfo struct {
	Phase       string `json:"phase"`
	Granularity string `json:"granularity"`
	Term        string `json:"term"`
	Day         int    `json:"day"`
	// Sweep is the 0-based campaign-wide sweep index, contiguous across
	// phases, granularities, and days in the campaign's deterministic
	// iteration order.
	Sweep int `json:"sweep"`
	// At is the campaign-clock instant the sweep's lock-step slot was
	// scheduled — the same instant every observation in the sweep carries
	// as FetchedAt. The slot instant, not the completion instant: how far
	// a sweep's retry tail ran past its slot depends on wall-clock
	// scheduling (which concurrent fetches the admission gate shed, and
	// therefore which chaos draws their retries hit), so stamping
	// completion would make otherwise byte-identical same-seed campaign
	// timelines diverge. The schedule is absolute, so the slot instant is
	// deterministic under a Manual clock, never wall time.
	At time.Time `json:"at"`
	// Recovered marks a sweep served from a resume checkpoint instead of
	// fetched this run.
	Recovered bool `json:"recovered,omitempty"`
}

// SweepSink consumes completed sweeps. ObserveSweep is called from the
// scheduling goroutine after the sweep's observations are final (and
// checkpointed, when checkpointing is on); a slow sink therefore delays
// the campaign, and implementations are expected to be fast or to hand
// off internally. The production sink, statz.Recorder (an
// analysis.Stream ingest plus a frozen /statz snapshot), takes ~0.45 ms
// per sweep of 30 or 44 observations on a 2-vCPU host, against ~7 ms for
// the sweep's fetches. The obs slice must not be mutated or retained.
type SweepSink interface {
	ObserveSweep(info SweepInfo, obs []storage.Observation)
}

// ProgressSnapshot is a point-in-time view of a campaign's progress, safe
// to read from any goroutine via Crawler.ProgressState.
type ProgressSnapshot struct {
	// Phase, Granularity, and Day locate the most recently completed
	// sweep.
	Phase       string `json:"phase"`
	Granularity string `json:"granularity"`
	Day         int    `json:"day"`
	// SweepsDone / SweepsTotal count term sweeps, recovered ones
	// included; SweepsTotal is fixed when the campaign plan is laid out.
	SweepsDone  int `json:"sweeps_done"`
	SweepsTotal int `json:"sweeps_total"`
	// Observations, Failed, and Shed tally the captured slots so far.
	Observations int `json:"observations"`
	Failed       int `json:"failed"`
	Shed         int `json:"shed"`
	// FailureBudget and ShedBudget echo the per-round budget
	// configuration, so a live dashboard can show consumption against
	// allowance.
	FailureBudget float64 `json:"failure_budget"`
	ShedBudget    float64 `json:"shed_budget"`
	// VirtualNow is the campaign-clock instant of the last completed
	// sweep; VirtualETA is the campaign-clock instant the schedule ends
	// (start + one 24h block per granularity-day).
	VirtualNow time.Time `json:"virtual_now"`
	VirtualETA time.Time `json:"virtual_eta"`
}

// ProgressState returns the current campaign progress. It is safe to call
// concurrently with a running campaign.
func (c *Crawler) ProgressState() ProgressSnapshot {
	c.progMu.Lock()
	defer c.progMu.Unlock()
	return c.prog
}

// planCampaign lays out the progress plan: total sweep count and the
// virtual-clock ETA, both derived from the phase list alone (the lock-step
// schedule is absolute, so the ETA is exact for campaigns that finish).
func (c *Crawler) planCampaign(phases []Phase) {
	now := c.clock.Now()
	total := 0
	var span time.Duration
	for _, p := range phases {
		total += len(p.Granularities) * p.Days * len(p.Terms)
		span += time.Duration(len(p.Granularities)*p.Days) * 24 * time.Hour
	}
	c.progMu.Lock()
	c.prog = ProgressSnapshot{
		SweepsTotal:   total,
		FailureBudget: c.cfg.FailureBudget,
		ShedBudget:    c.cfg.ShedBudget,
		VirtualNow:    now,
		VirtualETA:    now.Add(span),
	}
	c.progMu.Unlock()
}

// notifySweep advances the progress state for one completed sweep and
// forwards it to the sink (outside the progress lock). at is the sweep's
// absolute slot instant from the lock-step schedule (see SweepInfo.At).
func (c *Crawler) notifySweep(phase string, g geo.Granularity, day int, term string, at time.Time, obs []storage.Observation, recovered bool) {
	c.progMu.Lock()
	info := SweepInfo{
		Phase:       phase,
		Granularity: g.Short(),
		Term:        term,
		Day:         day,
		Sweep:       c.prog.SweepsDone,
		At:          at,
		Recovered:   recovered,
	}
	c.prog.SweepsDone++
	c.prog.Phase = phase
	c.prog.Granularity = g.Short()
	c.prog.Day = day
	c.prog.Observations += len(obs)
	for i := range obs {
		if obs[i].Failed {
			c.prog.Failed++
		}
		if obs[i].Shed {
			c.prog.Shed++
		}
	}
	c.prog.VirtualNow = info.At
	c.progMu.Unlock()
	if c.Sink != nil {
		c.Sink.ObserveSweep(info, obs)
	}
}
