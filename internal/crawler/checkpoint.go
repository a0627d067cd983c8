package crawler

import (
	"fmt"

	"geoserp/internal/simclock"
	"geoserp/internal/storage"
)

// checkpointState tracks campaign progress persistence. The cursor is a
// count of completed term sweeps in the campaign's deterministic iteration
// order (phase → granularity → day → term); on resume the crawler replays
// that order, fast-forwarding over the first ck.Sweeps sweeps and serving
// their observations from the partial observation file.
type checkpointState struct {
	path    string
	obsPath string
	// clk stamps UpdatedAt from the campaign clock, so checkpoints written
	// under virtual time are byte-identical across a run and its resumed
	// re-run (the resume byte-exactness test covers the file itself).
	clk simclock.Clock
	ck  storage.Checkpoint
	// seen counts sweep slots passed this run (skipped or executed).
	seen int
	// recovered holds the observations read back from the partial file,
	// by sweep slot; each skipped slot takes its own out (recover).
	recovered map[sweepSlot][]storage.Observation
}

// sweepSlot identifies one term sweep in the campaign's deterministic
// iteration order.
type sweepSlot struct {
	phase       string
	granularity string
	day         int
	term        string
}

// recover serves one skipped sweep slot: it takes the slot's recovered
// observations out of the index. Once the last slot the checkpoint covers
// is passed, and so before this run fetches anything, it refuses a
// checkpoint written for another plan: one whose last sweep is not this
// slot, or whose recovered sweeps some slot of this plan did not claim.
func (cs *checkpointState) recover(slot sweepSlot) ([]storage.Observation, error) {
	obs := cs.recovered[slot]
	delete(cs.recovered, slot)
	cs.seen++
	if cs.seen < cs.ck.Sweeps {
		return obs, nil
	}
	if last := (sweepSlot{cs.ck.Phase, cs.ck.Granularity, cs.ck.Day, cs.ck.Term}); slot != last {
		return nil, fmt.Errorf("crawler: resume: checkpoint's sweep %d is %s, this plan's is %s",
			cs.ck.Sweeps, last, slot)
	}
	if n := len(cs.recovered); n > 0 {
		return nil, fmt.Errorf("crawler: resume: %d recovered sweeps are not in this plan's first %d", n, cs.ck.Sweeps)
	}
	return obs, nil
}

// String names the slot in resume errors.
func (s sweepSlot) String() string {
	return fmt.Sprintf("%s/%s day %d %q", s.phase, s.granularity, s.day, s.term)
}

// skipping reports whether the next sweep slot is already covered by the
// loaded checkpoint.
func (cs *checkpointState) skipping() bool { return cs.seen < cs.ck.Sweeps }

// record persists one completed sweep: its observations are appended to the
// observation file first, then the cursor is atomically advanced. A crash
// between the two leaves extra observation records past the cursor, which
// resume discards and re-fetches — never the reverse, a cursor claiming
// records that were not written.
func (cs *checkpointState) record(phase, gran string, day int, term string, obs []storage.Observation) error {
	if err := storage.AppendJSONL(cs.obsPath, obs); err != nil {
		return fmt.Errorf("crawler: checkpoint observations: %w", err)
	}
	cs.seen++
	cs.ck.Sweeps = cs.seen
	cs.ck.Observations += len(obs)
	cs.ck.Phase = phase
	cs.ck.Granularity = gran
	cs.ck.Day = day
	cs.ck.Term = term
	cs.ck.UpdatedAt = cs.clk.Now().UTC()
	if err := storage.SaveCheckpoint(cs.path, cs.ck); err != nil {
		return fmt.Errorf("crawler: save checkpoint: %w", err)
	}
	return nil
}

// EnableCheckpoint makes campaign runs persist progress: after every
// completed term sweep the sweep's observations are appended to obsPath and
// the cursor at path is atomically updated. A killed campaign can then be
// restarted with Resume and loses at most the sweep that was in flight.
func (c *Crawler) EnableCheckpoint(path, obsPath string) {
	c.ckpt = &checkpointState{
		path:      path,
		obsPath:   obsPath,
		clk:       c.clock,
		recovered: make(map[sweepSlot][]storage.Observation),
	}
}

// Resume enables checkpointing and, when a checkpoint exists at path, loads
// it: completed sweeps will be fast-forwarded and their observations
// recovered from obsPath instead of re-fetched. A missing checkpoint means
// a fresh start. The observation file is truncated to exactly the records
// the cursor acknowledges, dropping any sweep that was torn by the crash.
// The campaign run next must be the plan the checkpoint was written for:
// RunCampaign refuses a plan whose first ck.Sweeps slots end elsewhere or
// leave recovered sweeps unclaimed, and one with fewer slots.
func (c *Crawler) Resume(path, obsPath string) error {
	ck, ok, err := storage.LoadCheckpoint(path)
	if err != nil {
		return fmt.Errorf("crawler: resume: %w", err)
	}
	c.EnableCheckpoint(path, obsPath)
	if !ok {
		return nil
	}
	obs, err := storage.LoadCheckpointObservations(obsPath, ck)
	if err != nil {
		return fmt.Errorf("crawler: resume: %w", err)
	}
	// Rewrite the file to the acknowledged prefix so subsequent appends
	// continue from a state the cursor agrees with.
	if err := storage.SaveJSONL(obsPath, obs); err != nil {
		return fmt.Errorf("crawler: resume: truncate observations: %w", err)
	}
	c.ckpt.ck = ck
	for _, o := range obs {
		slot := sweepSlot{o.Phase, o.Granularity, o.Day, o.Term}
		c.ckpt.recovered[slot] = append(c.ckpt.recovered[slot], o)
	}
	return nil
}
