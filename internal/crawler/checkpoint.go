package crawler

import (
	"errors"
	"fmt"
	"os"

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
	// recovered queues the sweeps read back from the partial file, which
	// holds them in slot order; each skipped slot takes the next (recover).
	recovered [][]storage.Observation
}

// ErrResumeRefused is wrapped by every error RunCampaign returns for a
// checkpoint written for another plan: running that plan again cannot get
// past it, unlike a campaign cut short by a fault.
var ErrResumeRefused = errors.New("crawler: resume refused")

// sweepSlot identifies one term sweep in the campaign's deterministic
// iteration order.
type sweepSlot struct {
	phase       string
	granularity string
	day         int
	term        string
}

// slotOf returns the sweep slot an observation was fetched in.
func slotOf(o storage.Observation) sweepSlot {
	return sweepSlot{o.Phase, o.Granularity, o.Day, o.Term}
}

// recover serves one skipped sweep slot, which must be the next recovered
// sweep: a plan whose first ck.Sweeps slots are not the checkpoint's, in
// its order, is refused at the first slot that differs, before this run
// fetches anything.
func (cs *checkpointState) recover(slot sweepSlot) ([]storage.Observation, error) {
	obs := cs.recovered[0]
	cs.seen++
	if next := slotOf(obs[0]); slot != next {
		return nil, fmt.Errorf("%w: checkpoint's sweep %d is %s, this plan's is %s",
			ErrResumeRefused, cs.seen, next, slot)
	}
	cs.recovered = cs.recovered[1:]
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
	c.ckpt = &checkpointState{path: path, obsPath: obsPath, clk: c.clock}
}

// Resume enables checkpointing and, when a checkpoint exists at path, loads
// it: completed sweeps will be fast-forwarded and their observations
// recovered from obsPath instead of re-fetched. A missing checkpoint means
// a fresh start. The observation file is truncated to exactly the records
// the cursor acknowledges, dropping any sweep that was torn by the crash.
// The campaign run next must be the plan the checkpoint was written for:
// RunCampaign refuses, with ErrResumeRefused, a plan whose first ck.Sweeps
// slots are not the recovered sweeps in their order, and one with fewer
// slots.
func (c *Crawler) Resume(path, obsPath string) error {
	ck, ok, err := storage.LoadCheckpoint(path)
	if err != nil {
		return fmt.Errorf("crawler: resume: %w", err)
	}
	c.EnableCheckpoint(path, obsPath)
	if !ok {
		return nil
	}
	obs, size, err := storage.LoadCheckpointObservations(obsPath, ck)
	if err != nil {
		return fmt.Errorf("crawler: resume: %w", err)
	}
	// Cut the file after the acknowledged records so subsequent appends
	// continue from a state the cursor agrees with. No acknowledged byte is
	// rewritten, so a crash here loses nothing the cursor counts. A missing
	// file is what a cursor of no observations may have.
	if err := os.Truncate(obsPath, size); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("crawler: resume: truncate observations: %w", err)
	}
	c.ckpt.ck = ck
	// Every sweep records at least one observation per vantage, and
	// consecutive sweeps differ in slot, so a change of slot starts the
	// next sweep.
	for i, start := 0, 0; i < len(obs); i++ {
		if i+1 == len(obs) || slotOf(obs[i+1]) != slotOf(obs[i]) {
			c.ckpt.recovered = append(c.ckpt.recovered, obs[start:i+1])
			start = i + 1
		}
	}
	if n := len(c.ckpt.recovered); n != ck.Sweeps {
		return fmt.Errorf("crawler: resume: checkpoint counts %d sweeps, %s holds %d", ck.Sweeps, obsPath, n)
	}
	return nil
}
