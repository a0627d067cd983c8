package storage

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Checkpoint records a campaign's progress so a killed crawl can resume
// from the last completed term sweep instead of from zero — the fail-soft
// property the paper's 10-day, 44-machine campaigns needed against a live,
// flaky service.
//
// The cursor is deliberately simple: Sweeps counts completed lock-step
// term sweeps in the campaign's deterministic iteration order (phase →
// granularity → day → term). On resume the crawler replays that order,
// skipping the first Sweeps sweeps (while still advancing the virtual
// clock, so day alignment and the engine's day counter are preserved) and
// re-executing everything after. Observations counts the JSONL records the
// observation file held when the cursor was written; any trailing records
// beyond it — a sweep appended just before a crash, or a torn final line —
// are discarded on load and re-fetched, which is safe because per-request
// noise is keyed on deterministic trace IDs.
type Checkpoint struct {
	// Sweeps is the number of completed term sweeps.
	Sweeps int `json:"sweeps"`
	// Observations is how many observation records the partial JSONL file
	// held when this cursor was saved.
	Observations int `json:"observations"`
	// Phase, Granularity, Day, and Term name the last completed sweep for
	// a reader of the file. Resume checks the plan against the slots the
	// recovered observations carry, sweep by sweep.
	Phase       string `json:"phase,omitempty"`
	Granularity string `json:"granularity,omitempty"`
	Day         int    `json:"day,omitempty"`
	Term        string `json:"term,omitempty"`
	// UpdatedAt is the campaign-clock time the checkpoint was written —
	// virtual under a Manual clock, so resumed virtual-time runs produce
	// byte-identical checkpoint files.
	UpdatedAt time.Time `json:"updated_at"`
}

// SaveCheckpoint atomically writes the checkpoint: the JSON goes to a
// temporary file in the same directory, then renames over path, so a crash
// mid-write can never leave a torn cursor.
func SaveCheckpoint(path string, ck Checkpoint) error {
	data, err := json.MarshalIndent(ck, "", "  ")
	if err != nil {
		return fmt.Errorf("storage: encode checkpoint: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("storage: checkpoint temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("storage: write checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("storage: close checkpoint: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("storage: install checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads a checkpoint. A missing file is not an error: it
// returns ok=false, meaning "start from zero".
func LoadCheckpoint(path string) (ck Checkpoint, ok bool, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return Checkpoint{}, false, nil
	}
	if err != nil {
		return Checkpoint{}, false, fmt.Errorf("storage: read checkpoint %s: %w", path, err)
	}
	if err := json.Unmarshal(data, &ck); err != nil {
		return Checkpoint{}, false, fmt.Errorf("storage: parse checkpoint %s: %w", path, err)
	}
	if ck.Sweeps < 0 || ck.Observations < 0 {
		return Checkpoint{}, false, fmt.Errorf("storage: checkpoint %s has negative cursor", path)
	}
	return ck, true, nil
}

// LoadCheckpointObservations reads the partial observation file referenced
// by a checkpoint, keeping only the first ck.Observations records, and
// returns the byte length of the lines that hold them: cutting the file to
// size drops what the cursor does not acknowledge and nothing else. Records
// past the cursor (appended after the cursor was last saved) and a torn
// last line (a crash mid-append) are dropped — the sweeps they came from
// will simply be re-executed. Any other line must hold one record, as
// ReadJSONL requires. A missing file yields ck.Observations=0 semantics
// only when the cursor agrees.
func LoadCheckpointObservations(path string, ck Checkpoint) (obs []Observation, size int64, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) && ck.Observations == 0 {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("storage: open %s: %w", path, err)
	}
	defer f.Close()
	obs, size, err = readJSONL(f, true, ck.Observations)
	if err != nil {
		return nil, 0, err
	}
	if len(obs) < ck.Observations {
		return nil, 0, fmt.Errorf("storage: checkpoint expects %d observations but %s holds %d",
			ck.Observations, path, len(obs))
	}
	return obs[:ck.Observations], size, nil
}
