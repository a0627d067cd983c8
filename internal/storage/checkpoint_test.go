package storage

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"geoserp/internal/serp"
)

func ckObs(term string, role Role) Observation {
	return Observation{
		Phase:       "p",
		Term:        term,
		Category:    "local",
		Granularity: "county",
		LocationID:  "loc-1",
		Role:        role,
		FetchedAt:   time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC),
		Page: &serp.Page{
			Query:    term,
			Location: "1.000000,2.000000",
			Cards: []serp.Card{{
				Type:    serp.Organic,
				Results: []serp.Result{{URL: "https://a/", Title: "A"}},
			}},
		},
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.ckpt")
	if _, ok, err := LoadCheckpoint(path); err != nil || ok {
		t.Fatalf("missing checkpoint: ok=%v err=%v, want absent", ok, err)
	}
	want := Checkpoint{Sweeps: 7, Observations: 30, Phase: "p", Granularity: "county", Day: 1, Term: "Coffee"}
	if err := SaveCheckpoint(path, want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := LoadCheckpoint(path)
	if err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	got.UpdatedAt = want.UpdatedAt
	if got != want {
		t.Fatalf("round trip: got %+v want %+v", got, want)
	}
}

func TestCheckpointSaveIsAtomicOverwrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.ckpt")
	for i := 1; i <= 3; i++ {
		if err := SaveCheckpoint(path, Checkpoint{Sweeps: i}); err != nil {
			t.Fatal(err)
		}
	}
	ck, ok, err := LoadCheckpoint(path)
	if err != nil || !ok || ck.Sweeps != 3 {
		t.Fatalf("ck=%+v ok=%v err=%v", ck, ok, err)
	}
	// No temp droppings left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want just the checkpoint", len(entries))
	}
}

func TestCheckpointRejectsCorruptCursor(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.ckpt")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadCheckpoint(path); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
	if err := os.WriteFile(path, []byte(`{"sweeps":-1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadCheckpoint(path); err == nil {
		t.Fatal("negative cursor accepted")
	}
}

func TestLoadCheckpointObservationsDropsPastCursor(t *testing.T) {
	dir := t.TempDir()
	obsPath := filepath.Join(dir, "obs.jsonl")
	obs := []Observation{ckObs("A", Treatment), ckObs("A", Control), ckObs("B", Treatment), ckObs("B", Control)}
	if err := AppendJSONL(obsPath, obs[:2]); err != nil {
		t.Fatal(err)
	}
	if err := AppendJSONL(obsPath, obs[2:]); err != nil {
		t.Fatal(err)
	}
	// Cursor only acknowledges the first sweep: the second sweep's records
	// (appended before the crash) must be dropped, and size must end at the
	// first sweep's last byte.
	got, size, err := LoadCheckpointObservations(obsPath, Checkpoint{Sweeps: 1, Observations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Term != "A" || got[1].Term != "A" {
		t.Fatalf("got %d observations, want the 2 sweep-A records", len(got))
	}
	var first strings.Builder
	if err := WriteJSONL(&first, obs[:2]); err != nil {
		t.Fatal(err)
	}
	if size != int64(first.Len()) {
		t.Fatalf("size = %d, want the first sweep's %d bytes", size, first.Len())
	}
}

func TestLoadCheckpointObservationsToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	obsPath := filepath.Join(dir, "obs.jsonl")
	if err := AppendJSONL(obsPath, []Observation{ckObs("A", Treatment), ckObs("A", Control)}); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a torn, unparsable trailing line.
	f, err := os.OpenFile(obsPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"phase":"p","term":"B","cat`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, _, err := LoadCheckpointObservations(obsPath, Checkpoint{Sweeps: 1, Observations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d observations, want 2 whole records", len(got))
	}
	// A cursor pointing past what the file holds is an error, not silent
	// truncation of the campaign.
	if _, _, err := LoadCheckpointObservations(obsPath, Checkpoint{Sweeps: 2, Observations: 4}); err == nil {
		t.Fatal("cursor past file contents accepted")
	}
}

// TestCheckpointObservationsOneRecordPerLine: the partial file is read by
// ReadJSONL's grammar, one record per line. The only line it forgives is a
// torn last one; a damaged line anywhere else, two records on one line
// included, fails the load with LoadJSONL's error, whatever the cursor.
func TestCheckpointObservationsOneRecordPerLine(t *testing.T) {
	var whole strings.Builder
	if err := WriteJSONL(&whole, []Observation{ckObs("A", Treatment), ckObs("A", Control), ckObs("B", Treatment)}); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(whole.String(), "\n")
	const torn = `{"phase":"p","term":"B","cat`
	for _, tc := range []struct {
		name, doc string
	}{
		{"two records on the first line", strings.TrimSuffix(lines[0], "\n") + lines[1] + lines[2] + torn},
		{"torn line before the last", lines[0] + torn + "\n" + lines[1] + lines[2]},
		{"torn line followed by a blank one", lines[0] + lines[1] + torn + "\n\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "obs.jsonl")
			if err := os.WriteFile(path, []byte(tc.doc), 0o644); err != nil {
				t.Fatal(err)
			}
			_, want := LoadJSONL(path)
			if want == nil {
				t.Fatal("LoadJSONL accepted a damaged file")
			}
			got, _, err := LoadCheckpointObservations(path, Checkpoint{Sweeps: 1, Observations: 1})
			if err == nil || err.Error() != want.Error() {
				t.Fatalf("LoadCheckpointObservations = %d observations, err %v; want LoadJSONL's error %q", len(got), err, want)
			}
		})
	}
}

func TestAppendJSONLRejectsGzip(t *testing.T) {
	if err := AppendJSONL(filepath.Join(t.TempDir(), "x.jsonl.gz"), nil); err == nil {
		t.Fatal("gzip append accepted")
	}
}

func TestFailedObservationValidate(t *testing.T) {
	o := ckObs("A", Treatment)
	o.Page = nil
	o.Failed = true
	o.Err = "browser: fetch: injected"
	if err := o.Validate(); err != nil {
		t.Fatalf("failed observation rejected: %v", err)
	}
	o.Err = ""
	if err := o.Validate(); err == nil {
		t.Fatal("failed observation without error accepted")
	}
	o.Err = "x"
	o.Page = ckObs("A", Treatment).Page
	if err := o.Validate(); err == nil {
		t.Fatal("failed observation with a page accepted")
	}
}
