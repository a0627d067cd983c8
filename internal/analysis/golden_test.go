// The figure golden pins the bytes of the paper's Figures 2–8 and the
// scorecard as the report layer prints them, not just their
// self-consistency: the repro tests compare the code with itself, so a
// change common to every path passes them.
//
// It is restricted to amd64 below GOAMD64=v3 for the same reason as the
// engine's page golden: the campaign's pages come from float-derived
// rankings, and on arm64, ppc64le, s390x and amd64.v3 the compiler may
// fuse x*y+z into one FMA instruction, so a 1-ULP score difference can
// reorder near-tied results.

//go:build amd64 && !amd64.v3

package analysis_test

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"geoserp/internal/analysis"
	"geoserp/internal/report"
	"geoserp/internal/storage"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/figure_digests.txt from the current analysis")

const figureGoldenPath = "testdata/figure_digests.txt"

// figureDigests analyzes obs and returns one "variant<TAB>artifact<TAB>
// sha256" line per figure of the report plan (its text plus its CSV
// table) and one for the scorecard text.
func figureDigests(t *testing.T, variant string, obs []storage.Observation) []string {
	t.Helper()
	d, err := analysis.NewDataset(obs)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	report.Study(d, func(name string, figure int, _ bool) bool {
		return figure >= 2 || name == "scorecard"
	}, func(a report.Artifact) {
		h := sha256.New()
		h.Write([]byte(a.Text))
		if a.CSV != nil {
			if err := a.CSV.WriteCSV(h); err != nil {
				t.Fatal(err)
			}
		}
		out = append(out, fmt.Sprintf("%s\t%s\t%x", variant, a.Name, h.Sum(nil)))
	})
	return out
}

// TestFiguresMatchGolden compares the figures of the integration campaign,
// whole and with every 7th observation failed, against the committed
// digests. Regenerate them with -update-golden only for an intended change
// to what a figure reports; a refactor must leave every byte as it was.
func TestFiguresMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("integration campaign is slow")
	}
	obs := campaign(t)
	got := append(figureDigests(t, "all", obs), figureDigests(t, "failed7", everySeventhFailed(obs))...)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(figureGoldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(figureGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d digests computed, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("figure bytes differ from golden:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
