// The page golden pins the engine's output bytes, not just their
// self-consistency: monolith ≡ cluster and same-seed determinism compare
// the code with itself, so a ranking change common to both passes them.
//
// It is restricted to amd64 below GOAMD64=v3 (CI's platform) because the
// digests are of float-derived rankings: on arm64, ppc64le, s390x and
// amd64.v3 the Go compiler may fuse x*y+z into one FMA instruction, which
// rounds once instead of twice, and a 1-ULP score difference can reorder
// near-tied results.

//go:build amd64 && !amd64.v3

package engine

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"geoserp/internal/geo"
	"geoserp/internal/queries"
	"geoserp/internal/serp"
	"geoserp/internal/simclock"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/page_digests.txt from the current engine")

const pageGoldenPath = "testdata/page_digests.txt"

// pageDigests renders every (study term, study location) page at the
// default seed — fixed trace IDs, no session, a manual clock that never
// moves — and returns one "term<TAB>sha256" line per term, hashing that
// term's pages in study-location order.
func pageDigests(t *testing.T) []string {
	t.Helper()
	cfg := DefaultConfig()
	cfg.RateBurst = 1 << 30
	cfg.RatePerMinute = 1 << 30
	e := New(cfg, simclock.NewManual(time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)))
	locs := geo.StudyLocations()
	var out []string
	for ti, q := range queries.StudyCorpus().All() {
		h := sha256.New()
		for li, loc := range locs {
			pt := loc.Point
			resp, err := e.Search(Request{
				Query:    q.Term,
				GPS:      &pt,
				ClientIP: "10.0.0.1",
				TraceID:  fmt.Sprintf("golden-%03d-%02d", ti, li),
			})
			if err != nil {
				t.Fatalf("%q at %s: %v", q.Term, loc.ID, err)
			}
			h.Write([]byte(serp.RenderHTML(resp.Page)))
		}
		out = append(out, fmt.Sprintf("%s\t%x", q.Term, h.Sum(nil)))
	}
	return out
}

// TestPagesMatchGolden compares every study page against the committed
// digests. Regenerate them with -update-golden only for an intended
// ranking change; a performance change must leave every page as it was.
func TestPagesMatchGolden(t *testing.T) {
	got := pageDigests(t)
	if *updateGolden {
		if err := os.WriteFile(pageGoldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(pageGoldenPath)
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
		t.Fatalf("%d terms rendered, golden has %d", len(got), len(want))
	}
	diff := 0
	for i := range got {
		if got[i] != want[i] {
			diff++
			if diff <= 5 {
				t.Errorf("pages differ from golden:\n got  %s\n want %s", got[i], want[i])
			}
		}
	}
	if diff > 5 {
		t.Errorf("... %d of %d terms differ in all", diff, len(got))
	}
}
