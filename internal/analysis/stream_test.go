package analysis

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"geoserp/internal/serp"
	"geoserp/internal/storage"
	"geoserp/internal/telemetry"
)

// sweepAt is the campaign-clock stamp for synthetic sweeps; the exact
// value is irrelevant to the aggregates (it only stamps drift events).
func sweepAt(i int) time.Time {
	return time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Hour)
}

// arrivalSweeps groups a campaign's observations into lock-step sweeps —
// one (granularity, term, day) each — in the order the campaign first
// reached them, which is how the crawler's sink sees it. It deliberately
// differs from the replay order of NewDataset, so comparing a stream fed
// this way against a Dataset checks live order against the replay.
func arrivalSweeps(data []storage.Observation) [][]storage.Observation {
	type key struct {
		g    string
		term string
		day  int
	}
	index := map[key]int{}
	var sweeps [][]storage.Observation
	for _, o := range data {
		k := key{o.Granularity, o.Term, o.Day}
		i, ok := index[k]
		if !ok {
			i = len(sweeps)
			index[k] = i
			sweeps = append(sweeps, nil)
		}
		sweeps[i] = append(sweeps[i], o)
	}
	return sweeps
}

// ingestAll feeds a campaign to the stream sweep by sweep, in arrival
// order.
func ingestAll(t *testing.T, s *Stream, data []storage.Observation) {
	t.Helper()
	for i, sweep := range arrivalSweeps(data) {
		if err := s.IngestSweep(sweepAt(i), sweep); err != nil {
			t.Fatalf("IngestSweep %d: %v", i, err)
		}
	}
}

// campaignFixture synthesizes a deterministic multi-granularity,
// multi-category, multi-day campaign with enough structure to exercise
// every figure: varying pages per (term, location, day), maps cards on
// local terms, and, when failEvery > 0, every failEvery-th observation
// failed. No randomness — page contents are index arithmetic.
func campaignFixture(failEvery int) []storage.Observation {
	pool := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}
	var out []storage.Observation
	cats := []struct {
		name  string
		terms []string
	}{
		{"local", []string{"Coffee", "Dentist", "Library", "Pizza"}},
		{"controversial", []string{"Abortion", "Guns", "Taxes", "Vaccines"}},
	}
	grans := []struct {
		name string
		locs []string
	}{
		{"county", []string{"c/1", "c/2", "c/3"}},
		{"state", []string{"s/1", "s/2", "s/3"}},
		{"national", []string{"n/1", "n/2", "n/3"}},
	}
	idx := 0
	for _, g := range grans {
		for day := 0; day < 2; day++ {
			for ci, cat := range cats {
				for ti, term := range cat.terms {
					for li, loc := range g.locs {
						// A stable page per (granularity, category, term,
						// location, day): rotate through the link pool so
						// nearby vantages overlap but differ.
						start := (ci*7 + ti*3 + li*2 + day) % len(pool)
						links := []string{pool[start], pool[(start+1)%len(pool)], pool[(start+2)%len(pool)]}
						var pg *serp.Page
						if cat.name == "local" && li%2 == 1 {
							pg = mapsPage([]string{"m-" + loc}, links...)
						} else {
							pg = page(links...)
						}
						for _, role := range []storage.Role{storage.Treatment, storage.Control} {
							o := obs(term, cat.name, g.name, loc, role, day, pg)
							idx++
							if failEvery > 0 && idx%failEvery == 0 {
								o.Page = nil
								o.Failed = true
								o.Err = "browser: fetch: synthetic fault"
							}
							out = append(out, o)
						}
					}
				}
			}
		}
	}
	return out
}

// exactFigures prints every exact value of the scorecard figures and the
// scorecard, leaving out the Welford display statistics (Jaccard, standard
// deviations), whose last bits depend on ingestion order.
func exactFigures(s *Stream) string {
	var b strings.Builder
	for _, c := range s.NoiseByGranularity() {
		fmt.Fprintf(&b, "noise %s/%s n=%d edit=%v\n", c.Granularity, c.Category, c.Edit.N, c.Edit.Mean)
	}
	for _, c := range s.PersonalizationByGranularity() {
		fmt.Fprintf(&b, "pers %s/%s n=%d edit=%v floor=%v\n", c.Granularity, c.Category, c.Edit.N, c.Edit.Mean, c.NoiseEdit)
	}
	for _, cat := range []string{"local", "controversial"} {
		for _, ts := range s.PersonalizationPerTerm(cat) {
			fmt.Fprintf(&b, "term %s %s %v\n", cat, ts.Term, ts.EditByGranularity)
		}
		fmt.Fprintf(&b, "consistency %s %+v\n", cat, s.ConsistencyOverTime(cat))
	}
	fmt.Fprintf(&b, "breakdown %+v\nscorecard %+v\n", s.PersonalizationByResultType(), s.Scorecard())
	return b.String()
}

// assertLiveMatchesReplay checks the one-implementation invariant: a
// stream fed in live arrival order gives exactly the figures and scorecard
// of the Dataset's replay of the same observations.
func assertLiveMatchesReplay(t *testing.T, d *Dataset, s *Stream) {
	t.Helper()
	if len(d.Scorecard()) == 0 {
		t.Fatal("scorecard is empty — the fixture exercised no claims")
	}
	if replay, live := exactFigures(d.stream), exactFigures(s); replay != live {
		t.Fatalf("live order differs from the replay:\nreplay:\n%s\nlive:\n%s", replay, live)
	}
}

func TestStreamMatchesBatchOnCampaignFixture(t *testing.T) {
	data := campaignFixture(0)
	d, err := NewDataset(data)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStream()
	ingestAll(t, s, data)
	assertLiveMatchesReplay(t, d, s)
	if s.Failed() != 0 || s.Shed() != 0 {
		t.Fatalf("failed/shed = %d/%d, want 0/0", s.Failed(), s.Shed())
	}
	if s.Observations() != len(data) {
		t.Fatalf("observations = %d, want %d", s.Observations(), len(data))
	}
}

func TestStreamMatchesBatchWithFailedObservations(t *testing.T) {
	for _, every := range []int{3, 5, 7, 11, 13} {
		data := campaignFixture(every)
		d, err := NewDataset(data)
		if err != nil {
			t.Fatal(err)
		}
		s := NewStream()
		ingestAll(t, s, data)
		if s.Failed() == 0 {
			t.Fatalf("every %d: fixture injected no failures — the skip-failed rule went untested", every)
		}
		if s.Failed() != d.Failed() {
			t.Fatalf("every %d: failed: live %d vs replay %d", every, s.Failed(), d.Failed())
		}
		assertLiveMatchesReplay(t, d, s)
	}
}

func TestStreamOrderInsensitiveWithinSweep(t *testing.T) {
	data := campaignFixture(0)
	a, b := NewStream(), NewStream()
	ingestAll(t, a, data)
	// Same sweeps, observations reversed within each — models
	// fetch-arrival nondeterminism inside a lock-step round.
	for i, sw := range arrivalSweeps(data) {
		rev := make([]storage.Observation, len(sw))
		for j := range sw {
			rev[len(sw)-1-j] = sw[j]
		}
		if err := b.IngestSweep(sweepAt(i), rev); err != nil {
			t.Fatal(err)
		}
	}
	aj, _ := json.Marshal(a.Snapshot())
	bj, _ := json.Marshal(b.Snapshot())
	if string(aj) != string(bj) {
		t.Fatalf("snapshot depends on in-sweep observation order:\n%s\nvs\n%s", aj, bj)
	}
}

func TestStreamSnapshotByteDeterminism(t *testing.T) {
	data := campaignFixture(13)
	a, b := NewStream(WithDriftThreshold(0.5)), NewStream(WithDriftThreshold(0.5))
	ingestAll(t, a, data)
	ingestAll(t, b, data)
	aj, err := json.Marshal(a.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Fatal("same ingestion produced different snapshot bytes")
	}
}

func TestStreamEmptySnapshotHasNonNilSlices(t *testing.T) {
	data, err := json.Marshal(NewStream().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"scorecard", "scopes", "drift"} {
		if _, ok := m[field].([]any); !ok {
			t.Fatalf("%s = %v, want JSON array (never null)", field, m[field])
		}
	}
}

func TestStreamIngestRejectsMalformedSweeps(t *testing.T) {
	s := NewStream()
	if err := s.IngestSweep(sweepAt(0), nil); err == nil {
		t.Fatal("empty sweep accepted")
	}
	mixed := []storage.Observation{
		obs("Coffee", "local", "county", "c/1", storage.Treatment, 0, page("a")),
		obs("Tea", "local", "county", "c/1", storage.Treatment, 0, page("a")),
	}
	if err := s.IngestSweep(sweepAt(0), mixed); err == nil {
		t.Fatal("mixed-term sweep accepted")
	}
	dup := []storage.Observation{
		obs("Coffee", "local", "county", "c/1", storage.Treatment, 0, page("a")),
		obs("Coffee", "local", "county", "c/1", storage.Treatment, 0, page("b")),
	}
	if err := s.IngestSweep(sweepAt(0), dup); err == nil {
		t.Fatal("duplicate treatment accepted")
	}
	bad := obs("Coffee", "local", "county", "c/1", storage.Treatment, 0, page("a"))
	bad.Page = nil
	if err := s.IngestSweep(sweepAt(0), []storage.Observation{bad}); err == nil {
		t.Fatal("invalid observation accepted")
	}
	if s.Sweeps() != 0 {
		t.Fatalf("rejected sweeps still counted: %d", s.Sweeps())
	}
}

func TestStreamDriftTracking(t *testing.T) {
	reg := telemetry.NewRegistry()
	spans := telemetry.NewSpanRecorder(64, fakeClock{})
	s := NewStream(WithDriftThreshold(1.0), WithStreamTelemetry(reg), WithStreamSpans(spans))

	sweep := func(i int, links ...string) []storage.Observation {
		p1 := page(links...)
		p2 := page("z1", "z2", "z3") // the far vantage never changes
		return []storage.Observation{
			obs("Coffee", "local", "county", "c/1", storage.Treatment, i, p1),
			obs("Coffee", "local", "county", "c/1", storage.Control, i, p1),
			obs("Coffee", "local", "county", "c/2", storage.Treatment, i, p2),
			obs("Coffee", "local", "county", "c/2", storage.Control, i, p2),
		}
	}
	// Sweep 0 anchors the scope (identical treatments: mean 0, no event).
	if err := s.IngestSweep(sweepAt(0), sweep(0, "z1", "z2", "z3")); err != nil {
		t.Fatal(err)
	}
	if len(s.Drift()) != 0 {
		t.Fatalf("first sweep produced a drift event: %+v", s.Drift())
	}
	// Sweep 1 swings the running mean far past the threshold.
	if err := s.IngestSweep(sweepAt(1), sweep(1, "q1", "q2", "q3")); err != nil {
		t.Fatal(err)
	}
	events := s.Drift()
	if len(events) != 1 {
		t.Fatalf("drift events = %d, want 1: %+v", len(events), events)
	}
	ev := events[0]
	if ev.Granularity != "county" || ev.Category != "local" || ev.Sweep != 1 {
		t.Fatalf("event = %+v", ev)
	}
	if !ev.At.Equal(sweepAt(1)) {
		t.Fatalf("event stamped %v, want campaign-clock %v", ev.At, sweepAt(1))
	}
	if ev.To <= ev.From {
		t.Fatalf("event did not move up: %+v", ev)
	}
	if got := reg.CounterVec("stream_drift_events_total", "", "scope").Values()["county/local"]; got != 1 {
		t.Fatalf("drift metric = %d, want 1", got)
	}
	found := false
	for _, v := range telemetry.TracezSnapshot(spans, 0) {
		for _, sp := range v.Spans {
			if sp.Name == "stream.drift" {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no stream.drift span recorded")
	}
}

// fakeClock satisfies the span recorder's clock with a fixed instant;
// drift spans only need a stamp, not progression.
type fakeClock struct{}

func (fakeClock) Now() time.Time      { return sweepAt(0) }
func (fakeClock) Sleep(time.Duration) {}
func (fakeClock) After(time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	ch <- sweepAt(0)
	return ch
}

func TestStreamIncrementalScorecardIsWellFormed(t *testing.T) {
	// Mid-campaign snapshots must be valid (fewer claims, never garbage):
	// ingest the fixture sweep by sweep and scorecard after each.
	data := campaignFixture(0)
	s := NewStream()
	prevClaims := 0
	for i, sweep := range arrivalSweeps(data) {
		if err := s.IngestSweep(sweepAt(i), sweep); err != nil {
			t.Fatal(err)
		}
		checks := s.Scorecard()
		for _, c := range checks {
			if c.Claim == "" || c.Detail == "" {
				t.Fatalf("sweep %d: malformed check %+v", i, c)
			}
		}
		if len(checks) < prevClaims {
			// Claims only accumulate as scopes fill in; they never vanish.
			t.Fatalf("sweep %d: claims shrank from %d to %d", i, prevClaims, len(checks))
		}
		prevClaims = len(checks)
	}
	if prevClaims == 0 {
		t.Fatal("campaign fixture never produced a scorecard claim")
	}
}

func TestStreamMetricsCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := NewStream(WithStreamTelemetry(reg))
	data := campaignFixture(13)
	ingestAll(t, s, data)
	if got := reg.Counter("stream_sweeps_ingested_total", "").Value(); got != uint64(s.Sweeps()) {
		t.Fatalf("sweep counter = %d, want %d", got, s.Sweeps())
	}
	if got := reg.Counter("stream_observations_ingested_total", "").Value(); got != uint64(s.Observations()) {
		t.Fatalf("obs counter = %d, want %d", got, s.Observations())
	}
	if got := reg.Counter("stream_failed_observations_total", "").Value(); got != uint64(s.Failed()) {
		t.Fatalf("failed counter = %d, want %d", got, s.Failed())
	}
	if got := reg.Counter("stream_pairs_compared_total", "").Value(); got != s.PairsCompared() {
		t.Fatalf("pairs counter = %d, want %d", got, s.PairsCompared())
	}
}

// TestStreamStateBoundedByGrid pins the stated memory bound: state is keyed
// by the grid (here 3 granularities × 2 categories × 2 days × 3 vantages, and
// as many pairs), so ingesting the same sweeps again adds no state, and the
// comparer's intern table never holds more than one sweep's URLs.
func TestStreamStateBoundedByGrid(t *testing.T) {
	data := campaignFixture(0)
	s := NewStream()
	ingestAll(t, s, data)
	if len(s.consNoise) != 36 || len(s.consPair) != 36 {
		t.Fatalf("Figure 8 sums: %d per-location, %d per-pair, want 36 each", len(s.consNoise), len(s.consPair))
	}
	size := func() int {
		return len(s.noise) + len(s.pers) + len(s.persTerm) + len(s.breakdown) + len(s.consNoise) + len(s.consPair)
	}
	before := size()
	ingestAll(t, s, data)
	if after := size(); after != before {
		t.Fatalf("state grew from %d to %d entries on a second pass over the same grid", before, after)
	}

	// The comparer's intern table holds one sweep's URLs: give every sweep
	// URLs of its own, and after each, the table holds exactly those.
	for i, sweep := range arrivalSweeps(campaignFixture(5)) {
		urls := map[string]bool{}
		for j := range sweep {
			if sweep[j].Failed {
				continue
			}
			sweep[j].Page = withURLPrefix(sweep[j].Page, fmt.Sprintf("sweep%d/", i))
			for _, u := range sweep[j].Page.Links() {
				urls[u] = true
			}
		}
		if err := s.IngestSweep(sweepAt(i), sweep); err != nil {
			t.Fatal(err)
		}
		if got := s.cmp.Interned(); got != len(urls) {
			t.Fatalf("sweep %d: intern table holds %d URLs, want the sweep's %d", i, got, len(urls))
		}
	}
}

// withURLPrefix returns a copy of p with prefix prepended to every URL.
func withURLPrefix(p *serp.Page, prefix string) *serp.Page {
	cp := *p
	cp.Cards = make([]serp.Card, len(p.Cards))
	for i, c := range p.Cards {
		cp.Cards[i] = serp.Card{Type: c.Type}
		for _, r := range c.Results {
			cp.Cards[i].Results = append(cp.Cards[i].Results, serp.Result{URL: prefix + r.URL, Title: r.Title})
		}
	}
	return &cp
}

// TestFigure8BaselineRule pins Figure 8's one rule: the baseline is the
// first location, in sorted order, with any successful observation, and
// its sums do not depend on the order sweeps arrive in. A stream fed
// forward, one fed in reverse, and the Dataset's replay must agree exactly.
func TestFigure8BaselineRule(t *testing.T) {
	mk := func(loc string, role storage.Role, day int, fail bool, links ...string) storage.Observation {
		o := obs("Coffee", "local", "county", loc, role, day, page(links...))
		if fail {
			o.Page = nil
			o.Failed = true
			o.Err = "browser: fetch: vantage down"
		}
		return o
	}
	campaign := func(deadOn func(day int) bool) []storage.Observation {
		var data []storage.Observation
		for day := 0; day < 2; day++ {
			data = append(data,
				mk("c/1", storage.Treatment, day, deadOn(day), "a", "b"),
				mk("c/1", storage.Control, day, deadOn(day), "a", "b"),
				mk("c/2", storage.Treatment, day, false, "a", "b"),
				mk("c/2", storage.Control, day, false, "a", "x"),
				mk("c/3", storage.Treatment, day, false, "c", "d"),
				mk("c/3", storage.Control, day, false, "c", "d"),
			)
		}
		return data
	}
	cases := []struct {
		name     string
		dead     func(day int) bool
		baseline string
		noise    []float64
		lines    map[string][]float64
	}{
		{
			// c/1 never succeeds: c/2 is the baseline, with its own noise floor.
			name:     "baseline dead all campaign",
			dead:     func(int) bool { return true },
			baseline: "c/2",
			noise:    []float64{1, 1},
			lines:    map[string][]float64{"c/3": {2, 2}},
		},
		{
			// c/1 succeeds on day 1, so it stays the baseline; day 0 is empty.
			name:     "baseline dead on day 0",
			dead:     func(day int) bool { return day == 0 },
			baseline: "c/1",
			noise:    []float64{0, 0},
			lines:    map[string][]float64{"c/2": {0, 0}, "c/3": {0, 2}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := campaign(tc.dead)
			d, err := NewDataset(data)
			if err != nil {
				t.Fatal(err)
			}
			want := d.ConsistencyOverTime("local")
			if len(want) != 1 {
				t.Fatalf("series = %+v", want)
			}
			if got := want[0]; got.Baseline != tc.baseline ||
				!reflect.DeepEqual(got.NoiseFloor, tc.noise) || !reflect.DeepEqual(got.PerLocation, tc.lines) {
				t.Fatalf("series = %+v, want baseline %s noise %v lines %v", got, tc.baseline, tc.noise, tc.lines)
			}
			sweeps := arrivalSweeps(data)
			forward, reversed := NewStream(), NewStream()
			for i := range sweeps {
				if err := forward.IngestSweep(sweepAt(i), sweeps[i]); err != nil {
					t.Fatal(err)
				}
				if err := reversed.IngestSweep(sweepAt(i), sweeps[len(sweeps)-1-i]); err != nil {
					t.Fatal(err)
				}
			}
			assertLiveMatchesReplay(t, d, forward)
			assertLiveMatchesReplay(t, d, reversed)
		})
	}
}
