package analysis

import "fmt"

// Check is one verdict of the fidelity scorecard: a qualitative claim from
// the paper evaluated against a dataset.
type Check struct {
	// Claim names the paper finding being checked.
	Claim string `json:"claim"`
	// Pass reports whether the dataset exhibits it.
	Pass bool `json:"pass"`
	// Detail carries the measured values behind the verdict.
	Detail string `json:"detail"`
}

// Scorecard evaluates the paper's headline findings against the dataset
// and returns one Check per claim. It is the programmatic counterpart of
// EXPERIMENTS.md: run any crawl — full, scaled, reseeded, or against a
// live engine — through it to see which of the paper's findings hold.
func (d *Dataset) Scorecard() []Check { return d.stream.Scorecard() }

// Scorecard evaluates the paper's headline findings against the running
// aggregates, mid- or post-campaign. Every claim reads only edit-distance
// means, which the stream keeps as exact integer sums, so a live campaign
// and a replay of its observations give the same verdicts and details to
// the byte.
func (s *Stream) Scorecard() []Check {
	var out []Check
	add := func(claim string, pass bool, format string, args ...any) {
		out = append(out, Check{Claim: claim, Pass: pass, Detail: fmt.Sprintf(format, args...)})
	}

	noise := map[[2]string]NoiseCell{}
	for _, c := range s.NoiseByGranularity() {
		noise[[2]string{c.Granularity, c.Category}] = c
	}
	pers := map[[2]string]PersonalizationCell{}
	for _, c := range s.PersonalizationByGranularity() {
		pers[[2]string{c.Granularity, c.Category}] = c
	}
	has := func(g, c string) bool {
		_, ok := noise[[2]string{g, c}]
		return ok
	}

	// Claim 1 (Fig 2): local queries are far noisier than controversial
	// and politician queries.
	if has("county", "local") && has("county", "controversial") && has("county", "politician") {
		l := noise[[2]string{"county", "local"}].Edit.Mean
		c := noise[[2]string{"county", "controversial"}].Edit.Mean
		p := noise[[2]string{"county", "politician"}].Edit.Mean
		add("local queries are the noisiest; politicians the quietest (Fig 2)",
			l > c && c >= p,
			"edit: local=%.2f controversial=%.2f politicians=%.2f", l, c, p)
	}

	// Claim 2 (Fig 2): noise is independent of granularity.
	if has("county", "local") && has("state", "local") && has("national", "local") {
		a := noise[[2]string{"county", "local"}].Edit.Mean
		b := noise[[2]string{"state", "local"}].Edit.Mean
		c := noise[[2]string{"national", "local"}].Edit.Mean
		lo, hi := minMax3(a, b, c)
		add("noise is uniform across granularities (Fig 2)",
			lo > 0 && hi/lo < 1.5,
			"local noise county/state/national = %.2f/%.2f/%.2f", a, b, c)
	}

	// Claim 3 (Fig 5): personalization grows with distance for local
	// queries.
	if _, ok := pers[[2]string{"county", "local"}]; ok {
		a := pers[[2]string{"county", "local"}].Edit.Mean
		b := pers[[2]string{"state", "local"}].Edit.Mean
		c := pers[[2]string{"national", "local"}].Edit.Mean
		add("local personalization grows with distance (Fig 5)",
			a < b && b <= c*1.1,
			"edit county/state/national = %.2f/%.2f/%.2f", a, b, c)
		n := pers[[2]string{"county", "local"}].NoiseEdit
		add("local personalization exceeds the noise floor (Fig 5)",
			a > n,
			"county personalization %.2f vs noise %.2f", a, n)
	}

	// Claim 4 (Fig 5): controversial and politician queries stay near
	// their noise floors at county scale.
	for _, cat := range []string{"controversial", "politician"} {
		if c, ok := pers[[2]string{"county", cat}]; ok {
			add(fmt.Sprintf("%s queries near the noise floor at county scale (Fig 5)", cat),
				c.Edit.Mean <= c.NoiseEdit+1.0,
				"personalization %.2f vs noise %.2f", c.Edit.Mean, c.NoiseEdit)
		}
	}

	// Claim 5 (Figs 3/6): brand local terms are quieter and less
	// personalized than generic ones — approximated here by comparing the
	// extremes of the sorted per-term series.
	if terms := s.PersonalizationPerTerm("local"); len(terms) >= 4 {
		lo := terms[0].EditByGranularity["national"]
		hi := terms[len(terms)-1].EditByGranularity["national"]
		add("per-term local personalization varies widely (Fig 6)",
			hi > lo*1.3,
			"national edit range %.2f..%.2f", lo, hi)
	}

	// Claim 6 (Fig 7): Maps explain only a minority of local
	// personalization; most changes hit typical results.
	for _, c := range s.PersonalizationByResultType() {
		if c.Category == "local" && c.Granularity == "state" {
			add("Maps are a minority share of local personalization (Fig 7, paper: 18-27%)",
				c.MapsShare() > 0.05 && c.MapsShare() < 0.5 && c.Other > c.Maps,
				"maps share %.2f, other %.2f vs maps %.2f", c.MapsShare(), c.Other, c.Maps)
		}
		if c.Category == "controversial" && c.Granularity == "national" {
			add("News drive a small share of controversial personalization (Fig 7, paper: 6-18%)",
				c.NewsShare() > 0.02 && c.NewsShare() < 0.5 && c.Maps == 0,
				"news share %.2f, maps %.2f", c.NewsShare(), c.Maps)
		}
	}

	// Claim 7 (Fig 8): personalization is stable over time.
	for _, series := range s.ConsistencyOverTime("local") {
		if len(series.Days) < 2 {
			continue
		}
		stable := true
		var worstSpread float64
		for _, line := range series.PerLocation {
			lo, hi := line[0], line[0]
			for _, v := range line {
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			if spread := hi - lo; spread > worstSpread {
				worstSpread = spread
			}
			if hi > lo*2+1 {
				stable = false
			}
		}
		add(fmt.Sprintf("personalization stable across days at %s scale (Fig 8)", series.Granularity),
			stable,
			"worst per-location day spread %.2f", worstSpread)
	}

	return out
}

func minMax3(a, b, c float64) (lo, hi float64) {
	lo, hi = a, a
	for _, v := range []float64{b, c} {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}
