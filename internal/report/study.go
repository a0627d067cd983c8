package report

import (
	"fmt"

	"geoserp/internal/analysis"
	"geoserp/internal/geo"
	"geoserp/internal/queries"
	"geoserp/internal/storage"
)

// Artifact is one table or figure of the study report, rendered every
// way a report shows it.
type Artifact struct {
	// Name identifies the artifact; its CSV file is Name + ".csv".
	Name string
	// Heading titles its section of the HTML report.
	Heading string
	// Text is the terminal rendering.
	Text string
	// CSV is its table (nil for an artifact without one).
	CSV *storage.Table
	// Images are its SVG figures, in order.
	Images []Image
}

// Image is one SVG figure of an artifact.
type Image struct {
	// Name is the image's file name without ".svg".
	Name string
	// Heading, when set, gives the image an HTML section of its own;
	// otherwise the first such image is inlined in the artifact's section.
	Heading string
	SVG     string
}

// Study is the report plan: it walks the study's artifacts in report
// order (Table 1, Figures 2–8, demographics, the scorecard, then the
// follow-up analyses) and computes and emits each one want selects. want
// sees the artifact's name, the -figure number that selects it (1 is
// Table 1; 0 for one printed only with every figure) and whether it is an
// -extended follow-up. want is asked about each artifact just before it is
// computed and emitted, so a caller serving several selections in one pass
// can note which of them want answered for and route what emit receives.
// The location clusters are asked for once, as "clusters", and come as one
// artifact per granularity. d is read only for selected artifacts, so it
// may be nil when want selects Table 1 alone.
func Study(d *analysis.Dataset, want func(name string, figure int, extended bool) bool, emit func(Artifact)) {
	if want("table1", 1, false) {
		emit(Artifact{Name: "table1", Heading: "Table 1 — controversial search terms",
			Text: Table1(queries.Table1Terms())})
	}
	if want("figure2", 2, false) {
		cells := d.NoiseByGranularity()
		emit(Artifact{Name: "figure2", Heading: "Figure 2 — noise levels",
			Text: Figure2(cells), CSV: Figure2CSV(cells), Images: []Image{
				{Name: "figure2_edit", SVG: Figure2SVG(cells)},
				{Name: "figure2_jaccard", SVG: Figure2JaccardSVG(cells)}}})
	}
	if want("figure3", 3, false) {
		terms := d.NoisePerTerm("local")
		emit(Artifact{Name: "figure3", Heading: "Figure 3 — per-term noise (local)",
			Text: Figure3(terms), CSV: Figure3CSV(terms), Images: []Image{{Name: "figure3", SVG: Figure3SVG(terms)}}})
	}
	if want("figure4", 4, false) {
		attr := d.NoiseByResultType("local", "county")
		emit(Artifact{Name: "figure4", Heading: "Figure 4 — noise by result type",
			Text: Figure4(attr), CSV: Figure4CSV(attr), Images: []Image{{Name: "figure4", SVG: Figure4SVG(attr)}}})
	}
	if want("figure5", 5, false) {
		cells := d.PersonalizationByGranularity()
		emit(Artifact{Name: "figure5", Heading: "Figure 5 — personalization",
			Text: Figure5(cells), CSV: Figure5CSV(cells), Images: []Image{{Name: "figure5", SVG: Figure5SVG(cells)}}})
	}
	if want("figure6", 6, false) {
		terms := d.PersonalizationPerTerm("local")
		emit(Artifact{Name: "figure6", Heading: "Figure 6 — per-term personalization (local)",
			Text: Figure6(terms), CSV: Figure6CSV(terms), Images: []Image{{Name: "figure6", SVG: Figure6SVG(terms)}}})
	}
	if want("figure7", 7, false) {
		cells := d.PersonalizationByResultType()
		emit(Artifact{Name: "figure7", Heading: "Figure 7 — personalization by result type",
			Text: Figure7(cells), CSV: Figure7CSV(cells), Images: []Image{{Name: "figure7", SVG: Figure7SVG(cells)}}})
	}
	if want("figure8", 8, false) {
		series := d.ConsistencyOverTime("local")
		a := Artifact{Name: "figure8", Heading: "Figure 8 — consistency over time",
			Text: Figure8(series), CSV: Figure8CSV(series)}
		for _, s := range series {
			a.Images = append(a.Images, Image{Name: "figure8_" + s.Granularity,
				Heading: fmt.Sprintf("Figure 8 (%s)", displayGranularity(s.Granularity)), SVG: Figure8SVG(s)})
		}
		emit(a)
	}
	if want("demographics", 0, false) {
		rows := d.DemographicCorrelations(geo.StudyDataset(), "local")
		emit(Artifact{Name: "demographics", Heading: "Demographics (§3.2)",
			Text: Demographics(rows), CSV: DemographicsCSV(rows)})
	}
	if want("scorecard", 0, false) {
		emit(Artifact{Name: "scorecard", Heading: "Fidelity scorecard", Text: Scorecard(d.Scorecard())})
	}
	if want("clusters", 0, true) {
		noise := d.NoiseByGranularity()
		for _, g := range d.Granularities() {
			// Clusters merge while closer than 1.3 times the local noise
			// floor at their granularity.
			threshold := 0.0
			for _, c := range noise {
				if c.Granularity == g && c.Category == "local" {
					threshold = c.Edit.Mean * 1.3
				}
			}
			clusters := d.LocationSimilarity(g, "local").Clusters(threshold)
			emit(Artifact{Name: "clusters_" + g, Heading: "Location clusters (" + g + ")",
				Text: Clusters(g, clusters, threshold), CSV: ClustersCSV(g, clusters)})
		}
	}
	if want("politician_scopes", 0, true) {
		cells := d.PoliticianScopeBreakdown(queries.StudyCorpus())
		emit(Artifact{Name: "politician_scopes", Heading: "Politician personalization by office scope",
			Text: ScopeBreakdown(cells), CSV: ScopeBreakdownCSV(cells)})
	}
	if want("common_names", 0, true) {
		emit(Artifact{Name: "common_names", Heading: "Common-name ambiguity",
			Text: CommonNames(d.CommonNameAmbiguity(queries.StudyCorpus()))})
	}
	if want("domain_bias", 0, true) {
		rows := d.DomainBiasByLocation("state", "local", 0.02)
		emit(Artifact{Name: "domain_bias", Heading: "Content analysis",
			Text: DomainBias(rows, 25), CSV: DomainBiasCSV(rows)})
	}
	if want("reordering", 0, true) {
		cells := d.ReorderingVsComposition()
		emit(Artifact{Name: "reordering", Heading: "Composition vs reordering",
			Text: Reordering(cells), CSV: ReorderingCSV(cells)})
	}
	if want("distance_decay", 0, true) {
		bins, fit := d.DistanceDecay(geo.StudyDataset(), "local")
		emit(Artifact{Name: "distance_decay", Heading: "Personalization vs distance",
			Text: DistanceDecay(bins, fit), CSV: DistanceDecayCSV(bins),
			Images: []Image{{Name: "distance_decay", SVG: DistanceDecaySVG(bins)}}})
	}
}
