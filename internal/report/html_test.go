package report

import (
	"strings"
	"testing"

	"geoserp/internal/analysis"
	"geoserp/internal/geo"
	"geoserp/internal/serp"
	"geoserp/internal/storage"
	"html/template"
	"time"
)

func TestRenderHTMLEscapesText(t *testing.T) {
	r := HTMLReport{
		Title:    `Report <script>alert(1)</script>`,
		Subtitle: "sub",
		Sections: []HTMLSection{
			{Heading: "H & M", PreText: "a < b", SVG: template.HTML("<svg></svg>")},
		},
	}
	doc, err := RenderHTML(r)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(doc, "<script>alert") {
		t.Fatal("title not escaped")
	}
	if !strings.Contains(doc, "a &lt; b") {
		t.Fatal("pre text not escaped")
	}
	if !strings.Contains(doc, "<svg></svg>") {
		t.Fatal("SVG escaped (should be inlined)")
	}
}

func TestBuildHTMLReportFromDataset(t *testing.T) {
	page := func(links ...string) *serp.Page {
		p := &serp.Page{Query: "Coffee", Location: "41.000000,-81.000000"}
		for _, l := range links {
			p.Cards = append(p.Cards, serp.Card{
				Type:    serp.Organic,
				Results: []serp.Result{{URL: l, Title: l}},
			})
		}
		return p
	}
	locs := geo.StudyDataset().At(geo.County)
	mk := func(loc string, role storage.Role, links ...string) storage.Observation {
		return storage.Observation{
			Term: "Coffee", Category: "local", Granularity: "county",
			LocationID: loc, Role: role, Day: 0, MachineIP: "10.0.0.1",
			FetchedAt: time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC),
			Page:      page(links...),
		}
	}
	d, err := analysis.NewDataset([]storage.Observation{
		mk(locs[0].ID, storage.Treatment, "a", "b"),
		mk(locs[0].ID, storage.Control, "a", "b"),
		mk(locs[1].ID, storage.Treatment, "a", "c"),
		mk(locs[1].ID, storage.Control, "a", "c"),
	})
	if err != nil {
		t.Fatal(err)
	}
	var arts []Artifact
	Study(d, InHTMLReport, func(a Artifact) { arts = append(arts, a) })
	r := BuildHTMLReport(arts)
	if len(r.Sections) < 10 {
		t.Fatalf("sections = %d, want >= 10", len(r.Sections))
	}
	doc, err := RenderHTML(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table 1", "Figure 2", "Figure 8", "Demographics", "<svg"} {
		if !strings.Contains(doc, want) {
			t.Fatalf("report missing %q", want)
		}
	}
}
