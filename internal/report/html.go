package report

import (
	"fmt"
	"html/template"
	"strings"
)

// HTMLSection is one block of the self-contained HTML report: a heading,
// the text rendering of a table/figure, and (optionally) its SVG image.
type HTMLSection struct {
	Heading string
	PreText string
	// SVG is inlined verbatim (it is produced by internal/plot, not user
	// input).
	SVG template.HTML
}

// HTMLReport is the input to RenderHTML.
type HTMLReport struct {
	Title    string
	Subtitle string
	Sections []HTMLSection
}

var htmlTemplate = template.Must(template.New("report").Parse(`<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{{.Title}}</title>
<style>
 body { font-family: Georgia, serif; max-width: 880px; margin: 2em auto; color: #222; }
 h1 { font-size: 1.6em; border-bottom: 2px solid #444; padding-bottom: 0.3em; }
 h2 { font-size: 1.2em; margin-top: 2em; }
 pre { background: #f7f7f4; padding: 1em; overflow-x: auto; font-size: 12px; line-height: 1.35; }
 .subtitle { color: #666; font-style: italic; }
 figure { margin: 1em 0; }
</style>
</head>
<body>
<h1>{{.Title}}</h1>
<p class="subtitle">{{.Subtitle}}</p>
{{range .Sections}}
<h2>{{.Heading}}</h2>
{{if .SVG}}<figure>{{.SVG}}</figure>{{end}}
{{if .PreText}}<pre>{{.PreText}}</pre>{{end}}
{{end}}
</body>
</html>
`))

// RenderHTML renders the report document.
func RenderHTML(r HTMLReport) (string, error) {
	var b strings.Builder
	if err := htmlTemplate.Execute(&b, r); err != nil {
		return "", fmt.Errorf("report: render html: %w", err)
	}
	return b.String(), nil
}

// InHTMLReport is the HTML report's selection for Study: Table 1,
// Figures 2–8, demographics, the scorecard and, alone among the
// follow-ups, the distance curve.
func InHTMLReport(name string, _ int, extended bool) bool {
	return !extended || name == "distance_decay"
}

// BuildHTMLReport lays out the study report from arts, the artifacts
// Study emits under InHTMLReport, in the order it emits them: the
// scorecard first, then the rest in report order. An artifact's first
// image without a heading is inlined in its section; each image with a
// heading gets a section of its own.
func BuildHTMLReport(arts []Artifact) HTMLReport {
	r := HTMLReport{
		Title: "Location, Location, Location — reproduction report",
		Subtitle: "Kliman-Silver, Hannák, Lazer, Wilson, Mislove (IMC 2015), " +
			"reproduced against the geoserp synthetic engine.",
	}
	for _, a := range arts {
		sections := []HTMLSection{{Heading: a.Heading, PreText: a.Text}}
		for _, img := range a.Images {
			if img.Heading != "" {
				sections = append(sections, HTMLSection{Heading: img.Heading, SVG: template.HTML(img.SVG)})
			} else if sections[0].SVG == "" {
				sections[0].SVG = template.HTML(img.SVG)
			}
		}
		if a.Name == "scorecard" {
			r.Sections = append(sections, r.Sections...)
		} else {
			r.Sections = append(r.Sections, sections...)
		}
	}
	return r
}
