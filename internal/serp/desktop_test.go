package serp

import (
	"strings"
	"testing"
)

func TestDesktopRoundTrip(t *testing.T) {
	// A query with no results renders an empty results container, which
	// must parse back to a page with no cards.
	empty := &Page{Query: "zzzzqqqxx", Location: "41.499300,-81.694400", Datacenter: "dc-1", Day: 2}
	for _, p := range []*Page{samplePage(), empty} {
		doc := RenderDesktopHTML(p)
		if !IsDesktopHTML(doc) {
			t.Fatal("desktop marker missing")
		}
		got, err := ParseDesktopHTML(doc)
		if err != nil {
			t.Fatalf("parse: %v\n%s", err, doc)
		}
		assertPagesEqual(t, p, got)
	}
}

func TestDesktopVsMobileMarkupDiffers(t *testing.T) {
	p := samplePage()
	mobile := RenderHTML(p)
	desktop := RenderDesktopHTML(p)
	if IsDesktopHTML(mobile) {
		t.Fatal("mobile page carries desktop marker")
	}
	if !strings.Contains(desktop, "onebox") || strings.Contains(mobile, "onebox") {
		t.Fatal("surfaces not distinct")
	}
	// Both surfaces carry the same links in the same order.
	mp, err := ParseAnyHTML(mobile)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := ParseAnyHTML(desktop)
	if err != nil {
		t.Fatal(err)
	}
	ml, dl := mp.Links(), dp.Links()
	if len(ml) != len(dl) {
		t.Fatalf("link counts differ: %d vs %d", len(ml), len(dl))
	}
	for i := range ml {
		if ml[i] != dl[i] {
			t.Fatalf("link %d differs: %s vs %s", i, ml[i], dl[i])
		}
	}
}

func TestParseAnyHTMLDispatch(t *testing.T) {
	p := samplePage()
	for _, doc := range []string{RenderHTML(p), RenderDesktopHTML(p)} {
		got, err := ParseAnyHTML(doc)
		if err != nil {
			t.Fatal(err)
		}
		if got.Query != p.Query {
			t.Fatalf("query = %q", got.Query)
		}
	}
}

// desktopRejects are documents ParseDesktopHTML must refuse; FuzzParseHTML
// also seeds its corpus with them.
func desktopRejects() map[string]string {
	cases := map[string]string{
		"not desktop": "<html><body>x</body></html>",
		"no title":    desktopMarker,
		"no footer":   "<title>x - Search</title>" + desktopMarker,
		"bad type": "<title>x - Search</title>" + desktopMarker +
			`<div id="foot" data-location="" data-datacenter="" data-day="0">f</div>` +
			`<div class="g" data-type="weird"><a class="res-link" href="u">t</a></div><!--/g-->`,
		"unterminated": "<title>x - Search</title>" + desktopMarker +
			`<div id="foot" data-location="" data-datacenter="" data-day="0">f</div>` +
			`<div class="g" data-type="organic"><a class="res-link" href="u">t</a>`,
		"no results": "<title>x - Search</title>" + desktopMarker +
			`<div id="foot" data-location="" data-datacenter="" data-day="0">f</div>`,
	}
	for name, attrs := range badFooters {
		cases[name] = "<title>x - Search</title>" + desktopMarker + `<div id="foot" ` + attrs + `>f</div>` +
			`<div class="g" data-type="organic"><a class="res-link" href="u">t</a></div><!--/g-->`
	}
	return cases
}

func TestParseDesktopErrors(t *testing.T) {
	for name, doc := range desktopRejects() {
		if _, err := ParseDesktopHTML(doc); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}

func TestDesktopEscaping(t *testing.T) {
	p := &Page{
		Query:    `q <script>`,
		Location: "1.000000,2.000000",
		Cards: []Card{{Type: Organic, Results: []Result{{
			URL: "https://x.example/?a=1&b=2", Title: `T & "T"`,
		}}}},
	}
	doc := RenderDesktopHTML(p)
	if strings.Contains(doc, "<script>") {
		t.Fatal("unescaped markup")
	}
	got, err := ParseDesktopHTML(doc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Query != p.Query || got.Cards[0].Results[0] != p.Cards[0].Results[0] {
		t.Fatalf("round-trip = %+v", got)
	}
}
