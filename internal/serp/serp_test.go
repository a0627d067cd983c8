package serp

import (
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"
)

func samplePage() *Page {
	return &Page{
		Query:      "coffee",
		Location:   "41.499300,-81.694400",
		Datacenter: "dc-1",
		Day:        2,
		Cards: []Card{
			{Type: Organic, Results: []Result{{URL: "https://encyclopedia.example/wiki/coffee", Title: "Coffee - Encyclopedia"}}},
			{Type: Maps, Results: []Result{
				{URL: "https://riverside-cafe.coffee.example/", Title: "Riverside Cafe"},
				{URL: "https://oakwood-roasters.coffee.example/", Title: "Oakwood Roasters"},
				{URL: "https://lakeview-espresso.coffee.example/", Title: "Lakeview Espresso Bar"},
			}},
			{Type: Organic, Results: []Result{{URL: "https://yellowpages.example/c/coffee", Title: "Find a Coffee Near You"}}},
			{Type: News, Results: []Result{
				{URL: "https://worldwire.example/coffee/day2-0", Title: "Coffee: developments"},
				{URL: "https://theledger.example/coffee/day2-1", Title: "Coffee prices rise"},
			}},
			{Type: Organic, Results: []Result{{URL: "https://reviewhub.example/c/coffee", Title: "Best Coffee Options"}}},
		},
	}
}

func TestLinksExtractionRule(t *testing.T) {
	p := samplePage()
	links := p.Links()
	// 1 + 3 (maps: all) + 1 + 2 (news: all) + 1 = 8
	if len(links) != 8 {
		t.Fatalf("extracted %d links, want 8: %v", len(links), links)
	}
	if links[0] != "https://encyclopedia.example/wiki/coffee" {
		t.Fatalf("first link = %s", links[0])
	}
	if links[1] != "https://riverside-cafe.coffee.example/" {
		t.Fatalf("maps links not in order: %v", links)
	}
}

func TestLinksOfType(t *testing.T) {
	p := samplePage()
	if got := p.LinksOfType(Maps); len(got) != 3 {
		t.Fatalf("maps links = %d, want 3", len(got))
	}
	if got := p.LinksOfType(News); len(got) != 2 {
		t.Fatalf("news links = %d, want 2", len(got))
	}
	if got := p.LinksOfType(Organic); len(got) != 3 {
		t.Fatalf("organic links = %d, want 3", len(got))
	}
	if p.LinkCount() != 8 {
		t.Fatalf("LinkCount = %d", p.LinkCount())
	}
}

func TestCardCount(t *testing.T) {
	p := samplePage()
	if p.CardCount(Organic) != 3 || p.CardCount(Maps) != 1 || p.CardCount(News) != 1 {
		t.Fatalf("card counts = %d/%d/%d", p.CardCount(Organic), p.CardCount(Maps), p.CardCount(News))
	}
}

func TestValidate(t *testing.T) {
	if err := samplePage().Validate(); err != nil {
		t.Fatalf("valid page rejected: %v", err)
	}
	bad := &Page{Query: " "}
	if err := bad.Validate(); err == nil {
		t.Fatal("empty query accepted")
	}
	bad = &Page{Query: "x", Cards: []Card{{Type: Organic}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("empty card accepted")
	}
	bad = &Page{Query: "x", Cards: []Card{{Type: Organic, Results: []Result{{URL: ""}}}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("empty URL accepted")
	}
	bad = &Page{Query: "x", Cards: []Card{{Type: Organic, Results: []Result{{URL: "a"}, {URL: "b"}}}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("multi-result organic card accepted")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	p := samplePage()
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var got Page
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	assertPagesEqual(t, p, &got)
	if !strings.Contains(string(b), `"type":"maps"`) {
		t.Fatalf("JSON does not use wire labels: %s", b)
	}
}

func TestUnmarshalPageErrors(t *testing.T) {
	var p Page
	if err := json.Unmarshal([]byte("{"), &p); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	if err := json.Unmarshal([]byte(`{"cards":[{"type":"hologram"}]}`), &p); err == nil {
		t.Fatal("unknown card type accepted")
	}
}

func TestHTMLRoundTrip(t *testing.T) {
	// A query with no results renders an empty results container, which
	// must parse back to a page with no cards.
	for _, p := range []*Page{samplePage(), emptyPage()} {
		doc := RenderHTML(p)
		got, err := ParseHTML(doc)
		if err != nil {
			t.Fatalf("parse: %v\n%s", err, doc)
		}
		assertPagesEqual(t, p, got)
	}
}

// emptyPage is the page of a query with no results.
func emptyPage() *Page {
	return &Page{Query: "zzzzqqqxx", Location: "41.499300,-81.694400", Datacenter: "dc-1", Day: 2}
}

func assertPagesEqual(t *testing.T, want, got *Page) {
	t.Helper()
	if got.Query != want.Query || got.Location != want.Location ||
		got.Datacenter != want.Datacenter || got.Day != want.Day {
		t.Fatalf("metadata mismatch:\nwant %+v\ngot  %+v", want, got)
	}
	if len(got.Cards) != len(want.Cards) {
		t.Fatalf("card count %d, want %d", len(got.Cards), len(want.Cards))
	}
	for i := range want.Cards {
		if got.Cards[i].Type != want.Cards[i].Type {
			t.Fatalf("card %d type %v, want %v", i, got.Cards[i].Type, want.Cards[i].Type)
		}
		if len(got.Cards[i].Results) != len(want.Cards[i].Results) {
			t.Fatalf("card %d results %d, want %d", i, len(got.Cards[i].Results), len(want.Cards[i].Results))
		}
		for j := range want.Cards[i].Results {
			if got.Cards[i].Results[j] != want.Cards[i].Results[j] {
				t.Fatalf("card %d result %d = %+v, want %+v",
					i, j, got.Cards[i].Results[j], want.Cards[i].Results[j])
			}
		}
	}
}

func TestHTMLEscaping(t *testing.T) {
	p := &Page{
		Query:    `coffee <script>"&'`,
		Location: "1.000000,2.000000",
		Cards: []Card{
			{Type: Organic, Results: []Result{{
				URL:   "https://x.example/?a=1&b=2",
				Title: `Tom & Jerry's <Best> "Cafe"`,
			}}},
		},
	}
	doc := RenderHTML(p)
	if strings.Contains(doc, "<script>") {
		t.Fatal("unescaped script tag in output")
	}
	got, err := ParseHTML(doc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Query != p.Query {
		t.Fatalf("query round-trip = %q, want %q", got.Query, p.Query)
	}
	if got.Cards[0].Results[0] != p.Cards[0].Results[0] {
		t.Fatalf("result round-trip = %+v", got.Cards[0].Results[0])
	}
}

// badFooters are footer attributes that misparse silently into a
// plausible page unless the day is required, parsed whole, and read only
// from its own attribute.
var badFooters = map[string]string{
	"day not a number":         `data-location="" data-datacenter="" data-day="x"`,
	"day missing":              `data-location="" data-datacenter=""`,
	"day with trailing junk":   `data-location="" data-datacenter="" data-day="3x"`,
	"day inside another value": `data-location="" data-datacenter="data-day="1"`,
	"day ending a longer name": `data-location="" data-datacenter="" xdata-day="1"`,
}

// htmlRejects are documents ParseHTML must refuse; FuzzParseHTML also
// seeds its corpus with them.
func htmlRejects() map[string]string {
	cases := map[string]string{
		"empty":              "",
		"no title":           "<html><body></body></html>",
		"no footer":          "<title>x - Search</title><div class=\"card\" data-type=\"organic\"><a class=\"serp-link\" href=\"u\">t</a></div><!--/card-->",
		"no cards":           "<title>x - Search</title><footer id=\"geo-footer\" data-location=\"\" data-datacenter=\"\" data-day=\"0\">f</footer>",
		"bad card type":      "<title>x - Search</title><footer id=\"geo-footer\" data-location=\"\" data-datacenter=\"\" data-day=\"0\">f</footer><div class=\"card\" data-type=\"mystery\"><a class=\"serp-link\" href=\"u\">t</a></div><!--/card-->",
		"unterminated":       "<title>x - Search</title><footer id=\"geo-footer\" data-location=\"\" data-datacenter=\"\" data-day=\"0\">f</footer><div class=\"card\" data-type=\"organic\"><a class=\"serp-link\" href=\"u\">t</a>",
		"card without links": "<title>x - Search</title><footer id=\"geo-footer\" data-location=\"\" data-datacenter=\"\" data-day=\"0\">f</footer><div class=\"card\" data-type=\"organic\"></div><!--/card-->",
		"unclosed title":     "<title>x - Search",
		"unclosed footer":    "<title>x - Search</title><footer id=\"geo-footer\" data-location=\"\" data-datacenter=\"\" data-day=\"0\"",
	}
	for name, attrs := range badFooters {
		cases[name] = `<title>x - Search</title><footer id="geo-footer" ` + attrs + `>f</footer>` +
			`<div class="card" data-type="organic"><a class="serp-link" href="u">t</a></div><!--/card-->`
	}
	// Cards that close but whose opener or anchor is broken.
	for name, card := range map[string]string{
		"unclosed card opener": `<div class="card" data-type="organic"</div><!--/card-->`,
		"unterminated anchor":  `<div class="card" data-type="organic"><a class="serp-link" href="u">t</div><!--/card-->`,
		"anchor without href":  `<div class="card" data-type="organic"><a class="serp-link">t</a></div><!--/card-->`,
		"unclosed anchor tag":  `<div class="card" data-type="organic"><a class="serp-link" href="u"</a></div><!--/card-->`,
	} {
		cases[name] = `<title>x - Search</title><footer id="geo-footer" data-location="" data-datacenter="" data-day="0">f</footer>` + card
	}
	return cases
}

func TestParseHTMLErrors(t *testing.T) {
	for name, doc := range htmlRejects() {
		if _, err := ParseHTML(doc); err == nil {
			t.Fatalf("%s: parse succeeded, want error", name)
		}
	}
}

func TestCardTypeLabels(t *testing.T) {
	for _, ct := range CardTypes {
		back, err := ParseCardType(ct.String())
		if err != nil || back != ct {
			t.Fatalf("round-trip %v failed", ct)
		}
	}
	if _, err := ParseCardType("bogus"); err == nil {
		t.Fatal("bogus type accepted")
	}
	if CardType(9).String() == "" {
		t.Fatal("unknown type empty label")
	}
}

func TestLinksEmptyAndDegenerate(t *testing.T) {
	p := &Page{Query: "x"}
	if got := p.Links(); len(got) != 0 {
		t.Fatalf("empty page links = %v", got)
	}
	p.Cards = []Card{{Type: Maps}} // no results
	if got := p.Links(); len(got) != 0 {
		t.Fatalf("empty maps card links = %v", got)
	}
}

// Property: HTML round-trip preserves any structurally valid page built
// from URL-safe strings, a page with no cards included.
func TestHTMLRoundTripProperty(t *testing.T) {
	f := func(nCards uint8, seeds []uint16) bool {
		p := &Page{Query: "q", Location: "1.000000,2.000000", Datacenter: "dc-0"}
		n := int(nCards % 7)
		for i := 0; i < n; i++ {
			seed := 0
			if len(seeds) > 0 {
				seed = int(seeds[i%len(seeds)])
			}
			ct := CardTypes[(i+seed)%len(CardTypes)]
			nr := 1
			if ct != Organic {
				nr = seed%4 + 1
			}
			var card Card
			card.Type = ct
			for j := 0; j < nr; j++ {
				card.Results = append(card.Results, Result{
					URL:   strings.Repeat("u", j+1) + ".example/" + ct.String(),
					Title: "Title " + ct.String(),
				})
			}
			p.Cards = append(p.Cards, card)
		}
		got, err := ParseHTML(RenderHTML(p))
		if err != nil {
			return false
		}
		if len(got.Cards) != len(p.Cards) {
			return false
		}
		for i := range p.Cards {
			if got.Cards[i].Type != p.Cards[i].Type ||
				len(got.Cards[i].Results) != len(p.Cards[i].Results) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
