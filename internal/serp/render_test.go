package serp_test

import (
	"math"
	"strconv"
	"testing"
	"time"

	"geoserp/internal/engine"
	"geoserp/internal/geo"
	"geoserp/internal/serp"
	"geoserp/internal/simclock"
)

// studyPages serves one study page per query class — generic local (with
// a Maps card), brand local, controversial (with a News card) and
// politician — at Cleveland on day 0.
func studyPages(tb testing.TB) []*serp.Page {
	tb.Helper()
	eng := engine.New(engine.DefaultConfig(), simclock.NewManual(time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)))
	gps := geo.Point{Lat: 41.4993, Lon: -81.6944}
	var pages []*serp.Page
	for _, term := range []string{"School", "Starbucks", "Gay Marriage", "Barack Obama"} {
		r, err := eng.Search(engine.Request{Query: term, GPS: &gps, ClientIP: "10.0.0.1"})
		if err != nil {
			tb.Fatal(err)
		}
		pages = append(pages, r.Page)
	}
	return pages
}

// renderPrefix stands for what a caller's buffer already holds: the
// appenders must extend it and leave it as it was.
const renderPrefix = "HTTP/1.1 200 OK\r\n\r\n"

// checkRender requires the page, appended after renderPrefix and rendered
// to a string, to be the fmt oracle's bytes.
func checkRender(tb testing.TB, p *serp.Page) {
	tb.Helper()
	want := serp.ReferenceRenderHTML(p)
	if got := string(serp.AppendHTML([]byte(renderPrefix), p)); got != renderPrefix+want {
		tb.Fatalf("appended page differs from the fmt renderer's\n got %q\nwant %q", got, renderPrefix+want)
	}
	if got := serp.RenderHTML(p); got != want {
		tb.Fatalf("rendered page differs from the fmt renderer's\n got %q\nwant %q", got, want)
	}
}

// fuzzPage builds FuzzRenderHTML's page. Each 2-bit field of shape, low
// bits first, is one card's type (organic, maps, news) and the value 3
// ends the stack, so one byte describes 0–4 cards. Card i carries i+1
// results: url and title, each marked with the result's position.
func fuzzPage(query, location, datacenter string, day int, shape byte, url, title string) *serp.Page {
	p := &serp.Page{Query: query, Location: location, Datacenter: datacenter, Day: day}
	for i := 0; i < 4; i++ {
		t := serp.CardType(shape >> (2 * i) & 3)
		if t == 3 {
			break
		}
		c := serp.Card{Type: t}
		for j := 0; j <= i; j++ {
			pos := strconv.Itoa(i) + "." + strconv.Itoa(j)
			c.Results = append(c.Results, serp.Result{URL: url + pos, Title: pos + title})
		}
		p.Cards = append(p.Cards, c)
	}
	return p
}

// shapeOf encodes the types of p's first four cards the way fuzzPage
// reads them.
func shapeOf(p *serp.Page) byte {
	shape := byte(0xff)
	for i, c := range p.Cards[:min(4, len(p.Cards))] {
		shape = shape&^(3<<(2*i)) | byte(c.Type)<<(2*i)
	}
	return shape
}

// FuzzRenderHTML holds the append renderer to the fmt renderer it
// replaced: for any query, location, datacenter, day and card stack, with
// URLs and titles carrying the five escaped bytes, NUL or invalid UTF-8,
// it must produce the oracle's bytes. The seeds check each
// study page whole, then add its fields and card mix as a fuzz input.
func FuzzRenderHTML(f *testing.F) {
	for _, p := range studyPages(f) {
		checkRender(f, p)
		r := p.Cards[0].Results[0]
		f.Add(p.Query, p.Location, p.Datacenter, p.Day, shapeOf(p), r.URL, r.Title)
	}
	f.Add(`"Tom & Jerry's" <b>`, "41.499300,-81.694400", `dc-"0"`, -7, byte(0b11_10_01_00),
		`https://a.example/?q=1&r='2'<3>"`, "Joe's \x00 \xff\xfe <café>")
	f.Add("", "", "", math.MaxInt, byte(0xff), "", "")
	f.Add("\xc3\x28", "&amp;", "\x00", math.MinInt, byte(0b10_01_00_10), "<>", `''""`)
	f.Fuzz(func(t *testing.T, query, location, datacenter string, day int, shape byte, url, title string) {
		checkRender(t, fuzzPage(query, location, datacenter, day, shape, url, title))
	})
}

// renderSink keeps BenchmarkRenderHTML's output live.
var renderSink int

// BenchmarkRenderHTML appends one study page per query class into a
// reused buffer, as serpserver's handler does with its pooled buffers: it
// should allocate nothing.
func BenchmarkRenderHTML(b *testing.B) {
	pages := studyPages(b)
	buf := make([]byte, 0, 8<<10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pages {
			buf = serp.AppendHTML(buf[:0], p)
			renderSink += len(buf)
		}
	}
}
