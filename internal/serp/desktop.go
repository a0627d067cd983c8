package serp

import "strconv"

// The study deliberately targeted the MOBILE search page: only mobile used
// the JavaScript Geolocation API, so only mobile could be fed arbitrary GPS
// coordinates; prior work ([11], Bobble) measured the desktop page, whose
// location signal was the IP address. This file implements that desktop
// surface — a classic ten-blue-links layout with optional Maps/News
// oneboxes — so both methodologies can be exercised against one engine.
//
// RenderDesktopHTML is the desktop counterpart of RenderHTML; ParseHTML
// reads either surface back, by desktopSurface's markers when the document
// carries desktopMarker.

// desktopMarker distinguishes the two surfaces in parsed documents.
const desktopMarker = `<body class="desktop-serp">`

// desktopSurface holds the markers ParseHTML reads a desktop results
// document by. Organic results and the two oneboxes open and close
// differently, and a block's data-type is read from its whole opening tag.
var desktopSurface = surface{
	footer: `<div id="foot"`,
	blocks: []cardBlock{
		{open: `<div class="g"`, head: "<div", close: "</div><!--/g-->"},
		{open: `<div class="onebox`, head: "<div", close: "</div><!--/onebox-->"},
	},
	anchor:    `<a class="res-link"`,
	container: `<div id="res">`,
}

// RenderDesktopHTML renders the page as a desktop results document.
func RenderDesktopHTML(p *Page) string {
	return string(AppendDesktopHTML(make([]byte, 0, 4096), p))
}

// AppendDesktopHTML appends the page's desktop results document to b and
// returns the extended buffer. The appended bytes are the ones
// RenderDesktopHTML returns.
func AppendDesktopHTML(b []byte, p *Page) []byte {
	b = append(b, "<!doctype html>\n<html><head><meta charset=\"utf-8\"><title>"...)
	b = appendEscaped(b, p.Query)
	b = append(b, " - Search</title></head>\n"+desktopMarker+"\n<div id=\"searchform\"><input value=\""...)
	b = appendEscaped(b, p.Query)
	b = append(b, "\"></div>\n<div id=\"res\">\n"...)
	for i, c := range p.Cards {
		switch c.Type {
		case Maps:
			b = append(b, "<div class=\"onebox maps-onebox\" data-type=\"maps\" data-index=\""...)
			b = strconv.AppendInt(b, int64(i), 10)
			b = append(b, "\">\n  <div class=\"lu-map\"></div>\n  <table class=\"lu-results\">\n"...)
			for _, r := range c.Results {
				b = append(b, "    <tr><td>"...)
				b = appendLink(b, "res-link", r)
				b = append(b, "</td></tr>\n"...)
			}
			b = append(b, "  </table>\n</div><!--/onebox-->\n"...)
		case News:
			b = append(b, "<div class=\"onebox news-onebox\" data-type=\"news\" data-index=\""...)
			b = strconv.AppendInt(b, int64(i), 10)
			b = append(b, "\">\n  <h3>In the news</h3>\n"...)
			for _, r := range c.Results {
				b = append(b, "  <div class=\"news-row\">"...)
				b = appendLink(b, "res-link", r)
				b = append(b, "</div>\n"...)
			}
			b = append(b, "</div><!--/onebox-->\n"...)
		default:
			b = append(b, "<div class=\"g\" data-type=\"organic\" data-index=\""...)
			b = strconv.AppendInt(b, int64(i), 10)
			b = append(b, "\">\n"...)
			for _, r := range c.Results {
				b = append(b, "  <h3>"...)
				b = appendLink(b, "res-link", r)
				b = append(b, "</h3>\n"...)
			}
			b = append(b, "</div><!--/g-->\n"...)
		}
	}
	b = append(b, "</div>\n<div id=\"foot\""...)
	b = appendFooterAttrs(b, p)
	b = append(b, ">Location used: "...)
	b = appendEscaped(b, p.Location)
	return append(b, "</div>\n</body></html>\n"...)
}
