package serp

import (
	"fmt"
	"html"
	"strings"
)

// The fmt renderer that AppendHTML replaced, kept verbatim but renamed:
// the oracle FuzzRenderHTML compares it against, byte for byte.

// referenceRenderHTML renders the page as a mobile results document.
func referenceRenderHTML(p *Page) string {
	var b strings.Builder
	b.Grow(4096)
	b.WriteString("<!doctype html>\n<html><head><meta charset=\"utf-8\">")
	fmt.Fprintf(&b, "<title>%s - Search</title>", html.EscapeString(p.Query))
	b.WriteString("<meta name=\"viewport\" content=\"width=device-width\"></head>\n<body>\n")
	fmt.Fprintf(&b, "<header class=\"searchbox\"><input value=\"%s\"></header>\n",
		html.EscapeString(p.Query))
	b.WriteString("<main id=\"results\">\n")
	for i, c := range p.Cards {
		fmt.Fprintf(&b, "<div class=\"card\" data-type=\"%s\" data-index=\"%d\">\n", c.Type, i)
		switch c.Type {
		case Maps:
			b.WriteString("  <div class=\"map-frame\"><span class=\"map-pin\">&#9679;</span></div>\n")
			b.WriteString("  <ul class=\"map-list\">\n")
			for _, r := range c.Results {
				fmt.Fprintf(&b, "    <li><a class=\"serp-link\" href=\"%s\">%s</a><span class=\"biz-meta\">&#9733;</span></li>\n",
					html.EscapeString(r.URL), html.EscapeString(r.Title))
			}
			b.WriteString("  </ul>\n")
		case News:
			b.WriteString("  <h3 class=\"news-header\">In the News</h3>\n")
			for _, r := range c.Results {
				fmt.Fprintf(&b, "  <div class=\"news-item\"><a class=\"serp-link\" href=\"%s\">%s</a></div>\n",
					html.EscapeString(r.URL), html.EscapeString(r.Title))
			}
		default:
			for j, r := range c.Results {
				cls := "serp-link"
				if j > 0 {
					cls = "serp-link sublink"
				}
				fmt.Fprintf(&b, "  <a class=\"%s\" href=\"%s\">%s</a>\n",
					cls, html.EscapeString(r.URL), html.EscapeString(r.Title))
			}
		}
		b.WriteString("</div><!--/card-->\n")
	}
	b.WriteString("</main>\n")
	fmt.Fprintf(&b, "<footer id=\"geo-footer\" data-location=\"%s\" data-datacenter=\"%s\" data-day=\"%d\">Results for <b>%s</b></footer>\n",
		html.EscapeString(p.Location), html.EscapeString(p.Datacenter), p.Day,
		html.EscapeString(p.Location))
	b.WriteString("</body></html>\n")
	return b.String()
}
