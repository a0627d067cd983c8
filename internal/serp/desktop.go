package serp

import (
	"fmt"
	"html"
	"strings"
)

// The study deliberately targeted the MOBILE search page: only mobile used
// the JavaScript Geolocation API, so only mobile could be fed arbitrary GPS
// coordinates; prior work ([11], Bobble) measured the desktop page, whose
// location signal was the IP address. This file implements that desktop
// surface — a classic ten-blue-links layout with optional Maps/News
// oneboxes — so both methodologies can be exercised against one engine.
//
// RenderDesktopHTML and ParseDesktopHTML are the desktop counterparts of
// RenderHTML/ParseHTML; ParseAnyHTML dispatches on the surface marker.

// desktopMarker distinguishes the two surfaces in parsed documents.
const desktopMarker = `<body class="desktop-serp">`

// RenderDesktopHTML renders the page as a desktop results document.
func RenderDesktopHTML(p *Page) string {
	var b strings.Builder
	b.Grow(4096)
	b.WriteString("<!doctype html>\n<html><head><meta charset=\"utf-8\">")
	fmt.Fprintf(&b, "<title>%s - Search</title></head>\n", html.EscapeString(p.Query))
	b.WriteString(desktopMarker + "\n")
	fmt.Fprintf(&b, "<div id=\"searchform\"><input value=\"%s\"></div>\n",
		html.EscapeString(p.Query))
	b.WriteString("<div id=\"res\">\n")
	for i, c := range p.Cards {
		switch c.Type {
		case Maps:
			fmt.Fprintf(&b, "<div class=\"onebox maps-onebox\" data-type=\"maps\" data-index=\"%d\">\n", i)
			b.WriteString("  <div class=\"lu-map\"></div>\n  <table class=\"lu-results\">\n")
			for _, r := range c.Results {
				fmt.Fprintf(&b, "    <tr><td><a class=\"res-link\" href=\"%s\">%s</a></td></tr>\n",
					html.EscapeString(r.URL), html.EscapeString(r.Title))
			}
			b.WriteString("  </table>\n</div><!--/onebox-->\n")
		case News:
			fmt.Fprintf(&b, "<div class=\"onebox news-onebox\" data-type=\"news\" data-index=\"%d\">\n", i)
			b.WriteString("  <h3>In the news</h3>\n")
			for _, r := range c.Results {
				fmt.Fprintf(&b, "  <div class=\"news-row\"><a class=\"res-link\" href=\"%s\">%s</a></div>\n",
					html.EscapeString(r.URL), html.EscapeString(r.Title))
			}
			b.WriteString("</div><!--/onebox-->\n")
		default:
			fmt.Fprintf(&b, "<div class=\"g\" data-type=\"organic\" data-index=\"%d\">\n", i)
			for _, r := range c.Results {
				fmt.Fprintf(&b, "  <h3><a class=\"res-link\" href=\"%s\">%s</a></h3>\n",
					html.EscapeString(r.URL), html.EscapeString(r.Title))
			}
			b.WriteString("</div><!--/g-->\n")
		}
	}
	b.WriteString("</div>\n")
	fmt.Fprintf(&b, "<div id=\"foot\" data-location=\"%s\" data-datacenter=\"%s\" data-day=\"%d\">Location used: %s</div>\n",
		html.EscapeString(p.Location), html.EscapeString(p.Datacenter), p.Day,
		html.EscapeString(p.Location))
	b.WriteString("</body></html>\n")
	return b.String()
}

// IsDesktopHTML reports whether the document is a desktop results page.
func IsDesktopHTML(doc string) bool {
	return strings.Contains(doc, desktopMarker)
}

// ParseDesktopHTML parses a desktop results document back into a Page.
func ParseDesktopHTML(doc string) (*Page, error) {
	if !IsDesktopHTML(doc) {
		return nil, fmt.Errorf("serp: not a desktop results page")
	}
	p := &Page{}
	title, err := between(doc, "<title>", "</title>")
	if err != nil {
		return nil, fmt.Errorf("serp: parse desktop: %w", err)
	}
	p.Query = html.UnescapeString(strings.TrimSuffix(title, " - Search"))

	foot, err := between(doc, "<div id=\"foot\"", ">")
	if err != nil {
		return nil, fmt.Errorf("serp: parse desktop: missing footer")
	}
	if err := parseFooter(p, foot); err != nil {
		return nil, fmt.Errorf("serp: parse desktop: %w", err)
	}

	rest := doc
	for {
		// The next block is whichever container starts first.
		gIdx := strings.Index(rest, `<div class="g"`)
		oIdx := strings.Index(rest, `<div class="onebox`)
		var start int
		var closeMark string
		switch {
		case gIdx < 0 && oIdx < 0:
			goto done
		case oIdx < 0 || (gIdx >= 0 && gIdx < oIdx):
			start, closeMark = gIdx, "</div><!--/g-->"
		default:
			start, closeMark = oIdx, "</div><!--/onebox-->"
		}
		end := strings.Index(rest[start:], closeMark)
		if end < 0 {
			return nil, fmt.Errorf("serp: parse desktop: unterminated block")
		}
		block := rest[start : start+end]
		rest = rest[start+end+len(closeMark):]

		head, _ := between(block, "<div", ">")
		typeLabel, _ := attr(head, "data-type")
		ct, err := ParseCardType(typeLabel)
		if err != nil {
			return nil, fmt.Errorf("serp: parse desktop: %w", err)
		}
		card := Card{Type: ct}
		linkRest := block
		for {
			a := strings.Index(linkRest, `<a class="res-link"`)
			if a < 0 {
				break
			}
			tag := linkRest[a:]
			closeTag := strings.Index(tag, "</a>")
			if closeTag < 0 {
				return nil, fmt.Errorf("serp: parse desktop: unterminated anchor")
			}
			anchor := tag[:closeTag]
			href, _ := attr(anchor, "href")
			gt := strings.Index(anchor, ">")
			if gt < 0 || href == "" {
				return nil, fmt.Errorf("serp: parse desktop: malformed anchor %q", anchor)
			}
			card.Results = append(card.Results, Result{
				URL:   html.UnescapeString(href),
				Title: strings.TrimSpace(html.UnescapeString(anchor[gt+1:])),
			})
			linkRest = tag[closeTag:]
		}
		if len(card.Results) == 0 {
			return nil, fmt.Errorf("serp: parse desktop: block with no links")
		}
		p.Cards = append(p.Cards, card)
	}
done:
	if len(p.Cards) == 0 {
		return nil, fmt.Errorf("serp: parse desktop: no results found")
	}
	return p, nil
}

// ParseAnyHTML parses either surface, dispatching on the desktop marker.
func ParseAnyHTML(doc string) (*Page, error) {
	if IsDesktopHTML(doc) {
		return ParseDesktopHTML(doc)
	}
	return ParseHTML(doc)
}
