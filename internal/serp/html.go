package serp

import (
	"fmt"
	"html"
	"strconv"
	"strings"
)

// This file implements the mobile HTML wire format. RenderHTML is what the
// SERP server sends; ParseHTML is what the crawler's browser applies to the
// response body — the counterpart of the study's PhantomJS script scraping
// Google's mobile markup. The markup is deliberately "real-world shaped"
// (nested divs, classes, a location footer) so the parser has to do actual
// extraction work rather than reading a convenient JSON blob.

// RenderHTML renders the page as a mobile results document.
func RenderHTML(p *Page) string {
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

// ParseHTML parses a rendered results document back into a Page. It is a
// scanning parser purpose-built for this markup (the same engineering
// stance as the study's parser, which was built for Google's markup of the
// day) and fails loudly on documents that do not look like result pages.
func ParseHTML(doc string) (*Page, error) {
	p := &Page{}
	// Query from <title>.
	title, err := between(doc, "<title>", "</title>")
	if err != nil {
		return nil, fmt.Errorf("serp: parse: %w", err)
	}
	p.Query = html.UnescapeString(strings.TrimSuffix(title, " - Search"))

	// Footer metadata.
	footer, err := between(doc, "<footer id=\"geo-footer\"", ">")
	if err != nil {
		return nil, fmt.Errorf("serp: parse: missing geo footer")
	}
	if err := parseFooter(p, footer); err != nil {
		return nil, fmt.Errorf("serp: parse: %w", err)
	}

	// Cards.
	rest := doc
	for {
		start := strings.Index(rest, "<div class=\"card\"")
		if start < 0 {
			break
		}
		end := strings.Index(rest[start:], "</div><!--/card-->")
		if end < 0 {
			return nil, fmt.Errorf("serp: parse: unterminated card")
		}
		block := rest[start : start+end]
		rest = rest[start+end+len("</div><!--/card-->"):]

		head, _ := between(block, "<div class=\"card\"", ">")
		typeLabel, _ := attr(head, "data-type")
		ct, err := ParseCardType(typeLabel)
		if err != nil {
			return nil, fmt.Errorf("serp: parse: %w", err)
		}
		card := Card{Type: ct}
		linkRest := block
		for {
			a := strings.Index(linkRest, "<a class=\"serp-link")
			if a < 0 {
				break
			}
			tag := linkRest[a:]
			closeTag := strings.Index(tag, "</a>")
			if closeTag < 0 {
				return nil, fmt.Errorf("serp: parse: unterminated anchor")
			}
			anchor := tag[:closeTag]
			href, _ := attr(anchor, "href")
			gt := strings.Index(anchor, ">")
			if gt < 0 || href == "" {
				return nil, fmt.Errorf("serp: parse: malformed anchor %q", anchor)
			}
			card.Results = append(card.Results, Result{
				URL:   html.UnescapeString(href),
				Title: strings.TrimSpace(html.UnescapeString(anchor[gt+1:])),
			})
			linkRest = tag[closeTag:]
		}
		if len(card.Results) == 0 {
			return nil, fmt.Errorf("serp: parse: card with no links")
		}
		p.Cards = append(p.Cards, card)
	}
	if len(p.Cards) == 0 {
		return nil, fmt.Errorf("serp: parse: no cards found")
	}
	return p, nil
}

// between returns the substring of s strictly between the first occurrence
// of open and the next occurrence of close.
func between(s, open, close string) (string, error) {
	i := strings.Index(s, open)
	if i < 0 {
		return "", fmt.Errorf("marker %q not found", open)
	}
	s = s[i+len(open):]
	j := strings.Index(s, close)
	if j < 0 {
		return "", fmt.Errorf("closing %q not found", close)
	}
	return s[:j], nil
}

// parseFooter reads the location footer's attributes into p. Every
// rendered page carries data-day, so a missing or non-integer day is an
// error rather than day 0.
func parseFooter(p *Page, footer string) error {
	loc, _ := attr(footer, "data-location")
	dc, _ := attr(footer, "data-datacenter")
	p.Location, p.Datacenter = html.UnescapeString(loc), html.UnescapeString(dc)
	day, ok := attr(footer, "data-day")
	if !ok {
		return fmt.Errorf("footer has no data-day")
	}
	d, err := strconv.Atoi(day)
	if err != nil {
		return fmt.Errorf("footer data-day: %w", err)
	}
	p.Day = d
	return nil
}

// attr returns the value of the double-quoted attribute name in a tag
// fragment: a tag from its "<", or the rest of one after a prefix the
// caller matched. It reads the attributes in order and stops at the first
// text that is not one, so a name inside another attribute's value, or at
// the end of a longer name, never matches.
func attr(tag, name string) (string, bool) {
	s := tag
	if strings.HasPrefix(s, "<") {
		s = s[nameEnd(s, 1):]
	}
	for {
		s = strings.TrimLeft(s, " \t\r\n")
		k := nameEnd(s, 0)
		if k == 0 || !strings.HasPrefix(s[k:], "=\"") {
			return "", false
		}
		key, rest := s[:k], s[k+2:]
		end := strings.IndexByte(rest, '"')
		if end < 0 {
			return "", false
		}
		if key == name {
			return rest[:end], true
		}
		s = rest[end+1:]
	}
}

// nameEnd returns the index of the first byte at or after i that cannot
// be part of an element or attribute name.
func nameEnd(s string, i int) int {
	for ; i < len(s); i++ {
		switch s[i] {
		case ' ', '\t', '\r', '\n', '<', '>', '=', '"':
			return i
		}
	}
	return i
}
