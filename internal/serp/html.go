package serp

import (
	"fmt"
	"html"
	"strconv"
	"strings"
)

// This file implements the mobile HTML wire format, the one results page
// the SERP server sends to every client (the study crawled only the mobile
// page, §2.2). RenderHTML is what the server sends; ParseHTML is what the
// crawler's browser applies to the response body — the counterpart of the
// study's PhantomJS script scraping Google's mobile markup. The markup is
// deliberately "real-world shaped" (nested divs, classes, a location
// footer) so the parser has to do actual extraction work rather than
// reading a convenient JSON blob.

// RenderHTML renders the page as a mobile results document.
func RenderHTML(p *Page) string { return string(AppendHTML(make([]byte, 0, 4096), p)) }

// AppendHTML appends the page's mobile results document to b and returns
// the extended buffer. The appended bytes are the ones RenderHTML returns.
func AppendHTML(b []byte, p *Page) []byte {
	b = append(b, "<!doctype html>\n<html><head><meta charset=\"utf-8\"><title>"...)
	b = appendEscaped(b, p.Query)
	b = append(b, " - Search</title><meta name=\"viewport\" content=\"width=device-width\"></head>\n<body>\n"+
		"<header class=\"searchbox\"><input value=\""...)
	b = appendEscaped(b, p.Query)
	b = append(b, "\"></header>\n<main id=\"results\">\n"...)
	for i, c := range p.Cards {
		b = append(b, "<div class=\"card\" data-type=\""...)
		b = append(b, c.Type.String()...)
		b = append(b, "\" data-index=\""...)
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, "\">\n"...)
		switch c.Type {
		case Maps:
			b = append(b, "  <div class=\"map-frame\"><span class=\"map-pin\">&#9679;</span></div>\n  <ul class=\"map-list\">\n"...)
			for _, r := range c.Results {
				b = append(b, "    <li>"...)
				b = appendLink(b, "serp-link", r)
				b = append(b, "<span class=\"biz-meta\">&#9733;</span></li>\n"...)
			}
			b = append(b, "  </ul>\n"...)
		case News:
			b = append(b, "  <h3 class=\"news-header\">In the News</h3>\n"...)
			for _, r := range c.Results {
				b = append(b, "  <div class=\"news-item\">"...)
				b = appendLink(b, "serp-link", r)
				b = append(b, "</div>\n"...)
			}
		default:
			for j, r := range c.Results {
				cls := "serp-link"
				if j > 0 {
					cls = "serp-link sublink"
				}
				b = append(b, "  "...)
				b = appendLink(b, cls, r)
				b = append(b, '\n')
			}
		}
		b = append(b, "</div><!--/card-->\n"...)
	}
	b = append(b, "</main>\n<footer id=\"geo-footer\" data-location=\""...)
	b = appendEscaped(b, p.Location)
	b = append(b, "\" data-datacenter=\""...)
	b = appendEscaped(b, p.Datacenter)
	b = append(b, "\" data-day=\""...)
	b = strconv.AppendInt(b, int64(p.Day), 10)
	b = append(b, "\">Results for <b>"...)
	b = appendEscaped(b, p.Location)
	return append(b, "</b></footer>\n</body></html>\n"...)
}

// appendLink appends <a class="cls" href="URL">Title</a>, both escaped.
func appendLink(b []byte, cls string, r Result) []byte {
	b = append(b, "<a class=\""...)
	b = append(b, cls...)
	b = append(b, "\" href=\""...)
	b = appendEscaped(b, r.URL)
	b = append(b, "\">"...)
	b = appendEscaped(b, r.Title)
	return append(b, "</a>"...)
}

// appendEscaped appends s to b with the five bytes html.EscapeString
// escapes replaced by the same entities; every other byte, invalid UTF-8
// included, is copied unchanged.
func appendEscaped(b []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); i++ {
		var esc string
		switch s[i] {
		case '&':
			esc = "&amp;"
		case '\'':
			esc = "&#39;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '"':
			esc = "&#34;"
		default:
			continue
		}
		b = append(b, s[last:i]...)
		b = append(b, esc...)
		last = i + 1
	}
	return append(b, s[last:]...)
}

// The markers ParseHTML reads a results document by: the footer opener,
// the card block's opener (its data-type is read after it) and closer, the
// result anchor's class and the results container. Everything else it
// reads is common markup.
const (
	footerOpen    = `<footer id="geo-footer"`
	cardOpen      = `<div class="card"`
	cardClose     = "</div><!--/card-->"
	anchorOpen    = `<a class="serp-link`
	containerOpen = `<main id="results">`
)

// ParseHTML parses a rendered results document back into a Page. It is a
// scanning parser purpose-built for this markup (the same engineering
// stance as the study's parser, which was built for Google's markup of the
// day) and fails loudly on documents that do not look like result pages.
// A page with an empty results container parses to a Page with no cards.
func ParseHTML(doc string) (*Page, error) {
	p := &Page{}
	// Query from <title>.
	title, err := between(doc, "<title>", "</title>")
	if err != nil {
		return nil, fmt.Errorf("serp: parse: %w", err)
	}
	p.Query = html.UnescapeString(strings.TrimSuffix(title, " - Search"))

	// Footer metadata.
	footer, err := between(doc, footerOpen, ">")
	if err != nil {
		return nil, fmt.Errorf("serp: parse: missing geo footer")
	}
	if err := parseFooter(p, footer); err != nil {
		return nil, fmt.Errorf("serp: parse: %w", err)
	}

	// Cards.
	rest := doc
	for {
		start := strings.Index(rest, cardOpen)
		if start < 0 {
			break
		}
		end := strings.Index(rest[start:], cardClose)
		if end < 0 {
			return nil, fmt.Errorf("serp: parse: unterminated card")
		}
		block := rest[start : start+end]
		rest = rest[start+end+len(cardClose):]

		head, _ := between(block, cardOpen, ">")
		typeLabel, _ := attr(head, "data-type")
		ct, err := ParseCardType(typeLabel)
		if err != nil {
			return nil, fmt.Errorf("serp: parse: %w", err)
		}
		card := Card{Type: ct}
		linkRest := block
		for {
			a := strings.Index(linkRest, anchorOpen)
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
	if len(p.Cards) == 0 && !strings.Contains(doc, containerOpen) {
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
