// Package serp models pages of mobile search results the way the paper's
// crawler saw them: a vertical stack of "cards", where a card is either a
// single organic result, a Maps meta-result listing several nearby places,
// or an "In the News" meta-result listing several articles.
//
// The package owns both directions of the wire format: the server renders a
// Page to mobile HTML, and the crawler parses that HTML back into a Page
// (the equivalent of the study's PhantomJS parsing of Google's markup). It
// also implements the paper's link-extraction rule (§2.2): take the first
// link of every card, except Maps and News cards, from which every link is
// taken — yielding the 12–22 links per page the analysis compares.
package serp

import (
	"encoding/json"
	"fmt"
	"strings"
)

// CardType distinguishes the three card families the paper analyzes.
type CardType int

const (
	// Organic is a typical single-result card.
	Organic CardType = iota
	// Maps is a map meta-card listing nearby places.
	Maps
	// News is an "In the News" meta-card listing articles.
	News
)

// CardTypes lists all card types.
var CardTypes = []CardType{Organic, Maps, News}

// String returns the wire label for the card type.
func (t CardType) String() string {
	switch t {
	case Organic:
		return "organic"
	case Maps:
		return "maps"
	case News:
		return "news"
	default:
		return fmt.Sprintf("cardtype%d", int(t))
	}
}

// ParseCardType converts a wire label back to a CardType.
func ParseCardType(s string) (CardType, error) {
	switch s {
	case "organic":
		return Organic, nil
	case "maps":
		return Maps, nil
	case "news":
		return News, nil
	}
	return 0, fmt.Errorf("serp: unknown card type %q", s)
}

// MarshalJSON encodes the card type as its wire label.
func (t CardType) MarshalJSON() ([]byte, error) {
	return json.Marshal(t.String())
}

// UnmarshalJSON decodes a wire label.
func (t *CardType) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	ct, err := ParseCardType(s)
	if err != nil {
		return err
	}
	*t = ct
	return nil
}

// Result is one link on a card.
type Result struct {
	URL   string `json:"url"`
	Title string `json:"title"`
}

// Card is one card on the page.
type Card struct {
	Type    CardType `json:"type"`
	Results []Result `json:"results"`
}

// Page is one page of search results, as served (or as parsed back).
type Page struct {
	// Query is the search term.
	Query string `json:"query"`
	// Location is the location the engine personalized for, in
	// "lat,lon" form — Google Search reports the user's precise location
	// at the bottom of the page, which the paper used to verify its GPS
	// spoofing worked.
	Location string `json:"location"`
	// Datacenter identifies the replica that served the page.
	Datacenter string `json:"datacenter,omitempty"`
	// TraceID is the request's telemetry trace ID, propagated from the
	// crawler via the X-Trace-Id header and kept with the stored record
	// so a divergent result can be joined back to the exact request,
	// machine, and serving decision that produced it. Empty for
	// untraced requests.
	TraceID string `json:"trace_id,omitempty"`
	// Day is the simulation day the page was served (0-based).
	Day int `json:"day"`
	// Cards is the card stack, top to bottom.
	Cards []Card `json:"cards"`
}

// Links applies the paper's extraction rule and returns the page's link
// list in rank order: the first link of each Organic card, every link of
// each Maps or News card.
func (p *Page) Links() []string {
	return p.links(func(CardType) bool { return true })
}

// LinksOfType is Links restricted to cards of one type; the analysis uses
// it to attribute noise and personalization to Maps vs News vs "other"
// results (Figures 4 and 7).
func (p *Page) LinksOfType(t CardType) []string {
	return p.links(func(ct CardType) bool { return ct == t })
}

// links applies the extraction rule to the cards whose type keep accepts,
// sizing the list before filling it so it takes one allocation.
func (p *Page) links(keep func(CardType) bool) []string {
	n := 0
	for _, c := range p.Cards {
		if keep(c.Type) {
			n += len(c.extracted())
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for _, c := range p.Cards {
		if keep(c.Type) {
			for _, r := range c.extracted() {
				out = append(out, r.URL)
			}
		}
	}
	return out
}

// extracted returns the results the extraction rule takes from the card:
// every result of a Maps or News card, the first result of any other.
func (c Card) extracted() []Result {
	if c.Type == Maps || c.Type == News || len(c.Results) == 0 {
		return c.Results
	}
	return c.Results[:1]
}

// LinkCount returns the number of links the extraction rule yields.
func (p *Page) LinkCount() int { return len(p.Links()) }

// CardCount returns the number of cards of type t.
func (p *Page) CardCount(t CardType) int {
	n := 0
	for _, c := range p.Cards {
		if c.Type == t {
			n++
		}
	}
	return n
}

// Validate checks structural sanity: non-empty query, every card non-empty,
// meta-cards only of known types.
func (p *Page) Validate() error {
	if strings.TrimSpace(p.Query) == "" {
		return fmt.Errorf("serp: page has empty query")
	}
	for i, c := range p.Cards {
		if len(c.Results) == 0 {
			return fmt.Errorf("serp: card %d (%s) has no results", i, c.Type)
		}
		for j, r := range c.Results {
			if r.URL == "" {
				return fmt.Errorf("serp: card %d result %d has empty URL", i, j)
			}
		}
		if c.Type == Organic && len(c.Results) != 1 {
			return fmt.Errorf("serp: organic card %d has %d results, want 1", i, len(c.Results))
		}
	}
	return nil
}
