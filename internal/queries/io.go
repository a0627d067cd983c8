package queries

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// This file serializes corpora so studies with custom term sets can be
// driven entirely from the command line (cmd/serpd -corpus, cmd/crawl
// -corpus). The wire format is a JSON array of query objects:
//
//	[
//	  {"term": "Chemist", "category": "local"},
//	  {"term": "Greggs", "category": "local", "brand": true},
//	  {"term": "NHS Funding", "category": "controversial"},
//	  {"term": "Prime Minister", "category": "politician", "scope": "national-figure"}
//	]

// queryJSON is the wire form of a Query.
type queryJSON struct {
	Term       string `json:"term"`
	Category   string `json:"category"`
	Brand      bool   `json:"brand,omitempty"`
	Scope      string `json:"scope,omitempty"`
	CommonName bool   `json:"common_name,omitempty"`
}

// scopeLabels maps wire labels to scopes.
var scopeLabels = map[string]PoliticianScope{
	"":                  ScopeNone,
	"none":              ScopeNone,
	"county-board":      ScopeCountyBoard,
	"state-legislature": ScopeStateLegislature,
	"us-congress-ohio":  ScopeUSCongressOhio,
	"us-congress-other": ScopeUSCongressOther,
	"national-figure":   ScopeNationalFigure,
}

// WriteCorpus serializes the corpus as JSON.
func WriteCorpus(w io.Writer, c *Corpus) error {
	out := make([]queryJSON, 0, c.Len())
	for _, q := range c.All() {
		scope := ""
		if q.Scope != ScopeNone {
			scope = q.Scope.String()
		}
		out = append(out, queryJSON{
			Term:       q.Term,
			Category:   q.Category.Short(),
			Brand:      q.Brand,
			Scope:      scope,
			CommonName: q.CommonName,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ReadCorpus parses a JSON corpus and validates it.
func ReadCorpus(r io.Reader) (*Corpus, error) {
	var raw []queryJSON
	if err := json.NewDecoder(r).Decode(&raw); err != nil {
		return nil, fmt.Errorf("queries: decode corpus: %w", err)
	}
	qs := make([]Query, 0, len(raw))
	for i, rq := range raw {
		cat, err := ParseCategory(rq.Category)
		if err != nil {
			return nil, fmt.Errorf("queries: entry %d (%q): %w", i, rq.Term, err)
		}
		scope, ok := scopeLabels[rq.Scope]
		if !ok {
			return nil, fmt.Errorf("queries: entry %d (%q): unknown scope %q", i, rq.Term, rq.Scope)
		}
		// Politician entries default to national-figure scope when the
		// file omits it, keeping hand-written corpora terse.
		if cat == Politician && scope == ScopeNone {
			scope = ScopeNationalFigure
		}
		qs = append(qs, Query{
			Term:       rq.Term,
			Category:   cat,
			Brand:      rq.Brand,
			Scope:      scope,
			CommonName: rq.CommonName,
		})
	}
	return NewCorpus(qs)
}

// LoadCorpus reads a corpus from a file path.
func LoadCorpus(path string) (*Corpus, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("queries: open %s: %w", path, err)
	}
	defer f.Close()
	return ReadCorpus(f)
}
