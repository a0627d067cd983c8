package serp_test

import (
	"encoding/json"
	"maps"
	"reflect"
	"slices"
	"testing"

	"geoserp/internal/serp"
)

// FuzzParseHTML fuzzes the crawler's parser, which reads every page a
// server sends: no document may panic ParseHTML, and every page it
// accepts must survive RenderHTML and ParseHTML unchanged. A page that
// parses into something its own rendering does not say would be a
// misparse, indistinguishable downstream from personalization. Besides
// the study pages and the reject table, the seeds are what else reaches
// the parser off the wire: a page with no results, each study page cut
// halfway, as a truncating fault leaves it, and each study page's JSON
// encoding, which the server sends for format=json.
func FuzzParseHTML(f *testing.F) {
	pages := studyPages(f)
	for _, p := range pages {
		f.Add(serp.RenderHTML(p))
	}
	rejects := serp.HTMLRejects()
	for _, name := range slices.Sorted(maps.Keys(rejects)) {
		f.Add(rejects[name])
	}
	f.Add(serp.RenderHTML(serp.EmptyPage()))
	for _, p := range pages {
		doc := serp.RenderHTML(p)
		f.Add(doc[:len(doc)/2])
	}
	for _, p := range pages {
		b, err := json.Marshal(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(b))
	}
	f.Fuzz(func(t *testing.T, doc string) {
		p, err := serp.ParseHTML(doc)
		if err != nil {
			return
		}
		again, err := serp.ParseHTML(serp.RenderHTML(p))
		if err != nil {
			t.Fatalf("accepted page does not re-parse: %v\npage: %+v", err, p)
		}
		if !reflect.DeepEqual(p, again) {
			t.Fatalf("accepted page changed on re-render:\n got %+v\nwant %+v", again, p)
		}
	})
}
