package serp_test

import (
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"

	"geoserp/internal/serp"
)

// FuzzParseHTML fuzzes the crawler's parser, which reads every page a
// server sends: no document may panic ParseHTML, and every page it
// accepts must survive re-rendering on the surface it was read as, and
// ParseHTML, unchanged. A page that parses into something its own
// rendering does not say would be a misparse, indistinguishable downstream
// from personalization.
func FuzzParseHTML(f *testing.F) {
	for _, p := range studyPages(f) {
		f.Add(serp.RenderHTML(p))
		f.Add(serp.RenderDesktopHTML(p))
	}
	for _, rejects := range []map[string]string{serp.HTMLRejects(), serp.DesktopRejects()} {
		for _, name := range slices.Sorted(maps.Keys(rejects)) {
			f.Add(rejects[name])
		}
	}
	f.Fuzz(func(t *testing.T, doc string) {
		p, err := serp.ParseHTML(doc)
		if err != nil {
			return
		}
		render := serp.RenderHTML
		if strings.Contains(doc, serp.DesktopMarker) {
			render = serp.RenderDesktopHTML
		}
		again, err := serp.ParseHTML(render(p))
		if err != nil {
			t.Fatalf("accepted page does not re-parse: %v\npage: %+v", err, p)
		}
		if !reflect.DeepEqual(p, again) {
			t.Fatalf("accepted page changed on re-render:\n got %+v\nwant %+v", again, p)
		}
	})
}
