package serp_test

import (
	"maps"
	"reflect"
	"slices"
	"testing"
	"time"

	"geoserp/internal/engine"
	"geoserp/internal/geo"
	"geoserp/internal/serp"
	"geoserp/internal/simclock"
)

// FuzzParseHTML fuzzes the crawler's parser, which reads every page a
// server sends: no document may panic ParseAnyHTML, and every page it
// accepts must survive RenderHTML and ParseHTML unchanged. A page that
// parses into something its own rendering does not say would be a
// misparse, indistinguishable downstream from personalization.
func FuzzParseHTML(f *testing.F) {
	eng := engine.New(engine.DefaultConfig(), simclock.NewManual(time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)))
	gps := geo.Point{Lat: 41.4993, Lon: -81.6944}
	for _, term := range []string{"School", "Starbucks", "Gay Marriage", "Barack Obama"} {
		r, err := eng.Search(engine.Request{Query: term, GPS: &gps, ClientIP: "10.0.0.1"})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(serp.RenderHTML(r.Page))
		f.Add(serp.RenderDesktopHTML(r.Page))
	}
	for _, rejects := range []map[string]string{serp.HTMLRejects(), serp.DesktopRejects()} {
		for _, name := range slices.Sorted(maps.Keys(rejects)) {
			f.Add(rejects[name])
		}
	}
	f.Fuzz(func(t *testing.T, doc string) {
		p, err := serp.ParseAnyHTML(doc)
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
